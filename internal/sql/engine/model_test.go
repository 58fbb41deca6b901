package engine

import (
	"context"
	"math"
	"math/rand"
	"os"
	"sort"
	"strconv"
	"strings"
	"testing"

	"minerule/internal/sql/schema"
	"minerule/internal/sql/value"
)

// TestExecutorMatchesModel checks the executor against a reference model
// written in plain Go: every query template pairs its SQL with a
// function that computes the expected rows straight from the generated
// table slices. The model owns its semantics — join matching (NULL
// never joins), grouping and DISTINCT equality (NULL is one group, NaN
// is one group, -0.0 equals +0.0), aggregates, LEFT JOIN padding, set
// operations and ordering — and borrows only scalar comparison and
// arithmetic from package value. It shares no operator, key encoding or
// hash table with the executor, so it also covers the paths a second
// executor could not: the streaming hash join, the build-side swap and
// the cost-based join order.
//
// The data hits the edge cases: NULL, NaN, -0.0 next to +0.0, and
// exactly representable power-of-two fractions (so SUM and AVG do not
// depend on summation order). Rows go in through Conn.AppendRows because
// SQL literals cannot express NaN or negative zero. The data seed is
// fixed unless EXEC_MODEL_SEED sets it.
func TestExecutorMatchesModel(t *testing.T) {
	db, m := modelSetup(t, modelSeed(t))
	for _, q := range modelQueries {
		t.Run(q.sql, func(t *testing.T) {
			res, err := db.Query(q.sql)
			if err != nil {
				t.Fatalf("executor: %v", err)
			}
			got, want := canonRows(res.Rows), canonRows(q.want(m))
			if !q.ordered {
				sort.Strings(got)
				sort.Strings(want)
			}
			if len(got) != len(want) {
				t.Errorf("executor returned %d row(s), model %d", len(got), len(want))
			}
			for i := 0; i < len(got) && i < len(want); i++ {
				if got[i] != want[i] {
					t.Fatalf("row %d: executor %s, model %s", i, got[i], want[i])
				}
			}
		})
	}
}

// TestModelJoinPlans pins the plans the join templates exist for:
// EXPLAIN shows the planner joining the filtered t3 first, not t1, and
// the last join of each query streaming into the residual filter.
func TestModelJoinPlans(t *testing.T) {
	db, _ := modelSetup(t, modelSeed(t))
	for _, c := range []struct {
		q     string
		joins int
	}{{"SELECT t1.c" + reorderedJoin, 2}, {"SELECT t1.c" + filteredJoin, 1}} {
		res, err := db.Query("EXPLAIN " + c.q)
		if err != nil {
			t.Fatal(err)
		}
		var joins []string
		filtered := false
		for _, r := range res.Rows {
			line := strings.TrimSpace(r[0].String())
			switch {
			case strings.HasPrefix(line, "join "):
				joins = append(joins, line)
			case strings.HasPrefix(line, "filter cond=(t1.b < t2.d)"):
				filtered = len(joins) == c.joins
			}
		}
		if len(joins) != c.joins || !strings.Contains(joins[len(joins)-1], "output=streamed") || !filtered {
			t.Fatalf("%s: the last join does not stream into the residual filter: %v", c.q, joins)
		}
		if c.joins == 2 && strings.Contains(joins[0], "rows_left=3000 ") {
			t.Errorf("%s: the planner kept the written order: %v", c.q, joins)
		}
	}
}

// modelSeed is the data seed: EXEC_MODEL_SEED when set, so a sweep can
// rotate it, else 7.
func modelSeed(t *testing.T) int64 {
	seed := int64(7)
	if s := os.Getenv("EXEC_MODEL_SEED"); s != "" {
		v, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			t.Fatalf("EXEC_MODEL_SEED=%q: %v", s, err)
		}
		seed = v
	}
	t.Logf("data seed %d (rerun with EXEC_MODEL_SEED=%d)", seed, seed)
	return seed
}

// modelData holds the generated tables as the model reads them:
// t1(a INTEGER, b FLOAT, c VARCHAR), t2(a INTEGER, d FLOAT) and
// t3(a INTEGER, e INTEGER).
type modelData struct {
	t1, t2, t3 []schema.Row
}

// modelFloats are exact in binary floating point, so any summation
// order produces the same bits.
var modelFloats = []float64{0.5, 1.25, -3.5, 2.0, -0.25, 7.75, 0.0, math.Copysign(0, -1), 12.5, -8.0}

func modelSetup(t *testing.T, seed int64) (*Database, *modelData) {
	t.Helper()
	db := New()
	t.Cleanup(func() { db.Close() })
	script := `
CREATE TABLE t1 (a INTEGER, b FLOAT, c VARCHAR);
CREATE TABLE t2 (a INTEGER, d FLOAT);
CREATE TABLE t3 (a INTEGER, e INTEGER);
`
	if err := db.ExecScript(script); err != nil {
		t.Fatalf("setup: %v", err)
	}
	rng := rand.New(rand.NewSource(seed))
	strs := []string{"alpha", "beta", "gamma", "delta", ""}
	m := &modelData{}
	for i := 0; i < 3000; i++ {
		row := schema.Row{
			value.NewInt(int64(rng.Intn(200))),
			value.NewFloat(modelFloats[rng.Intn(len(modelFloats))]),
			value.NewString(strs[rng.Intn(len(strs))]),
		}
		switch rng.Intn(20) {
		case 0:
			row[0] = value.Null
		case 1:
			row[1] = value.Null
		case 2:
			row[1] = value.NewFloat(math.NaN())
		case 3:
			row[2] = value.Null
		}
		m.t1 = append(m.t1, row)
	}
	for i := 0; i < 400; i++ {
		row := schema.Row{
			value.NewInt(int64(rng.Intn(200))),
			value.NewFloat(modelFloats[rng.Intn(len(modelFloats))]),
		}
		if rng.Intn(15) == 0 {
			row[0] = value.Null
		}
		m.t2 = append(m.t2, row)
	}
	for i := 0; i < 150; i++ {
		m.t3 = append(m.t3, schema.Row{
			value.NewInt(int64(rng.Intn(200))),
			value.NewInt(int64(rng.Intn(10))),
		})
	}
	c := db.Conn()
	for name, rows := range map[string][]schema.Row{"t1": m.t1, "t2": m.t2, "t3": m.t3} {
		if err := c.AppendRows(context.Background(), name, rows); err != nil {
			t.Fatalf("insert %s: %v", name, err)
		}
	}
	return db, m
}

// ---------------------------------------------------------------------------
// The model's semantics

// canon is the model's canonical form of one value. Two values share it
// exactly when grouping, DISTINCT and set operations treat them as
// equal: every NULL alike, every NaN alike, -0.0 like +0.0, and an
// integer like the float of the same number.
func canon(v value.Value) string {
	switch {
	case v.IsNull():
		return "NULL"
	case v.Type().Numeric():
		f := v.Float()
		switch {
		case math.IsNaN(f):
			return "NaN"
		case f == 0:
			return "0"
		}
		return strconv.FormatFloat(f, 'g', -1, 64)
	default:
		return strconv.Quote(v.String())
	}
}

func canonRow(r schema.Row) string {
	parts := make([]string, len(r))
	for i, v := range r {
		parts[i] = canon(v)
	}
	return "(" + strings.Join(parts, ", ") + ")"
}

func canonRows(rows []schema.Row) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = canonRow(r)
	}
	return out
}

// compare orders two values as a comparison predicate sees them. ok is
// false when either side is NULL: the predicate is then UNKNOWN, which
// WHERE, ON and HAVING all treat as not satisfied.
func compare(a, b value.Value) (c int, ok bool) {
	if a.IsNull() || b.IsNull() {
		return 0, false
	}
	c, err := value.Compare(a, b)
	if err != nil {
		panic(err)
	}
	return c, true
}

func eq(a, b value.Value) bool { c, ok := compare(a, b); return ok && c == 0 }
func ne(a, b value.Value) bool { c, ok := compare(a, b); return ok && c != 0 }
func lt(a, b value.Value) bool { c, ok := compare(a, b); return ok && c < 0 }
func gt(a, b value.Value) bool { c, ok := compare(a, b); return ok && c > 0 }
func ge(a, b value.Value) bool { c, ok := compare(a, b); return ok && c >= 0 }

func num(i int64) value.Value { return value.NewInt(i) }

// where keeps the rows satisfying p.
func where(rows []schema.Row, p func(schema.Row) bool) []schema.Row {
	var out []schema.Row
	for _, r := range rows {
		if p(r) {
			out = append(out, r)
		}
	}
	return out
}

// join pairs every left row with every right row for which on holds,
// concatenating the two; with leftOuter an unmatched left row is kept
// once, padded with rightWidth NULLs.
func join(left, right []schema.Row, rightWidth int, leftOuter bool, on func(l, r schema.Row) bool) []schema.Row {
	var out []schema.Row
	for _, l := range left {
		matched := false
		for _, r := range right {
			if on(l, r) {
				matched = true
				out = append(out, concat(l, r))
			}
		}
		if !matched && leftOuter {
			out = append(out, concat(l, make(schema.Row, rightWidth)))
		}
	}
	return out
}

func inner(left, right []schema.Row, on func(l, r schema.Row) bool) []schema.Row {
	return join(left, right, 0, false, on)
}

func concat(l, r schema.Row) schema.Row {
	return append(append(make(schema.Row, 0, len(l)+len(r)), l...), r...)
}

// pick is the row of r's listed columns, in order.
func pick(r schema.Row, cols []int) schema.Row {
	p := make(schema.Row, len(cols))
	for i, c := range cols {
		p[i] = r[c]
	}
	return p
}

func project(rows []schema.Row, cols ...int) []schema.Row {
	out := make([]schema.Row, len(rows))
	for i, r := range rows {
		out[i] = pick(r, cols)
	}
	return out
}

// distinct keeps the first row of every canonical class.
func distinct(rows []schema.Row) []schema.Row {
	seen := make(map[string]bool)
	var out []schema.Row
	for _, r := range rows {
		if k := canonRow(r); !seen[k] {
			seen[k] = true
			out = append(out, r)
		}
	}
	return out
}

// groupBy partitions rows by the canonical form of the key columns and
// emits one row per group; emit sees the group's rows in input order.
func groupBy(rows []schema.Row, key []int, emit func(g []schema.Row) schema.Row) []schema.Row {
	groups := make(map[string][]schema.Row)
	var order []string
	for _, r := range rows {
		k := canonRow(pick(r, key))
		if _, ok := groups[k]; !ok {
			order = append(order, k)
		}
		groups[k] = append(groups[k], r)
	}
	var out []schema.Row
	for _, k := range order {
		if row := emit(groups[k]); row != nil {
			out = append(out, row)
		}
	}
	return out
}

// nonNull is the column's non-NULL values over the group, the input of
// every aggregate except COUNT(*).
func nonNull(g []schema.Row, col int) []value.Value {
	var out []value.Value
	for _, r := range g {
		if !r[col].IsNull() {
			out = append(out, r[col])
		}
	}
	return out
}

func count(vs []value.Value) value.Value { return num(int64(len(vs))) }

func countDistinct(vs []value.Value) value.Value {
	seen := make(map[string]bool)
	for _, v := range vs {
		seen[canon(v)] = true
	}
	return num(int64(len(seen)))
}

func sum(vs []value.Value) value.Value {
	if len(vs) == 0 {
		return value.Null
	}
	s := vs[0]
	for _, v := range vs[1:] {
		var err error
		if s, err = value.Arith('+', s, v); err != nil {
			panic(err)
		}
	}
	return s
}

func avg(vs []value.Value) value.Value {
	if len(vs) == 0 {
		return value.Null
	}
	s, err := value.Arith('/', sum(vs), value.NewFloat(float64(len(vs))))
	if err != nil {
		panic(err)
	}
	return s
}

// extreme is MIN (sign -1) or MAX (sign +1) under value.Compare, which
// orders NaN below every number.
func extreme(vs []value.Value, sign int) value.Value {
	if len(vs) == 0 {
		return value.Null
	}
	best := vs[0]
	for _, v := range vs[1:] {
		if c, _ := compare(v, best); c*sign > 0 {
			best = v
		}
	}
	return best
}

// setOp combines two distinct-producing operands: UNION keeps a row in
// either, EXCEPT a left row missing from the right, INTERSECT a left
// row present in the right. NULLs count as equal, as in DISTINCT.
func setOp(kind string, left, right []schema.Row) []schema.Row {
	inRight := make(map[string]bool)
	for _, r := range right {
		inRight[canonRow(r)] = true
	}
	switch kind {
	case "UNION":
		return distinct(append(append([]schema.Row(nil), left...), right...))
	case "EXCEPT":
		return distinct(where(left, func(r schema.Row) bool { return !inRight[canonRow(r)] }))
	default: // INTERSECT
		return distinct(where(left, func(r schema.Row) bool { return inRight[canonRow(r)] }))
	}
}

// sortKey orders by one column; NULL sorts below every value, so it
// comes first ascending and last descending.
type sortKey struct {
	col  int
	desc bool
}

func orderBy(rows []schema.Row, keys ...sortKey) []schema.Row {
	out := append([]schema.Row(nil), rows...)
	sort.SliceStable(out, func(i, j int) bool {
		for _, k := range keys {
			a, b := out[i][k.col], out[j][k.col]
			var c int
			switch {
			case a.IsNull() && b.IsNull():
			case a.IsNull():
				c = -1
			case b.IsNull():
				c = 1
			default:
				c, _ = compare(a, b)
			}
			if k.desc {
				c = -c
			}
			if c != 0 {
				return c < 0
			}
		}
		return false
	})
	return out
}

// ---------------------------------------------------------------------------
// Query templates

// Column positions in the generated tables and in their joins.
const (
	t1a, t1b, t1c = 0, 1, 2
	t2a, t2d      = 0, 1
	t3a, t3e      = 0, 1
)

type modelQuery struct {
	sql string
	// ordered queries ORDER BY enough columns that rows tying on every
	// key are canonically equal, so a positional comparison is exact;
	// the rest compare as sorted multisets.
	ordered bool
	want    func(m *modelData) []schema.Row
}

// t1t2 is t1 ⋈ t2 on a (t1's columns, then t2's).
func t1t2(m *modelData) []schema.Row {
	return inner(m.t1, m.t2, func(l, r schema.Row) bool { return eq(l[t1a], r[t2a]) })
}

// The FROM/WHERE of the reordered three-table join (see
// TestModelJoinPlans) and of the two-table join under a residual
// filter.
const (
	reorderedJoin = " FROM t1, t2, t3 WHERE t1.a = t3.a AND t2.a = t3.a AND t3.e < 2 AND t1.b < t2.d"
	filteredJoin  = " FROM t1, t2 WHERE t1.a = t2.a AND t1.b < t2.d"
)

// t1t2t3 is the reordered join's rows in FROM-list column order: t1's,
// t2's, then t3's.
func t1t2t3(m *modelData) []schema.Row {
	t3 := where(m.t3, func(r schema.Row) bool { return lt(r[t3e], num(2)) })
	j := inner(t1t2(m), t3, func(l, r schema.Row) bool { return eq(l[t1a], r[t3a]) && eq(l[3+t2a], r[t3a]) })
	return where(j, func(r schema.Row) bool { return lt(r[t1b], r[3+t2d]) })
}

var modelQueries = []modelQuery{
	{sql: "SELECT a, b, c FROM t1", want: func(m *modelData) []schema.Row {
		return m.t1
	}},
	{sql: "SELECT a, b FROM t1 WHERE a > 50", want: func(m *modelData) []schema.Row {
		return project(where(m.t1, func(r schema.Row) bool { return gt(r[t1a], num(50)) }), t1a, t1b)
	}},
	{sql: "SELECT a, c FROM t1 WHERE b >= 0.0 AND c <> 'beta'", want: func(m *modelData) []schema.Row {
		return project(where(m.t1, func(r schema.Row) bool {
			return ge(r[t1b], value.NewFloat(0)) && ne(r[t1c], value.NewString("beta"))
		}), t1a, t1c)
	}},
	{sql: "SELECT a, b FROM t1 WHERE b IS NULL OR c IS NULL", want: func(m *modelData) []schema.Row {
		return project(where(m.t1, func(r schema.Row) bool { return r[t1b].IsNull() || r[t1c].IsNull() }), t1a, t1b)
	}},
	{sql: "SELECT t1.a, t1.b, t2.d FROM t1, t2 WHERE t1.a = t2.a", want: func(m *modelData) []schema.Row {
		return project(t1t2(m), t1a, t1b, 3+t2d)
	}},
	{sql: "SELECT t1.a, t2.d, t3.e FROM t1, t2, t3 WHERE t1.a = t2.a AND t2.a = t3.a", want: func(m *modelData) []schema.Row {
		j := inner(t1t2(m), m.t3, func(l, r schema.Row) bool { return eq(l[3+t2a], r[t3a]) })
		return project(j, t1a, 3+t2d, 5+t3e)
	}},
	{sql: "SELECT t1.a, t2.d FROM t1, t2 WHERE t1.a = t2.a AND t1.b > t2.d", want: func(m *modelData) []schema.Row {
		j := where(t1t2(m), func(r schema.Row) bool { return gt(r[t1b], r[3+t2d]) })
		return project(j, t1a, 3+t2d)
	}},
	{sql: "SELECT t2.a, t3.e FROM t2, t3 WHERE t2.d > 1.0", want: func(m *modelData) []schema.Row {
		j := inner(m.t2, m.t3, func(l, _ schema.Row) bool { return gt(l[t2d], value.NewFloat(1)) })
		return project(j, t2a, 2+t3e)
	}},
	{sql: "SELECT c, COUNT(*), SUM(b) FROM t1 GROUP BY c", want: func(m *modelData) []schema.Row {
		return groupBy(m.t1, []int{t1c}, func(g []schema.Row) schema.Row {
			return schema.Row{g[0][t1c], num(int64(len(g))), sum(nonNull(g, t1b))}
		})
	}},
	{sql: "SELECT a, MIN(b), MAX(b), AVG(b) FROM t1 GROUP BY a", want: func(m *modelData) []schema.Row {
		return groupBy(m.t1, []int{t1a}, func(g []schema.Row) schema.Row {
			b := nonNull(g, t1b)
			return schema.Row{g[0][t1a], extreme(b, -1), extreme(b, 1), avg(b)}
		})
	}},
	{sql: "SELECT c, COUNT(DISTINCT a) FROM t1 GROUP BY c", want: func(m *modelData) []schema.Row {
		return groupBy(m.t1, []int{t1c}, func(g []schema.Row) schema.Row {
			return schema.Row{g[0][t1c], countDistinct(nonNull(g, t1a))}
		})
	}},
	{sql: "SELECT c, COUNT(*) FROM t1 GROUP BY c HAVING COUNT(*) > 400", want: func(m *modelData) []schema.Row {
		return groupBy(m.t1, []int{t1c}, func(g []schema.Row) schema.Row {
			if len(g) <= 400 {
				return nil
			}
			return schema.Row{g[0][t1c], num(int64(len(g)))}
		})
	}},
	{sql: "SELECT DISTINCT c FROM t1", want: func(m *modelData) []schema.Row {
		return distinct(project(m.t1, t1c))
	}},
	{sql: "SELECT DISTINCT a, b FROM t1 WHERE a < 30", want: func(m *modelData) []schema.Row {
		return distinct(project(where(m.t1, func(r schema.Row) bool { return lt(r[t1a], num(30)) }), t1a, t1b))
	}},
	{sql: "SELECT t2.a, COUNT(*), SUM(t1.b) FROM t1, t2 WHERE t1.a = t2.a GROUP BY t2.a", want: func(m *modelData) []schema.Row {
		return groupBy(t1t2(m), []int{3 + t2a}, func(g []schema.Row) schema.Row {
			return schema.Row{g[0][3+t2a], num(int64(len(g))), sum(nonNull(g, t1b))}
		})
	}},
	{sql: "SELECT t1.a, t2.d FROM t1 LEFT JOIN t2 ON t1.a = t2.a WHERE t1.a < 40", want: func(m *modelData) []schema.Row {
		j := join(m.t1, m.t2, 2, true, func(l, r schema.Row) bool { return eq(l[t1a], r[t2a]) })
		return project(where(j, func(r schema.Row) bool { return lt(r[t1a], num(40)) }), t1a, 3+t2d)
	}},
	{sql: "SELECT a FROM t1 UNION SELECT a FROM t2", want: func(m *modelData) []schema.Row {
		return setOp("UNION", project(m.t1, t1a), project(m.t2, t2a))
	}},
	{sql: "SELECT a, b, c FROM t1 ORDER BY a, b, c", ordered: true, want: func(m *modelData) []schema.Row {
		return orderBy(m.t1, sortKey{col: t1a}, sortKey{col: t1b}, sortKey{col: t1c})
	}},
	{sql: "SELECT DISTINCT c, a FROM t1 ORDER BY c, a", ordered: true, want: func(m *modelData) []schema.Row {
		return orderBy(distinct(project(m.t1, t1c, t1a)), sortKey{col: 0}, sortKey{col: 1})
	}},

	// A two-table hash join feeds GROUP BY straight from the streaming
	// join, whose row storage is recycled between batches; the group
	// keys come from both sides, and t2.d holds -0.0 next to +0.0.
	{sql: "SELECT t1.c, t2.d, COUNT(*), MIN(t1.b) FROM t1, t2 WHERE t1.a = t2.a GROUP BY t1.c, t2.d", want: func(m *modelData) []schema.Row {
		return groupBy(t1t2(m), []int{t1c, 3 + t2d}, func(g []schema.Row) schema.Row {
			return schema.Row{g[0][t1c], g[0][3+t2d], num(int64(len(g))), extreme(nonNull(g, t1b), -1)}
		})
	}},
	// The first FROM element is the smaller, so the streaming join
	// builds on its left input.
	{sql: "SELECT t2.d, t1.c, COUNT(*), SUM(t1.b) FROM t2, t1 WHERE t2.a = t1.a GROUP BY t2.d, t1.c", want: func(m *modelData) []schema.Row {
		j := inner(m.t2, m.t1, func(l, r schema.Row) bool { return eq(l[t2a], r[t1a]) })
		return groupBy(j, []int{t2d, 2 + t1c}, func(g []schema.Row) schema.Row {
			return schema.Row{g[0][t2d], g[0][2+t1c], num(int64(len(g))), sum(nonNull(g, 2+t1b))}
		})
	}},
	// An explicit inner join also builds on the smaller (left) input,
	// here under a residual ON conjunct.
	{sql: "SELECT t3.e, t1.b FROM t3 JOIN t1 ON t3.a = t1.a AND t1.b < t3.e", want: func(m *modelData) []schema.Row {
		j := inner(m.t3, m.t1, func(l, r schema.Row) bool { return eq(l[t3a], r[t1a]) && lt(r[t1b], l[t3e]) })
		return project(j, t3e, 2+t1b)
	}},
	// DISTINCT over the streaming join.
	{sql: "SELECT DISTINCT t1.c, t2.d FROM t1, t2 WHERE t1.a = t2.a AND t1.b < t2.d", want: func(m *modelData) []schema.Row {
		j := where(t1t2(m), func(r schema.Row) bool { return lt(r[t1b], r[3+t2d]) })
		return distinct(project(j, t1c, 3+t2d))
	}},
	// Float join keys: -0.0 matches +0.0, NaN has no partner in t2, and
	// NULL never joins.
	{sql: "SELECT t1.a, t1.b, t2.a FROM t1, t2 WHERE t1.b = t2.d AND t1.a < 10", want: func(m *modelData) []schema.Row {
		left := where(m.t1, func(r schema.Row) bool { return lt(r[t1a], num(10)) })
		j := inner(left, m.t2, func(l, r schema.Row) bool { return eq(l[t1b], r[t2d]) })
		return project(j, t1a, t1b, 3+t2a)
	}},
	// Float group keys: one NULL group, one NaN group, one zero group.
	{sql: "SELECT b, COUNT(*), SUM(a) FROM t1 GROUP BY b", want: func(m *modelData) []schema.Row {
		return groupBy(m.t1, []int{t1b}, func(g []schema.Row) schema.Row {
			return schema.Row{g[0][t1b], num(int64(len(g))), sum(nonNull(g, t1a))}
		})
	}},
	{sql: "SELECT c, COUNT(b), COUNT(DISTINCT b), MAX(b) FROM t1 GROUP BY c", want: func(m *modelData) []schema.Row {
		return groupBy(m.t1, []int{t1c}, func(g []schema.Row) schema.Row {
			b := nonNull(g, t1b)
			return schema.Row{g[0][t1c], count(b), countDistinct(b), extreme(b, 1)}
		})
	}},
	// A global aggregate over no rows still yields one row.
	{sql: "SELECT COUNT(*), COUNT(b), SUM(b), MIN(a) FROM t1 WHERE a > 1000", want: func(m *modelData) []schema.Row {
		return []schema.Row{{num(0), num(0), value.Null, value.Null}}
	}},
	// Three tables over planRowsMin with no edge between the first two:
	// the cost planner reorders the joins, and the last one writes the
	// FROM-list column order.
	{sql: "SELECT t1.c, t2.d, t3.e FROM t1, t2, t3 WHERE t1.a = t3.a AND t2.a = t3.a AND t3.e < 2", want: func(m *modelData) []schema.Row {
		t3 := where(m.t3, func(r schema.Row) bool { return lt(r[t3e], num(2)) })
		j := inner(t1t2(m), t3, func(l, r schema.Row) bool { return eq(l[t1a], r[t3a]) && eq(l[3+t2a], r[t3a]) })
		return project(j, t1c, 3+t2d, 5+t3e)
	}},
	// The planner joins t3, then t2, then t1; the last join streams
	// each row in FROM-list column order into the filter on t1.b <
	// t2.d, which spans two tables and passes the volatile rows on in
	// place. Every consumer that retains rows must copy them.
	{sql: "SELECT t1.c, t2.d, t3.e, t1.b" + reorderedJoin, want: func(m *modelData) []schema.Row {
		return project(t1t2t3(m), t1c, 3+t2d, 5+t3e, t1b)
	}},
	{sql: "SELECT DISTINCT t1.c, t3.e" + reorderedJoin, want: func(m *modelData) []schema.Row {
		return distinct(project(t1t2t3(m), t1c, 5+t3e))
	}},
	// Group keys with many values, so some group's first row lands in
	// the join's recycled block.
	{sql: "SELECT t1.a, t3.e, COUNT(DISTINCT t2.d), COUNT(*)" + reorderedJoin + " GROUP BY t1.a, t3.e", want: func(m *modelData) []schema.Row {
		return groupBy(t1t2t3(m), []int{t1a, 5 + t3e}, func(g []schema.Row) schema.Row {
			return schema.Row{g[0][t1a], g[0][5+t3e], countDistinct(nonNull(g, 3+t2d)), num(int64(len(g)))}
		})
	}},
	// ORDER BY columns the projection drops: the streamed rows are
	// materialized and sorted before projection.
	{sql: "SELECT t1.c, t3.e" + reorderedJoin + " ORDER BY t3.e DESC, t1.a, t1.b, t2.d, t1.c", ordered: true, want: func(m *modelData) []schema.Row {
		rows := orderBy(t1t2t3(m), sortKey{col: 5 + t3e, desc: true}, sortKey{col: t1a}, sortKey{col: t1b}, sortKey{col: 3 + t2d}, sortKey{col: t1c})
		return project(rows, t1c, 5+t3e)
	}},
	// A two-table streaming join under a residual filter feeds GROUP BY.
	{sql: "SELECT t1.a, COUNT(*), SUM(t2.d), COUNT(DISTINCT t1.c)" + filteredJoin + " GROUP BY t1.a", want: func(m *modelData) []schema.Row {
		j := where(t1t2(m), func(r schema.Row) bool { return lt(r[t1b], r[3+t2d]) })
		return groupBy(j, []int{t1a}, func(g []schema.Row) schema.Row {
			return schema.Row{g[0][t1a], num(int64(len(g))), sum(nonNull(g, 3+t2d)), countDistinct(nonNull(g, t1c))}
		})
	}},
	// LEFT JOIN with a residual ON conjunct: a left row whose equi
	// partners all fail the residual is padded, not dropped.
	{sql: "SELECT t1.a, t1.b, t2.d FROM t1 LEFT JOIN t2 ON t1.a = t2.a AND t2.d > t1.b WHERE t1.a < 40", want: func(m *modelData) []schema.Row {
		j := join(m.t1, m.t2, 2, true, func(l, r schema.Row) bool { return eq(l[t1a], r[t2a]) && gt(r[t2d], l[t1b]) })
		return project(where(j, func(r schema.Row) bool { return lt(r[t1a], num(40)) }), t1a, t1b, 3+t2d)
	}},
	{sql: "SELECT a FROM t1 EXCEPT SELECT a FROM t2", want: func(m *modelData) []schema.Row {
		return setOp("EXCEPT", project(m.t1, t1a), project(m.t2, t2a))
	}},
	{sql: "SELECT a FROM t1 INTERSECT SELECT a FROM t2", want: func(m *modelData) []schema.Row {
		return setOp("INTERSECT", project(m.t1, t1a), project(m.t2, t2a))
	}},
	// Every number in t1.b also occurs in t2.d (±0.0 included), so only
	// NULL and NaN survive.
	{sql: "SELECT b FROM t1 EXCEPT SELECT d FROM t2", want: func(m *modelData) []schema.Row {
		return setOp("EXCEPT", project(m.t1, t1b), project(m.t2, t2d))
	}},
	{sql: "SELECT a, c FROM t1 WHERE a IN (SELECT a FROM t3 WHERE e = 0)", want: func(m *modelData) []schema.Row {
		sub := where(m.t3, func(r schema.Row) bool { return eq(r[t3e], num(0)) })
		return project(where(m.t1, func(l schema.Row) bool {
			for _, r := range sub {
				if eq(l[t1a], r[t3a]) {
					return true
				}
			}
			return false
		}), t1a, t1c)
	}},
	// No equi key: a Cartesian product under a residual filter.
	{sql: "SELECT t2.a, t2.d, t3.e FROM t2, t3 WHERE t2.d > t3.e AND t3.a < 20", want: func(m *modelData) []schema.Row {
		j := inner(m.t2, m.t3, func(l, r schema.Row) bool { return gt(l[t2d], r[t3e]) && lt(r[t3a], num(20)) })
		return project(j, t2a, t2d, 2+t3e)
	}},
	// ORDER BY columns the projection drops: the input sorts first.
	{sql: "SELECT c FROM t1 WHERE a < 50 ORDER BY a DESC, b, c", ordered: true, want: func(m *modelData) []schema.Row {
		rows := where(m.t1, func(r schema.Row) bool { return lt(r[t1a], num(50)) })
		return project(orderBy(rows, sortKey{col: t1a, desc: true}, sortKey{col: t1b}, sortKey{col: t1c}), t1c)
	}},
}
