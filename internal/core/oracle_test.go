package core_test

import (
	"context"
	"database/sql"
	"fmt"
	"math/rand"
	"net"
	"os"
	"sort"
	"strconv"
	"strings"
	"testing"

	_ "minerule/driver"
	"minerule/internal/core"
	"minerule/internal/kernel/translator"
	"minerule/internal/minerule/ast"
	mrparse "minerule/internal/minerule/parse"
	"minerule/internal/server"
	"minerule/internal/sql/engine"
	"minerule/internal/sql/parse"
	"minerule/internal/sql/schema"
	"minerule/internal/sql/value"
)

// TestMineMatchesOracle checks the whole kernel against the semantics
// oracle (oracle_eval_test.go). For each of the 2^8 settings of the
// classification variables H W M G C K F R it writes seeded MINE RULE
// statements over small generated tables, renders them with
// ast.Statement.SQL() and has the translator classify them. The
// settings it accepts must be exactly those with K ⇒ C, F ⇒ K and
// R ⇒ G, and each of them is mined: the simple class by the apriori
// and bitmap pool members, the general class by the rule lattice. The
// decoded rules of every run must equal the oracle's, measures
// included. Thresholds are drawn from the oracle's own rules, so
// supports and confidences sit exactly at the threshold.
//
// The seeds are 1–8 unless MINE_ORACLE_SEED names one.
func TestMineMatchesOracle(t *testing.T) {
	seeds := oracleSeeds(t)
	type coverage struct{ stmts, nonEmpty, rules int }
	cov := make(map[translator.Class]*coverage)
	rejected := make(map[string]int)
	failures := 0
	for _, seed := range seeds {
		db, from := oracleDB(t, seed)
		rng := rand.New(rand.NewSource(seed))
		for _, cls := range allClasses() {
			for i := 0; i < 2; i++ {
				st, o := genOracleCase(rng, cls, from)
				text := st.SQL()
				if got, err := classify(db, text); err != nil || got != cls {
					if wellFormed(cls) {
						t.Errorf("seed %d, class %s: the translator returns %s, %v for\n%s", seed, cls, got, err, text)
					} else if i == 0 && seed == seeds[0] {
						rejected[rejection(cls)]++
					}
					break
				}
				c := cov[cls]
				if c == nil {
					c = &coverage{}
					cov[cls] = c
				}
				want := ruleStrings(o.rules())
				c.stmts++
				c.rules += len(want)
				if len(want) > 0 {
					c.nonEmpty++
				}
				algos := []core.Algorithm{""}
				if cls.Simple() {
					algos = []core.Algorithm{core.AlgoApriori, core.AlgoBitmap}
				}
				for _, algo := range algos {
					got, err := mineDecoded(db, text, algo, cls)
					if err == nil {
						err = diffRules(got, want)
					}
					if err != nil {
						failures++
						t.Errorf("seed %d, class %s, %q core:\n%s\n%v", seed, cls, algo, text, err)
						if failures >= 5 {
							t.FailNow()
						}
					}
				}
			}
		}
	}

	// The accepted settings are exactly those the implications allow, and
	// each one mined some statement with rules.
	var lines []string
	for _, cls := range allClasses() {
		c, ok := cov[cls]
		if ok != wellFormed(cls) {
			t.Errorf("class %s: accepted=%v, want %v", cls, ok, wellFormed(cls))
			continue
		}
		if !ok {
			continue
		}
		if c.nonEmpty == 0 {
			t.Errorf("class %s: no statement with rules among %d", cls, c.stmts)
		}
		lines = append(lines, fmt.Sprintf("%-19s simple=%-5v stmts=%-3d with-rules=%-3d rules=%d",
			cls, cls.Simple(), c.stmts, c.nonEmpty, c.rules))
	}
	var why []string
	for r, n := range rejected {
		why = append(why, fmt.Sprintf("%d %s", n, r))
	}
	sort.Strings(why)
	t.Logf("the translator accepts %d of the 256 settings; rejected: %s\n%s",
		len(lines), strings.Join(why, ", "), strings.Join(lines, "\n"))
}

// oracleSeeds are the data and statement seeds: 1–8, or the one
// MINE_ORACLE_SEED names.
func oracleSeeds(t *testing.T) []int64 {
	seeds := []int64{1, 2, 3, 4, 5, 6, 7, 8}
	if s := os.Getenv("MINE_ORACLE_SEED"); s != "" {
		v, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			t.Fatalf("MINE_ORACLE_SEED=%q: %v", s, err)
		}
		seeds = []int64{v}
	}
	t.Logf("seeds %v (rerun one with MINE_ORACLE_SEED=<seed>)", seeds)
	return seeds
}

// TestMineMatchesOracleThroughDriver runs a slice of the generated
// statements through an in-process server and the database/sql driver,
// parses the rendered {a/b, c} sides back, and compares them with the
// oracle: the remote path checked against something other than itself.
// It uses the first oracle seed.
func TestMineMatchesOracleThroughDriver(t *testing.T) {
	seed := oracleSeeds(t)[0]
	db, from := oracleDB(t, seed)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- server.New(db, server.Config{}).Serve(ctx, ln) }()
	remote, err := sql.Open("minerule", "tcp://"+ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		remote.Close()
		cancel()
		if err := <-done; err != nil {
			t.Errorf("serve: %v", err)
		}
	})

	rng := rand.New(rand.NewSource(seed))
	ran := 0
	for i, cls := range allClasses() {
		if !wellFormed(cls) || i%3 != 0 {
			continue
		}
		st, o := genOracleCase(rng, cls, from)
		text := st.SQL()
		got, err := mineRemote(remote, text)
		if err == nil {
			err = diffRules(got, ruleStrings(o.rules()))
		}
		if err != nil {
			t.Errorf("class %s:\n%s\n%v", cls, text, err)
		}
		ran++
	}
	t.Logf("%d statements through the driver", ran)
}

// ---------------------------------------------------------------------------
// Running the kernel

// classify parses and translates text, returning the translator's class.
func classify(db *engine.Database, text string) (translator.Class, error) {
	st, err := mrparse.Parse(text)
	if err != nil {
		return translator.Class{}, err
	}
	tr, err := translator.Translate(db, st)
	if err != nil {
		return translator.Class{}, err
	}
	return tr.Class, nil
}

// mineDecoded mines text with one core and returns the decoded rules.
func mineDecoded(db *engine.Database, text string, algo core.Algorithm, cls translator.Class) ([]string, error) {
	res, err := core.Mine(db, text, core.Options{Algorithm: algo, ReplaceOutput: true})
	if err != nil {
		return nil, err
	}
	wantCore := "rule-lattice"
	switch {
	case cls.Simple() && algo == "":
		wantCore = string(core.AlgoBitmap)
	case cls.Simple():
		wantCore = string(algo)
	}
	if res.Algorithm != wantCore {
		return nil, fmt.Errorf("ran core %q, want %q", res.Algorithm, wantCore)
	}
	rules, err := core.ReadRules(db, res)
	if err != nil {
		return nil, err
	}
	out := make([]string, len(rules))
	for i, r := range rules {
		out[i] = oRule{body: sortSide(r.Body), head: sortSide(r.Head), support: r.Support, confidence: r.Confidence}.String()
	}
	sort.Strings(out)
	return out, nil
}

// mineRemote mines text over the driver and parses the rule rows back.
func mineRemote(db *sql.DB, text string) ([]string, error) {
	rows, err := db.Query(text)
	if err != nil {
		return nil, err
	}
	defer rows.Close()
	var out []string
	for rows.Next() {
		var body, head string
		var r oRule
		if err := rows.Scan(&body, &head, &r.support, &r.confidence); err != nil {
			return nil, err
		}
		if r.body, err = parseSide(body); err != nil {
			return nil, err
		}
		if r.head, err = parseSide(head); err != nil {
			return nil, err
		}
		out = append(out, r.String())
	}
	sort.Strings(out)
	return out, rows.Err()
}

// parseSide reads a rendered rule side, {a/x, b/y}, back into tuples.
func parseSide(s string) ([][]string, error) {
	if !strings.HasPrefix(s, "{") || !strings.HasSuffix(s, "}") {
		return nil, fmt.Errorf("rule side %q is not {…}", s)
	}
	var side [][]string
	for _, el := range strings.Split(s[1:len(s)-1], ", ") {
		side = append(side, strings.Split(el, "/"))
	}
	return sortSide(side), nil
}

func sortSide(side [][]string) [][]string {
	out := append([][]string(nil), side...)
	sort.Slice(out, func(i, j int) bool { return strings.Join(out[i], "/") < strings.Join(out[j], "/") })
	return out
}

func ruleStrings(rules []oRule) []string {
	out := make([]string, len(rules))
	for i, r := range rules {
		out[i] = r.String()
	}
	sort.Strings(out)
	return out
}

// diffRules lists the rules only one side has.
func diffRules(got, want []string) error {
	in := func(list []string) map[string]bool {
		m := make(map[string]bool, len(list))
		for _, s := range list {
			m[s] = true
		}
		return m
	}
	g, w := in(got), in(want)
	var msg []string
	for _, s := range want {
		if !g[s] {
			msg = append(msg, "  missing "+s)
		}
	}
	for _, s := range got {
		if !w[s] {
			msg = append(msg, "  extra   "+s)
		}
	}
	if len(msg) == 0 && len(got) == len(want) {
		return nil
	}
	return fmt.Errorf("kernel %d rule(s), oracle %d:\n%s", len(got), len(want), strings.Join(msg, "\n"))
}

// ---------------------------------------------------------------------------
// Classes

// allClasses lists the 2^8 settings of H W M G C K F R.
func allClasses() []translator.Class {
	out := make([]translator.Class, 256)
	for m := range out {
		bit := func(i int) bool { return m&(1<<i) != 0 }
		out[m] = translator.Class{H: bit(7), W: bit(6), M: bit(5), G: bit(4), C: bit(3), K: bit(2), F: bit(1), R: bit(0)}
	}
	return out
}

// wellFormed reports whether a statement can have the class: a cluster
// HAVING needs CLUSTER BY, cluster aggregates need a cluster HAVING and
// group aggregates a group HAVING.
func wellFormed(c translator.Class) bool { return (!c.K || c.C) && (!c.F || c.K) && (!c.R || c.G) }

// rejection names the implication an ill-formed class breaks.
func rejection(c translator.Class) string {
	switch {
	case c.K && !c.C:
		return "K without C"
	case c.F && !c.K:
		return "F without K"
	default:
		return "R without G"
	}
}

// ---------------------------------------------------------------------------
// Data

// oracleDB loads the generated tables T and Cat into a fresh engine and
// returns them as the oracle's FROM tables. T has at most 12 groups
// (one of them may be NULL) and 6 items, with NULLs in every column,
// duplicate rows, and items sold on both sides of the price conditions.
// Cat maps items to categories for the statements that join; one item
// has two categories and one has none.
func oracleDB(t *testing.T, seed int64) (*engine.Database, map[string]oTable) {
	t.Helper()
	db := engine.New()
	t.Cleanup(func() { db.Close() })
	if err := db.ExecScript(`
		CREATE TABLE T (g INTEGER, c INTEGER, item VARCHAR, color VARCHAR, price INTEGER, qty INTEGER);
		CREATE TABLE Cat (citem VARCHAR, cat VARCHAR);`); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	maybe := func(v value.Value, oneIn int) value.Value {
		if rng.Intn(oneIn) == 0 {
			return value.Null
		}
		return v
	}
	pick := func(vals ...string) value.Value { return value.NewString(vals[rng.Intn(len(vals))]) }
	prices := []int64{10, 20, 50, 80, 120}
	var rows []schema.Row
	groups := 3 + rng.Intn(9)
	for g := 1; g <= groups+1; g++ {
		gv := value.NewInt(int64(g))
		if g > groups {
			if rng.Intn(2) == 0 {
				break
			}
			gv = value.Null // the NULL group
		}
		var prev schema.Row
		for n := 1 + rng.Intn(6); n > 0; n-- {
			if prev != nil && rng.Intn(6) == 0 {
				rows = append(rows, prev) // a duplicate row
				continue
			}
			prev = schema.Row{
				gv,
				maybe(value.NewInt(int64(1+rng.Intn(3))), 12),
				maybe(pick("a", "b", "c", "d", "e", "f"), 12),
				maybe(pick("red", "blue", "green"), 10),
				maybe(value.NewInt(prices[rng.Intn(len(prices))]), 8),
				maybe(value.NewInt(int64(1+rng.Intn(3))), 8),
			}
			rows = append(rows, prev)
		}
	}
	cat := []schema.Row{
		{value.NewString("a"), value.NewString("x")},
		{value.NewString("b"), value.NewString("x")},
		{value.NewString("c"), value.NewString("y")},
		{value.NewString("d"), value.NewString("y")},
		{value.NewString("e"), value.NewString("z")},
		{value.NewString("a"), pick("y", "z")},
		{value.NewString("b"), value.Null},
	}
	c := db.Conn()
	defer c.Close()
	for name, rs := range map[string][]schema.Row{"T": rows, "Cat": cat} {
		if err := c.AppendRows(context.Background(), name, rs); err != nil {
			t.Fatal(err)
		}
	}
	return db, map[string]oTable{
		"T":   {cols: []string{"g", "c", "item", "color", "price", "qty"}, rows: rows},
		"Cat": {cols: []string{"citem", "cat"}, rows: cat},
	}
}

// ---------------------------------------------------------------------------
// Statements

// Each condition template pairs its SQL with the Go predicate the
// oracle evaluates.

type rowCond struct {
	sql  string
	pred func(r oRow) bool
}

type groupCond struct {
	sql  string
	agg  bool
	pred func(rows []oRow) bool
}

type clusterCond struct {
	sql  string
	agg  bool
	pred func(body, head []oRow) bool
}

type mineCond struct {
	sql  string
	pred func(body, head oRow) bool
}

var sourceConds = []rowCond{
	{"price >= 20", func(r oRow) bool { return is(r["price"], ">=", iv(20)) }},
	{"qty <> 2", func(r oRow) bool { return is(r["qty"], "<>", iv(2)) }},
	{"price IS NOT NULL OR qty > 1", func(r oRow) bool { return !r["price"].IsNull() || is(r["qty"], ">", iv(1)) }},
	{"c <> 2 AND item <> 'f'", func(r oRow) bool { return is(r["c"], "<>", iv(2)) && is(r["item"], "<>", sv("f")) }},
}

// joinCond joins T to Cat; an extra source condition may follow it.
var joinCond = rowCond{"item = citem", func(r oRow) bool { return is(r["item"], "=", r["citem"]) }}

var groupConds = []groupCond{
	{"g <> 3", false, func(rs []oRow) bool { return is(rs[0]["g"], "<>", iv(3)) }},
	{"g BETWEEN 2 AND 8", false, func(rs []oRow) bool { return is(rs[0]["g"], ">=", iv(2)) && is(rs[0]["g"], "<=", iv(8)) }},
	{"g IN (1, 2, 4, 5, 7)", false, func(rs []oRow) bool {
		for _, v := range []int64{1, 2, 4, 5, 7} {
			if is(rs[0]["g"], "=", iv(v)) {
				return true
			}
		}
		return false
	}},
	{"COUNT(*) >= 3", true, func(rs []oRow) bool { return len(rs) >= 3 }},
	{"SUM(qty) > 4", true, func(rs []oRow) bool { return is(agg("SUM", rs, "qty"), ">", iv(4)) }},
	{"MAX(price) >= 80 OR g = 1", true, func(rs []oRow) bool {
		return is(agg("MAX", rs, "price"), ">=", iv(80)) || is(rs[0]["g"], "=", iv(1))
	}},
	{"COUNT(price) >= 2 AND g <> 5", true, func(rs []oRow) bool {
		return is(agg("COUNT", rs, "price"), ">=", iv(2)) && is(rs[0]["g"], "<>", iv(5))
	}},
}

var clusterConds = []clusterCond{
	{"BODY.c < HEAD.c", false, func(b, h []oRow) bool { return is(b[0]["c"], "<", h[0]["c"]) }},
	{"BODY.c <> HEAD.c", false, func(b, h []oRow) bool { return is(b[0]["c"], "<>", h[0]["c"]) }},
	{"BODY.c <= HEAD.c", false, func(b, h []oRow) bool { return is(b[0]["c"], "<=", h[0]["c"]) }},
	{"BODY.c + 1 = HEAD.c", false, func(b, h []oRow) bool { return is(plus(b[0]["c"], iv(1)), "=", h[0]["c"]) }},
	{"COUNT(BODY.item) >= 2", true, func(b, h []oRow) bool { return is(agg("COUNT", b, "item"), ">=", iv(2)) }},
	{"SUM(HEAD.qty) > 2 AND BODY.c < HEAD.c", true, func(b, h []oRow) bool {
		return is(agg("SUM", h, "qty"), ">", iv(2)) && is(b[0]["c"], "<", h[0]["c"])
	}},
	{"MAX(BODY.price) > MIN(HEAD.price)", true, func(b, h []oRow) bool {
		return is(agg("MAX", b, "price"), ">", agg("MIN", h, "price"))
	}},
	{"COUNT(BODY.price) <= COUNT(HEAD.price)", true, func(b, h []oRow) bool {
		return is(agg("COUNT", b, "price"), "<=", agg("COUNT", h, "price"))
	}},
}

var mineConds = []mineCond{
	{"BODY.price >= 50 AND HEAD.price < 50", func(b, h oRow) bool { return is(b["price"], ">=", iv(50)) && is(h["price"], "<", iv(50)) }},
	{"BODY.price > HEAD.price", func(b, h oRow) bool { return is(b["price"], ">", h["price"]) }},
	{"BODY.qty <> HEAD.qty", func(b, h oRow) bool { return is(b["qty"], "<>", h["qty"]) }},
	{"BODY.qty + HEAD.qty >= 4", func(b, h oRow) bool { return is(plus(b["qty"], h["qty"]), ">=", iv(4)) }},
	{"BODY.item < HEAD.item", func(b, h oRow) bool { return is(b["item"], "<", h["item"]) }},
	{"HEAD.price IS NULL OR BODY.price <= HEAD.price", func(b, h oRow) bool {
		return h["price"].IsNull() || is(b["price"], "<=", h["price"])
	}},
}

// Element attribute choices: body and head on one attribute set (¬H,
// once in a different order) or on two (H); the cat choices need the
// join to Cat.
var (
	sharedSides     = [][2][]string{{{"item"}, {"item"}}, {{"item", "color"}, {"color", "item"}}, {{"color"}, {"color"}}}
	sharedJoinSides = [][2][]string{{{"cat"}, {"cat"}}}
	splitSides      = [][2][]string{{{"item"}, {"color"}}, {{"color"}, {"item"}}, {{"item"}, {"item", "color"}}, {{"item", "color"}, {"color"}}}
	splitJoinSides  = [][2][]string{{{"item"}, {"cat"}}, {{"cat"}, {"item"}}}
	bodyCards       = []ast.CardSpec{{Min: 1}, {Min: 1}, {Min: 1, Max: 1}, {Min: 1, Max: 2}, {Min: 2}, {Min: 2, Max: 2}}
	headCards       = []ast.CardSpec{{Min: 1, Max: 1}, {Min: 1, Max: 1}, {Min: 1}, {Min: 1, Max: 2}, {Min: 2, Max: 2}}
)

// genOracleCase writes a statement of class cls over T (and Cat) as an
// AST, with the oracle's reading of it. A class that breaks one of the
// implications yields the nearest statement the grammar can express,
// which the translator then classifies differently. Of up to sixteen
// drafts it keeps the first with rules at zero thresholds, then draws
// the thresholds from one of those rules: the support is the rule's
// own or half a group below it, the confidence the rule's own, a hair
// below it, or zero.
func genOracleCase(rng *rand.Rand, cls translator.Class, from map[string]oTable) (*ast.Statement, *oStmt) {
	st, o := draftCase(rng, cls, from)
	if !wellFormed(cls) {
		return st, o // for the translator to reject
	}
	all := o.rules()
	for try := 1; try < 16 && len(all) == 0; try++ {
		st, o = draftCase(rng, cls, from)
		all = o.rules()
	}
	if len(all) > 0 {
		r := all[rng.Intn(len(all))]
		o.minSupport = r.support
		if rng.Intn(4) == 0 {
			o.minSupport = (float64(r.count) - 0.5) * r.support / float64(r.count)
		}
		switch rng.Intn(4) {
		case 0, 1:
			o.minConf = r.confidence
		case 2:
			o.minConf = r.confidence - 0.001
		}
	}
	st.MinSupport, st.MinConfidence = o.minSupport, o.minConf
	return st, o
}

// draftCase writes one statement of class cls with zero thresholds.
func draftCase(rng *rand.Rand, cls translator.Class, from map[string]oTable) (*ast.Statement, *oStmt) {
	st := &ast.Statement{
		Output:         "OracleOut",
		WantSupport:    true,
		WantConfidence: true,
		From:           []parse.TableRef{{Name: "T"}},
		GroupAttrs:     []string{"g"},
	}
	o := &oStmt{from: []oTable{from["T"]}, groupAttrs: st.GroupAttrs}

	join := cls.W && rng.Intn(2) == 0
	if cls.W {
		var src []rowCond
		if join {
			st.From = append(st.From, parse.TableRef{Name: "Cat"})
			o.from = append(o.from, from["Cat"])
			src = append(src, joinCond)
		}
		if !join || rng.Intn(2) == 0 {
			src = append(src, sourceConds[rng.Intn(len(sourceConds))])
		}
		st.SourceCond = mustExpr(joinSQL(src))
		o.sourceCond = func(r oRow) bool {
			for _, c := range src {
				if !c.pred(r) {
					return false
				}
			}
			return true
		}
	}

	sides := sharedSides
	if cls.H {
		sides = splitSides
	}
	if join {
		if cls.H {
			sides = append(append([][2][]string(nil), sides...), splitJoinSides...)
		} else {
			sides = append(append([][2][]string(nil), sides...), sharedJoinSides...)
		}
	}
	s := sides[rng.Intn(len(sides))]
	st.Body = ast.ElementDescr{Card: bodyCards[rng.Intn(len(bodyCards))], Attrs: s[0]}
	st.Head = ast.ElementDescr{Card: headCards[rng.Intn(len(headCards))], Attrs: s[1]}
	o.body, o.head = s[0], s[1]
	o.bodyCard = oCard{st.Body.Card.Min, st.Body.Card.Max}
	o.headCard = oCard{st.Head.Card.Min, st.Head.Card.Max}

	if cls.M {
		m := mineConds[rng.Intn(len(mineConds))]
		st.MiningCond = mustExpr(m.sql)
		o.mineCond = m.pred
	}
	if cls.G {
		g := pickGroupCond(rng, cls.R)
		st.GroupCond = mustExpr(g.sql)
		o.groupCond = g.pred
	}
	if cls.C {
		st.ClusterAttrs = []string{"c"}
		o.clusterAttrs = st.ClusterAttrs
	}
	if cls.K {
		k := pickClusterCond(rng, cls.F)
		st.ClusterCond = mustExpr(k.sql)
		if cls.C {
			o.clusterCond = k.pred
		}
	}
	return st, o
}

func pickGroupCond(rng *rand.Rand, agg bool) groupCond {
	for {
		if c := groupConds[rng.Intn(len(groupConds))]; c.agg == agg {
			return c
		}
	}
}

func pickClusterCond(rng *rand.Rand, agg bool) clusterCond {
	for {
		if c := clusterConds[rng.Intn(len(clusterConds))]; c.agg == agg {
			return c
		}
	}
}

func joinSQL(conds []rowCond) string {
	parts := make([]string, len(conds))
	for i, c := range conds {
		parts[i] = "(" + c.sql + ")"
	}
	return strings.Join(parts, " AND ")
}

func mustExpr(src string) parse.Expr {
	e, err := parse.ParseExpr(src)
	if err != nil {
		panic(fmt.Sprintf("%s: %v", src, err))
	}
	return e
}

// ---------------------------------------------------------------------------
// Predicate helpers: SQL's TRUE-only reading of comparisons, arithmetic
// and aggregates over NULL.

func iv(i int64) value.Value  { return value.NewInt(i) }
func sv(s string) value.Value { return value.NewString(s) }

// is reports whether "a op b" is TRUE; a NULL side makes it UNKNOWN.
func is(a value.Value, op string, b value.Value) bool {
	if a.IsNull() || b.IsNull() {
		return false
	}
	c, err := value.Compare(a, b)
	if err != nil {
		panic(err)
	}
	switch op {
	case "<":
		return c < 0
	case "<=":
		return c <= 0
	case "=":
		return c == 0
	case "<>":
		return c != 0
	case ">=":
		return c >= 0
	case ">":
		return c > 0
	}
	panic(op)
}

// plus is integer addition; NULL when a side is.
func plus(a, b value.Value) value.Value {
	if a.IsNull() || b.IsNull() {
		return value.Null
	}
	return iv(a.Int() + b.Int())
}

// agg computes COUNT, SUM, MIN or MAX of col over rows, skipping NULLs:
// COUNT of none is 0, the others NULL.
func agg(fn string, rows []oRow, col string) value.Value {
	out := value.Null
	n := int64(0)
	for _, r := range rows {
		v := r[col]
		if v.IsNull() {
			continue
		}
		n++
		switch {
		case out.IsNull():
			out = v
		case fn == "SUM":
			out = iv(out.Int() + v.Int())
		case fn == "MIN" && is(v, "<", out), fn == "MAX" && is(v, ">", out):
			out = v
		}
	}
	if fn == "COUNT" {
		return iv(n)
	}
	return out
}
