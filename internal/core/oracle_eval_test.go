package core_test

import (
	"fmt"
	"sort"
	"strings"

	"minerule/internal/sql/schema"
	"minerule/internal/sql/value"
)

// This file is the MINE RULE semantics oracle: paper §2 (DESIGN §4)
// read directly in plain Go. It imports only the value and schema
// packages and shares no code with the translator, the preprocessing
// SQL, the cores or the postprocessor. From the FROM rows alone it
// computes the decoded rules a statement must produce, in this order:
//
//  1. the FROM rows (the product of the FROM tables) under the source
//     condition;
//  2. the groups, and the group HAVING on each group's rows;
//  3. the clusters of each valid group, and the valid (body cluster,
//     head cluster) pairs: the cluster itself without CLUSTER BY, every
//     ordered pair without a cluster HAVING, else the pairs it holds on;
//  4. the elementary pairs (b, h) of each context (g, cb, ch): a row of
//     cb with body element b and a row of ch with head element h on
//     which the mining condition holds (b ≠ h when body and head share
//     their attributes);
//  5. B⇒H holds in a context iff every (b, h) ∈ B×H is elementary
//     there, within the cardinality bounds. Support is the number of
//     groups with such a context over totg; confidence divides that
//     number by the groups that have one body cluster containing B.
//
// Where §2 is silent the oracle reads SQL, as the paper's programs do.
// A NULL grouping value forms a group (GROUP BY), which counts toward
// totg and is judged by the group HAVING, but `=` never matches NULL,
// so its rows yield no element. A row with a NULL clustering value lies
// in no cluster, and an element whose value tuple has a NULL does not
// exist. Conditions hold only when TRUE (three-valued logic), and
// aggregates see duplicate rows.

// oRow is one FROM row: its values by lower-case column name.
type oRow map[string]value.Value

// oTable is one FROM table: its column names and rows.
type oTable struct {
	cols []string
	rows []schema.Row
}

// oCard is an element cardinality l..u; max 0 is "n".
type oCard struct{ min, max int }

func (c oCard) admits(k int) bool { return k >= c.min && (c.max == 0 || k <= c.max) }

// oStmt is a MINE RULE statement as the oracle reads it: attribute
// names, and Go predicates in place of its SQL conditions. A nil
// condition is an absent clause.
type oStmt struct {
	from         []oTable
	sourceCond   func(r oRow) bool
	groupAttrs   []string
	groupCond    func(rows []oRow) bool
	clusterAttrs []string
	clusterCond  func(body, head []oRow) bool
	mineCond     func(body, head oRow) bool
	body, head   []string
	bodyCard     oCard
	headCard     oCard
	minSupport   float64
	minConf      float64
}

// oRule is one decoded rule: each side's element tuples, rendered and
// sorted, its group count and its measures.
type oRule struct {
	body, head [][]string
	count      int
	support    float64
	confidence float64
}

// String renders the rule as the comparison sees it.
func (r oRule) String() string {
	return fmt.Sprintf("%s => %s (%v, %v)", sideString(r.body), sideString(r.head), r.support, r.confidence)
}

// sideString renders one side as {a/x, b/y}.
func sideString(side [][]string) string {
	parts := make([]string, len(side))
	for i, t := range side {
		parts[i] = strings.Join(t, "/")
	}
	return "{" + strings.Join(parts, ", ") + "}"
}

// oPart is one block of a partition: whether its key has a NULL, and
// its rows.
type oPart struct {
	null bool
	rows []oRow
}

// partition splits rows by their values of attrs, SQL GROUP BY style
// (all NULLs alike), in order of first appearance. No attributes make
// one block.
func partition(rows []oRow, attrs []string) []oPart {
	var parts []oPart
	index := make(map[string]int)
	for _, r := range rows {
		k, null := tupleKey(r, attrs)
		i, ok := index[k]
		if !ok {
			i = len(parts)
			index[k] = i
			parts = append(parts, oPart{null: null})
		}
		parts[i].rows = append(parts[i].rows, r)
	}
	return parts
}

// tupleKey identifies r's values of attrs and reports whether one is
// NULL.
func tupleKey(r oRow, attrs []string) (string, bool) {
	var b strings.Builder
	null := false
	for _, a := range attrs {
		v := r[strings.ToLower(a)]
		if v.IsNull() {
			null = true
			b.WriteString("\x00NULL")
		} else {
			b.WriteString(v.Type().String() + ":" + v.String())
		}
		b.WriteByte('\x1f')
	}
	return b.String(), null
}

// sameAttrs reports whether two attribute lists name one set.
func sameAttrs(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	set := make(map[string]bool, len(a))
	for _, x := range a {
		set[strings.ToLower(x)] = true
	}
	for _, x := range b {
		if !set[strings.ToLower(x)] {
			return false
		}
	}
	return true
}

// rules evaluates the statement.
func (st *oStmt) rules() []oRule {
	// 1. FROM rows and the source condition.
	rows := []oRow{{}}
	for _, t := range st.from {
		var next []oRow
		for _, left := range rows {
			for _, tr := range t.rows {
				r := make(oRow, len(left)+len(t.cols))
				for k, v := range left {
					r[k] = v
				}
				for i, c := range t.cols {
					r[strings.ToLower(c)] = tr[i]
				}
				next = append(next, r)
			}
		}
		rows = next
	}
	var src []oRow
	for _, r := range rows {
		if st.sourceCond == nil || st.sourceCond(r) {
			src = append(src, r)
		}
	}

	// An element is identified by its values in the body's attribute
	// order when body and head share their attributes, so b ≠ h compares
	// like with like; each side renders in its own order.
	shared := sameAttrs(st.body, st.head)
	headID := st.head
	if shared {
		headID = st.body
	}
	tuples := [2]map[string][]string{{}, {}}
	element := func(r oRow, side int) (string, bool) {
		attrs, id := st.body, st.body
		if side == 1 {
			attrs, id = st.head, headID
		}
		k, null := tupleKey(r, id)
		if null {
			return "", false
		}
		if _, ok := tuples[side][k]; !ok {
			t := make([]string, len(attrs))
			for i, a := range attrs {
				t[i] = r[strings.ToLower(a)].String()
			}
			tuples[side][k] = t
		}
		return k, true
	}

	// 2. Groups and the group HAVING.
	groups := partition(src, st.groupAttrs)
	totg := len(groups)

	type side struct{ body, head []string }
	ruleOf := make(map[string]side)
	holds := make(map[string]int)         // rule → groups where it holds
	bodyClusters := [][]map[string]bool{} // per valid group, per cluster: its body elements
	for _, g := range groups {
		if g.null || (st.groupCond != nil && !st.groupCond(g.rows)) {
			continue
		}
		// 3. Clusters and the valid pairs.
		var clusters [][]oRow
		for _, c := range partition(g.rows, st.clusterAttrs) {
			if !c.null {
				clusters = append(clusters, c.rows)
			}
		}
		var pairs [][2]int
		for b := range clusters {
			for h := range clusters {
				switch {
				case len(st.clusterAttrs) == 0 && b != h:
				case st.clusterCond != nil && !st.clusterCond(clusters[b], clusters[h]):
				default:
					pairs = append(pairs, [2]int{b, h})
				}
			}
		}
		var bc []map[string]bool
		for _, c := range clusters {
			m := make(map[string]bool)
			for _, r := range c {
				if k, ok := element(r, 0); ok {
					m[k] = true
				}
			}
			bc = append(bc, m)
		}
		bodyClusters = append(bodyClusters, bc)

		// 4. Elementary pairs of each context, and 5. the rules holding
		// there.
		inGroup := make(map[string]bool)
		for _, p := range pairs {
			elem := make(map[[2]string]bool)
			var bodies, heads []string
			for _, r1 := range clusters[p[0]] {
				b, ok := element(r1, 0)
				if !ok {
					continue
				}
				for _, r2 := range clusters[p[1]] {
					h, ok := element(r2, 1)
					if !ok || (shared && b == h) || (st.mineCond != nil && !st.mineCond(r1, r2)) {
						continue
					}
					elem[[2]string{b, h}] = true
					bodies = append(bodies, b)
					heads = append(heads, h)
				}
			}
			for _, bs := range subsetsOf(bodies, st.bodyCard) {
			nextHead:
				for _, hs := range subsetsOf(heads, st.headCard) {
					for _, b := range bs {
						for _, h := range hs {
							if !elem[[2]string{b, h}] {
								continue nextHead
							}
						}
					}
					k := strings.Join(bs, "\x1e") + "\x1d" + strings.Join(hs, "\x1e")
					ruleOf[k] = side{bs, hs}
					inGroup[k] = true
				}
			}
		}
		for k := range inGroup {
			holds[k]++
		}
	}

	keys := make([]string, 0, len(holds))
	for k := range holds {
		keys = append(keys, k)
	}
	sort.Strings(keys) // a deterministic order for the generator's draws
	var out []oRule
	for _, k := range keys {
		count := holds[k]
		support := float64(count) / float64(totg)
		if support < st.minSupport {
			continue
		}
		r := ruleOf[k]
		bodyCount := 0
		for _, bc := range bodyClusters {
			for _, m := range bc {
				if containsEvery(m, r.body) {
					bodyCount++
					break
				}
			}
		}
		conf := float64(count) / float64(bodyCount)
		if conf < st.minConf {
			continue
		}
		out = append(out, oRule{
			body:       render(tuples[0], r.body),
			head:       render(tuples[1], r.head),
			count:      count,
			support:    support,
			confidence: conf,
		})
	}
	return out
}

// subsetsOf lists the non-empty subsets of the distinct keys whose size
// c admits, each sorted.
func subsetsOf(keys []string, c oCard) [][]string {
	sort.Strings(keys)
	var distinct []string
	for i, k := range keys {
		if i == 0 || k != keys[i-1] {
			distinct = append(distinct, k)
		}
	}
	var out [][]string
	for mask := 1; mask < 1<<len(distinct); mask++ {
		var s []string
		for i, k := range distinct {
			if mask&(1<<i) != 0 {
				s = append(s, k)
			}
		}
		if c.admits(len(s)) {
			out = append(out, s)
		}
	}
	return out
}

func containsEvery(set map[string]bool, keys []string) bool {
	for _, k := range keys {
		if !set[k] {
			return false
		}
	}
	return true
}

// render maps element keys to their tuples, sorted.
func render(tuples map[string][]string, keys []string) [][]string {
	out := make([][]string, len(keys))
	for i, k := range keys {
		out[i] = tuples[k]
	}
	sort.Slice(out, func(i, j int) bool { return strings.Join(out[i], "/") < strings.Join(out[j], "/") })
	return out
}
