package translator

import (
	"fmt"
	"strings"

	"minerule/internal/sql/value"
)

// MinGroupsPlaceholder is the host-variable-style placeholder the paper
// writes as ":mingroups". The preprocessor substitutes the computed
// minimum group count (⌈support·totg⌉) before running the query.
const MinGroupsPlaceholder = ":mingroups"

// Program is the set of SQL translation programs (paper Figure 4 and
// Appendix A). Each field is a sequence of statements executed in order;
// empty sequences mean the classification switched the step off.
type Program struct {
	// Cleanup lists every working object a previous run of the same
	// statement may have left; the preprocessor drops those the catalog
	// holds.
	Cleanup []Object
	// Q0: materialize the source data when W; empty otherwise, and the
	// later steps read the FROM table directly.
	Q0 []string
	// Q1: the total-group count query (the paper's SELECT … INTO :totg).
	// It runs only when Translation.Q1Folded is false.
	Q1 string
	// Q2: group selection and encoding.
	Q2 []string
	// Q3: body item encoding (uses MinGroupsPlaceholder).
	Q3 []string
	// Q5: head item encoding, when H (uses MinGroupsPlaceholder).
	Q5 []string
	// Q6: cluster encoding, when C.
	Q6 []string
	// Q7: valid cluster pair selection, when K.
	Q7 []string
	// Q4: CodedSource (simple) or MiningSource (general; the paper's
	// Q4b).
	Q4 []string
	// Q8: the elementary-rule query, when M. It is one SELECT whose
	// rows stream into the core, which deduplicates each rule's contexts
	// and prunes rules below :mingroups itself; so the paper's DISTINCT,
	// its Q9 support count and its Q10 InputRules table are not built.
	// It runs after every other step, also when the encoded tables are
	// reused.
	Q8 string
	// OutputSetup creates the encoded output tables the core operator
	// fills (OutputRules/OutputBodies/OutputHeads, §4.4).
	OutputSetup []string
	// Decode are the postprocessor queries producing the user-readable
	// output tables.
	Decode []string
}

// Object is one named working object of a translation.
type Object struct {
	Kind string // "TABLE", "VIEW" or "SEQUENCE"
	Name string
}

// DropSQL is the statement that removes the object.
func (o Object) DropSQL() string { return "DROP " + o.Kind + " " + o.Name }

// Steps returns the preprocessing statements in execution order with
// their paper names, for tracing.
func (p *Program) Steps() []struct {
	Name string
	SQL  string
} {
	var out []struct {
		Name string
		SQL  string
	}
	add := func(name string, sqls []string) {
		for _, s := range sqls {
			out = append(out, struct {
				Name string
				SQL  string
			}{name, s})
		}
	}
	add("Q0", p.Q0)
	add("Q2", p.Q2)
	add("Q3", p.Q3)
	add("Q5", p.Q5)
	add("Q6", p.Q6)
	add("Q7", p.Q7)
	add("Q4", p.Q4)
	add("output", p.OutputSetup)
	if p.Q8 != "" {
		add("Q8", []string{p.Q8})
	}
	return out
}

// Q1Folded reports whether the preprocessor skips Q1. Without a group
// condition every group is valid, so :totg equals the number of rows
// Q2's INSERT INTO ValidGroups writes; Q1's own scan of Source would
// only recount them.
func (tr *Translation) Q1Folded() bool { return !tr.Class.G }

// TotalGroupsQuery is Q1 as EXPLAIN shows it: the paper's query, with a
// trailing comment naming where totg comes from when Q1 is folded.
func (tr *Translation) TotalGroupsQuery() string {
	if !tr.Q1Folded() {
		return tr.Program.Q1
	}
	return tr.Program.Q1 + " -- folded into Q2: totg = rows inserted into " + tr.Names.ValidGroups
}

// ElementaryQuery is Q8 as EXPLAIN shows it: the query, with a trailing
// comment naming where its rows go and the paper steps it replaces.
func (tr *Translation) ElementaryQuery() string {
	return tr.Program.Q8 + " -- streams into the core, which deduplicates and prunes at :mingroups: replaces the paper's Q8 INSERT, Q9 and Q10"
}

// generate fills tr.Program from the checked, classified statement.
func (tr *Translation) generate() error {
	st, n, cl := tr.Stmt, tr.Names, tr.Class
	p := &tr.Program

	list := func(attrs []string) string { return strings.Join(attrs, ", ") }
	qlist := func(alias string, attrs []string) string {
		parts := make([]string, len(attrs))
		for i, a := range attrs {
			parts[i] = alias + "." + a
		}
		return strings.Join(parts, ", ")
	}
	typed := func(attrs []string) string {
		parts := make([]string, len(attrs))
		for i, a := range attrs {
			parts[i] = a + " " + typeName(tr.attrType(a))
		}
		return strings.Join(parts, ", ")
	}
	joinOn := func(a, b string, attrs []string) string {
		parts := make([]string, len(attrs))
		for i, at := range attrs {
			parts[i] = fmt.Sprintf("%s.%s = %s.%s", a, at, b, at)
		}
		return strings.Join(parts, " AND ")
	}

	neededNames := make([]string, len(tr.NeededAttrs))
	for i, c := range tr.NeededAttrs {
		neededNames[i] = c.Name
	}

	// ---- Cleanup --------------------------------------------------------
	// The working names stay in the list even when ¬W leaves Source
	// unused (a run of an older program may have left it), but a name
	// that is one of the statement's FROM tables is the user's data and
	// is never dropped.
	fromTable := func(name string) bool {
		for _, t := range st.From {
			if strings.EqualFold(t.Name, name) {
				return true
			}
		}
		return false
	}
	addCleanup := func(kind string, names ...string) {
		for _, name := range names {
			if !fromTable(name) {
				p.Cleanup = append(p.Cleanup, Object{kind, name})
			}
		}
	}
	addCleanup("TABLE",
		n.ValidGroups, n.GroupsInBody, n.Bset, n.GroupsInHead, n.Hset,
		n.Clusters, n.ClusterCouples, n.MiningSource, n.CodedSource,
		n.OutputRules, n.OutputBodies, n.OutputHeads, n.Meta, n.Source)
	addCleanup("VIEW", n.ValidGroupsView, n.Source)
	addCleanup("SEQUENCE", n.GidSeq, n.BidSeq, n.HidSeq, n.CidSeq)

	// ---- Q0: Source -----------------------------------------------------
	// src is the relation Q1–Q6 read. As in the paper, Q0 runs only when
	// W: the source condition (or join) is materialized into Source.
	// Otherwise the programs read the single FROM table itself; a view
	// in between would re-project the whole table at every reference.
	src := st.From[0].Name
	if cl.W {
		src = n.Source
		fromList := make([]string, len(st.From))
		for i, t := range st.From {
			fromList[i] = t.Name
			if t.Alias != "" {
				fromList[i] += " AS " + t.Alias
			}
		}
		p.Q0 = append(p.Q0,
			fmt.Sprintf("CREATE TABLE %s (%s)", n.Source, typed(neededNames)))
		q := fmt.Sprintf("INSERT INTO %s (SELECT %s FROM %s",
			n.Source, list(neededNames), strings.Join(fromList, ", "))
		if st.SourceCond != nil {
			q += " WHERE " + st.SourceCond.SQL()
		}
		q += ")"
		p.Q0 = append(p.Q0, q)
	}

	// ---- Q1: total groups ------------------------------------------------
	p.Q1 = fmt.Sprintf("SELECT COUNT(*) FROM (SELECT DISTINCT %s FROM %s)",
		list(st.GroupAttrs), src)

	// ---- Q2: group selection and encoding --------------------------------
	p.Q2 = append(p.Q2, "CREATE SEQUENCE "+n.GidSeq)
	q2v := fmt.Sprintf("CREATE VIEW %s AS SELECT %s FROM %s GROUP BY %s",
		n.ValidGroupsView, list(st.GroupAttrs), src, list(st.GroupAttrs))
	if cl.G {
		q2v += " HAVING " + st.GroupCond.SQL()
	}
	p.Q2 = append(p.Q2, q2v,
		fmt.Sprintf("CREATE TABLE %s (mr_gid INTEGER, %s)", n.ValidGroups, typed(st.GroupAttrs)),
		fmt.Sprintf("INSERT INTO %s (SELECT %s.NEXTVAL AS mr_gid, V.* FROM %s AS V)",
			n.ValidGroups, n.GidSeq, n.ValidGroupsView))

	// ---- Q3 / Q5: item encoding ------------------------------------------
	encodeItems := func(attrs []string, groupsT, set, seq, idCol string) []string {
		return []string{
			fmt.Sprintf("CREATE TABLE %s (%s, mr_gid INTEGER)", groupsT, typed(attrs)),
			fmt.Sprintf("INSERT INTO %s (SELECT DISTINCT %s, V.mr_gid FROM %s S, %s V WHERE %s)",
				groupsT, qlist("S", attrs), src, n.ValidGroups,
				joinOn("S", "V", st.GroupAttrs)),
			"CREATE SEQUENCE " + seq,
			fmt.Sprintf("CREATE TABLE %s (%s INTEGER, %s, mr_gcount INTEGER)", set, idCol, typed(attrs)),
			fmt.Sprintf("INSERT INTO %s (SELECT %s.NEXTVAL AS %s, %s, COUNT(*) AS mr_gcount FROM %s GROUP BY %s HAVING COUNT(*) >= %s)",
				set, seq, idCol, list(attrs), groupsT, list(attrs), MinGroupsPlaceholder),
		}
	}
	p.Q3 = encodeItems(st.Body.Attrs, n.GroupsInBody, n.Bset, n.BidSeq, "mr_bid")
	if cl.H {
		p.Q5 = encodeItems(st.Head.Attrs, n.GroupsInHead, n.Hset, n.HidSeq, "mr_hid")
	}

	// ---- Q6: cluster encoding --------------------------------------------
	if cl.C {
		cols := fmt.Sprintf("mr_cid INTEGER, mr_gid INTEGER, %s", typed(st.ClusterAttrs))
		inner := fmt.Sprintf("SELECT V.mr_gid AS mr_gid, %s", qlist("S", st.ClusterAttrs))
		for _, a := range tr.ClusterAggs {
			cols += fmt.Sprintf(", %s %s", a.Col, aggColType(a, tr))
			inner += fmt.Sprintf(", %s(S.%s) AS %s", a.Func, a.Attr, a.Col)
		}
		inner += fmt.Sprintf(" FROM %s S, %s V WHERE %s GROUP BY V.mr_gid, %s",
			src, n.ValidGroups, joinOn("S", "V", st.GroupAttrs), qlist("S", st.ClusterAttrs))
		p.Q6 = append(p.Q6,
			"CREATE SEQUENCE "+n.CidSeq,
			fmt.Sprintf("CREATE TABLE %s (%s)", n.Clusters, cols),
			fmt.Sprintf("INSERT INTO %s (SELECT %s.NEXTVAL AS mr_cid, T.* FROM (%s) AS T)",
				n.Clusters, n.CidSeq, inner))
	}

	// ---- Q7: valid cluster pairs -----------------------------------------
	if cl.K {
		cond, err := tr.rewriteClusterCond(st.ClusterCond, "b", "h")
		if err != nil {
			return err
		}
		p.Q7 = append(p.Q7,
			fmt.Sprintf("CREATE TABLE %s (mr_gid INTEGER, mr_bcid INTEGER, mr_hcid INTEGER)", n.ClusterCouples),
			fmt.Sprintf("INSERT INTO %s (SELECT b.mr_gid, b.mr_cid AS mr_bcid, h.mr_cid AS mr_hcid FROM %s b, %s h WHERE b.mr_gid = h.mr_gid AND %s)",
				n.ClusterCouples, n.Clusters, n.Clusters, cond.SQL()))
	}

	// ---- Q4: CodedSource / MiningSource -----------------------------------
	if cl.Simple() {
		// GroupsInBody already holds the distinct (body, mr_gid) pairs of
		// Source ⋈ ValidGroups, and Bset one mr_bid per body tuple, so
		// joining the two yields the paper's DISTINCT (mr_gid, mr_bid)
		// pairs without rescanning Source.
		p.Q4 = append(p.Q4,
			fmt.Sprintf("CREATE TABLE %s (mr_gid INTEGER, mr_bid INTEGER)", n.CodedSource),
			fmt.Sprintf("INSERT INTO %s (SELECT G.mr_gid, B.mr_bid FROM %s G, %s B WHERE %s)",
				n.CodedSource, n.GroupsInBody, n.Bset, joinOn("G", "B", st.Body.Attrs)))
	} else {
		groupJoin := joinOn("S", "V", st.GroupAttrs)
		bodyJoin := joinOn("S", "B", st.Body.Attrs)
		// Q4b: MiningSource carries (mr_gid[, mr_cid], mr_bid[, mr_hid][, mine attrs]).
		cols := "mr_gid INTEGER"
		sel := "V.mr_gid"
		var clusterJoin string
		if cl.C {
			cols += ", mr_cid INTEGER"
			sel += ", C.mr_cid"
			clusterJoin = " AND C.mr_gid = V.mr_gid AND " + joinOn("S", "C", st.ClusterAttrs)
		}
		cols += ", mr_bid INTEGER"
		if cl.H {
			cols += ", mr_hid INTEGER"
		}
		mineSel := ""
		if cl.M {
			cols += ", " + typed(tr.MineAttrs)
			mineSel = ", " + qlist("S", tr.MineAttrs)
		}
		p.Q4 = append(p.Q4, fmt.Sprintf("CREATE TABLE %s (%s)", n.MiningSource, cols))

		fromClusters := ""
		if cl.C {
			fromClusters = ", " + n.Clusters + " C"
		}
		if !cl.H {
			p.Q4 = append(p.Q4, fmt.Sprintf(
				"INSERT INTO %s (SELECT DISTINCT %s, B.mr_bid%s FROM %s S, %s V, %s B%s WHERE %s AND %s%s)",
				n.MiningSource, sel, mineSel, src, n.ValidGroups, n.Bset,
				fromClusters, groupJoin, bodyJoin, clusterJoin))
		} else {
			headJoin := joinOn("S", "HS", st.Head.Attrs)
			p.Q4 = append(p.Q4,
				fmt.Sprintf("INSERT INTO %s (SELECT DISTINCT %s, B.mr_bid, NULL%s FROM %s S, %s V, %s B%s WHERE %s AND %s%s)",
					n.MiningSource, sel, mineSel, src, n.ValidGroups, n.Bset,
					fromClusters, groupJoin, bodyJoin, clusterJoin),
				fmt.Sprintf("INSERT INTO %s (SELECT DISTINCT %s, NULL, HS.mr_hid%s FROM %s S, %s V, %s HS%s WHERE %s AND %s%s)",
					n.MiningSource, sel, mineSel, src, n.ValidGroups, n.Hset,
					fromClusters, groupJoin, headJoin, clusterJoin))
		}
	}

	// ---- Q8: elementary rules under the mining condition ------------------
	if cl.M {
		cond := tr.rewriteRoles(st.MiningCond, "b", "h")
		hidCol := "mr_bid"
		if cl.H {
			hidCol = "mr_hid"
		}
		sel := "b.mr_gid"
		if cl.C {
			sel += ", b.mr_cid AS mr_bcid, h.mr_cid AS mr_hcid"
		}
		sel += fmt.Sprintf(", b.mr_bid, h.%s AS mr_hid", hidCol)

		where := "b.mr_gid = h.mr_gid"
		from := fmt.Sprintf("%s b, %s h", n.MiningSource, n.MiningSource)
		if cl.H {
			where += " AND b.mr_bid IS NOT NULL AND h.mr_hid IS NOT NULL"
		} else {
			where += " AND b.mr_bid <> h.mr_bid"
		}
		if cl.K {
			from += ", " + n.ClusterCouples + " cc"
			where += " AND cc.mr_gid = b.mr_gid AND cc.mr_bcid = b.mr_cid AND cc.mr_hcid = h.mr_cid"
		}
		where += " AND " + cond.SQL()
		p.Q8 = fmt.Sprintf("SELECT %s FROM %s WHERE %s", sel, from, where)
	}

	// ---- Encoded output tables (§4.4) --------------------------------------
	p.OutputSetup = append(p.OutputSetup,
		fmt.Sprintf("CREATE TABLE %s (BodyId INTEGER, HeadId INTEGER, support FLOAT, confidence FLOAT)", n.OutputRules),
		fmt.Sprintf("CREATE TABLE %s (BodyId INTEGER, mr_bid INTEGER)", n.OutputBodies),
		fmt.Sprintf("CREATE TABLE %s (HeadId INTEGER, mr_hid INTEGER)", n.OutputHeads))

	// ---- Postprocessor: decode into the user-readable tables ---------------
	outCols := "BodyId INTEGER, HeadId INTEGER"
	outSel := "BodyId, HeadId"
	if st.WantSupport {
		outCols += ", SUPPORT FLOAT"
		outSel += ", support"
	}
	if st.WantConfidence {
		outCols += ", CONFIDENCE FLOAT"
		outSel += ", confidence"
	}
	p.Decode = append(p.Decode,
		fmt.Sprintf("CREATE TABLE %s (%s)", n.Output, outCols),
		fmt.Sprintf("INSERT INTO %s (SELECT %s FROM %s)", n.Output, outSel, n.OutputRules),
		fmt.Sprintf("CREATE TABLE %s (BodyId INTEGER, %s)", n.OutputBodyT, typed(st.Body.Attrs)),
		fmt.Sprintf("INSERT INTO %s (SELECT O.BodyId, %s FROM %s O, %s B WHERE O.mr_bid = B.mr_bid)",
			n.OutputBodyT, qlist("B", st.Body.Attrs), n.OutputBodies, n.Bset))
	headSet, headID := n.Bset, "mr_bid"
	if cl.H {
		headSet, headID = n.Hset, "mr_hid"
	}
	p.Decode = append(p.Decode,
		fmt.Sprintf("CREATE TABLE %s (HeadId INTEGER, %s)", n.OutputHeadT, typed(st.Head.Attrs)),
		fmt.Sprintf("INSERT INTO %s (SELECT O.HeadId, %s FROM %s O, %s HS WHERE O.mr_hid = HS.%s)",
			n.OutputHeadT, qlist("HS", st.Head.Attrs), n.OutputHeads, headSet, headID))

	return nil
}

func typeName(t value.Type) string {
	switch t {
	case value.TypeInt:
		return "INTEGER"
	case value.TypeFloat:
		return "FLOAT"
	case value.TypeDate:
		return "DATE"
	case value.TypeBool:
		return "BOOLEAN"
	default:
		return "VARCHAR"
	}
}

// aggColType picks the column type Q6 stores a cluster aggregate into.
func aggColType(a clusterAgg, tr *Translation) string {
	switch a.Func {
	case "COUNT":
		return "INTEGER"
	case "AVG":
		return "FLOAT"
	case "SUM":
		if tr.attrType(a.Attr) == value.TypeInt {
			return "INTEGER"
		}
		return "FLOAT"
	default: // MIN, MAX preserve the attribute type
		return typeName(tr.attrType(a.Attr))
	}
}
