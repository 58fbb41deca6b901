package preproc

import (
	"context"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"testing"

	"minerule/internal/gen"
	"minerule/internal/kernel/translator"
	mrparse "minerule/internal/minerule/parse"
	"minerule/internal/mining"
	"minerule/internal/sql/engine"
)

// The paper's Q1 and simple-class Q4, as the translator emitted them
// before Q4 read GroupsInBody and Q1 folded into Q2, and the
// pass-through Source view it created without W before the programs
// read the FROM table. Placeholders: group attrs, Source; CodedSource,
// Source, ValidGroups, Bset, group join, body join; Source, needed
// attrs, FROM table.
const (
	paperQ1     = "SELECT COUNT(*) FROM (SELECT DISTINCT %s FROM %s)"
	paperQ4     = "INSERT INTO %s (SELECT DISTINCT V.mr_gid, B.mr_bid FROM %s S, %s V, %s B WHERE %s AND %s)"
	sourceView  = "CREATE VIEW %s AS SELECT %s FROM %s"
	paperSource = "mr_paper_source"
)

// The paper's general-class Q8, Q9 and Q10 (Figure 4.b), as the
// translator emitted them before Q8's rows streamed into the core, and
// the column lists they store. Placeholders: Q8 Elementary, cluster
// columns, head column, MiningSource, MiningSource, couples table,
// role predicate, couples join, mining condition over b/h; Q9
// LargeRules, Elementary; Q10 InputRules, cluster columns, Elementary,
// LargeRules, :mingroups. The paper's Q11 is sourceView over
// MiningSource.
const (
	paperQ8          = "INSERT INTO %s (SELECT DISTINCT b.mr_gid%s, b.mr_bid, h.%s AS mr_hid FROM %s b, %s h%s WHERE b.mr_gid = h.mr_gid AND %s%s AND %s)"
	paperQ8Clusters  = ", b.mr_cid AS mr_bcid, h.mr_cid AS mr_hcid"
	paperQ8Couples   = " AND cc.mr_gid = b.mr_gid AND cc.mr_bcid = b.mr_cid AND cc.mr_hcid = h.mr_cid"
	paperQ8SameAttr  = "b.mr_bid <> h.mr_bid"
	paperQ8TwoAttrs  = "b.mr_bid IS NOT NULL AND h.mr_hid IS NOT NULL"
	paperQ9          = "INSERT INTO %s (SELECT mr_bid, mr_hid, COUNT(DISTINCT mr_gid) AS mr_scount FROM %s GROUP BY mr_bid, mr_hid)"
	paperQ10         = "INSERT INTO %s (SELECT e.mr_gid%s, e.mr_bid, e.mr_hid FROM %s e, %s l WHERE e.mr_bid = l.mr_bid AND e.mr_hid = l.mr_hid AND l.mr_scount >= %d)"
	paperQ10Clusters = ", e.mr_bcid, e.mr_hcid"
	paperRuleCols    = "mr_gid INTEGER, mr_bid INTEGER, mr_hid INTEGER"
	paperRuleCCols   = "mr_gid INTEGER, mr_bcid INTEGER, mr_hcid INTEGER, mr_bid INTEGER, mr_hid INTEGER"
)

// handData has duplicate source rows, NULL body values in each body
// attribute, a NULL group, and an item (b) sold on both sides of the
// general cases' price threshold in the same groups, which only the
// body ≠ head predicate keeps from pairing with itself.
const handData = `
	CREATE TABLE Hand (tr INTEGER, cust VARCHAR, item VARCHAR, color VARCHAR, price FLOAT);
	INSERT INTO Hand VALUES
		(1, 'c1', 'a', 'red', 120), (1, 'c1', 'a', 'red', 120),
		(1, 'c1', 'b', 'blue', 20), (1, 'c1', NULL, 'red', 5),
		(1, 'c1', 'b', 'red', 70), (2, 'c2', 'b', 'red', 70), (3, 'c3', 'b', 'red', 70),
		(2, 'c2', 'a', 'red', 120), (2, 'c2', 'b', NULL, 20),
		(2, 'c2', 'b', 'blue', 20), (2, 'c2', 'c', 'green', 60),
		(3, 'c3', 'a', 'blue', 110), (3, 'c3', 'b', 'blue', 20),
		(3, 'c3', 'c', 'green', 60), (3, 'c3', 'c', 'green', 60),
		(4, 'c4', 'b', 'blue', 20), (4, 'c4', NULL, NULL, 1),
		(5, NULL, 'a', 'red', 120), (5, NULL, 'b', 'blue', 20),
		(6, 'c6', 'a', 'red', 120), (6, 'c6', 'c', 'green', 60);
`

// figure1Data is the paper's Figure 1 Purchase table.
const figure1Data = `
	CREATE TABLE Purchase (tr INTEGER, cust VARCHAR, item VARCHAR, dt DATE, price FLOAT, qty INTEGER);
	INSERT INTO Purchase VALUES
		(1, 'cust1', 'ski_pants',    DATE '1995-12-17', 140, 1),
		(1, 'cust1', 'hiking_boots', DATE '1995-12-17', 180, 1),
		(2, 'cust2', 'col_shirts',   DATE '1995-12-18',  25, 2),
		(2, 'cust2', 'brown_boots',  DATE '1995-12-18', 150, 1),
		(2, 'cust2', 'jackets',      DATE '1995-12-18', 300, 1),
		(3, 'cust1', 'jackets',      DATE '1995-12-18', 300, 1),
		(4, 'cust2', 'col_shirts',   DATE '1995-12-19',  25, 3),
		(4, 'cust2', 'jackets',      DATE '1995-12-19', 300, 2);
`

// diffSeed is the Quest generator seed: PREPROC_DIFF_SEED when set, so
// a sweep can rotate it, else 1.
func diffSeed(t *testing.T) int64 {
	seed := int64(1)
	if s := os.Getenv("PREPROC_DIFF_SEED"); s != "" {
		v, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			t.Fatalf("PREPROC_DIFF_SEED=%q: %v", s, err)
		}
		seed = v
	}
	t.Logf("Quest data seed %d (rerun with PREPROC_DIFF_SEED=%d)", seed, seed)
	return seed
}

// TestRewritesMatchPaperProgram runs the paper's programs next to the
// rewritten ones on the same database. For the simple class those are
// Q1 and Q4: CodedSource, totg and the mined rules must be identical.
// Without W the paper's queries read the old view-based Source, so the
// direct reads of the FROM table are checked against it too. For the
// general class they are Q1 and Q8–Q11: the contexts the core keeps from
// the streamed Q8 must be the paper's InputRules, and the decoded rules
// mined from each must be identical. The hand data has duplicate source
// rows, NULL bodies and NULL groups, and in each general case one rule
// whose group count is exactly :mingroups next to one just below it.
func TestRewritesMatchPaperProgram(t *testing.T) {
	seed := diffSeed(t)
	quest := func(db *engine.Database) error {
		_, err := gen.LoadBaskets(db, "Baskets", gen.BasketConfig{
			Groups: 400, AvgSize: 8, AvgPatternLen: 3, Items: 80, Seed: seed,
		})
		return err
	}
	hand := func(db *engine.Database) error { return db.ExecScript(handData) }
	figure1 := func(db *engine.Database) error { return db.ExecScript(figure1Data) }
	const handCond = "b.price >= 60 AND h.price < 60"
	cases := []struct {
		name string
		load func(*engine.Database) error
		stmt string
		cond string // the mining condition over b/h, general cases only
	}{
		{"quest", quest, `MINE RULE QB AS SELECT DISTINCT 1..n item AS BODY, 1..1 item AS HEAD
			FROM Baskets GROUP BY gid EXTRACTING RULES WITH SUPPORT: 0.04, CONFIDENCE: 0.3`, ""},
		{"quest/G", quest, `MINE RULE QG AS SELECT DISTINCT 1..n item AS BODY, 1..1 item AS HEAD
			FROM Baskets GROUP BY gid HAVING COUNT(*) >= 8 EXTRACTING RULES WITH SUPPORT: 0.04, CONFIDENCE: 0.3`, ""},
		{"hand", hand, `MINE RULE H1 AS SELECT DISTINCT 1..n item AS BODY, 1..n item AS HEAD
			FROM Hand GROUP BY cust EXTRACTING RULES WITH SUPPORT: 0.3, CONFIDENCE: 0.1`, ""},
		{"hand/two-attr body", hand, `MINE RULE H2 AS SELECT DISTINCT 1..n item, color AS BODY, 1..n item, color AS HEAD
			FROM Hand GROUP BY cust EXTRACTING RULES WITH SUPPORT: 0.3, CONFIDENCE: 0.1`, ""},
		{"hand/W", hand, `MINE RULE H3 AS SELECT DISTINCT 1..n item AS BODY, 1..1 item AS HEAD
			FROM Hand WHERE price >= 20 GROUP BY cust EXTRACTING RULES WITH SUPPORT: 0.3, CONFIDENCE: 0.1`, ""},
		{"hand/G", hand, `MINE RULE H4 AS SELECT DISTINCT 1..n item AS BODY, 1..1 item AS HEAD
			FROM Hand GROUP BY cust HAVING COUNT(*) >= 3 EXTRACTING RULES WITH SUPPORT: 0.3, CONFIDENCE: 0.1`, ""},
		// totg 6 (the NULL customer is a group), :mingroups 3: (a, b)
		// holds in c1–c3, (c, b) only in c2 and c3.
		{"hand/M", hand, `MINE RULE HM AS SELECT DISTINCT 1..n item AS BODY, 1..1 item AS HEAD
			WHERE BODY.price >= 60 AND HEAD.price < 60
			FROM Hand GROUP BY cust EXTRACTING RULES WITH SUPPORT: 0.5, CONFIDENCE: 0.1`, handCond},
		// (a, blue) holds in c1–c3, (c, blue) in c2 and c3.
		{"hand/H+M", hand, `MINE RULE HH AS SELECT DISTINCT 1..n item AS BODY, 1..1 color AS HEAD
			WHERE BODY.price >= 60 AND HEAD.price < 60
			FROM Hand GROUP BY cust EXTRACTING RULES WITH SUPPORT: 0.5, CONFIDENCE: 0.1`, handCond},
		{"hand/C+M", hand, `MINE RULE HC AS SELECT DISTINCT 1..n item AS BODY, 1..1 item AS HEAD
			WHERE BODY.price >= 60 AND HEAD.price < 60
			FROM Hand GROUP BY cust CLUSTER BY color EXTRACTING RULES WITH SUPPORT: 0.5, CONFIDENCE: 0.1`, handCond},
		// :mingroups 1 over two customers; each rule holds in cust2 only.
		{"figure1/C+K+M", figure1, `MINE RULE FilteredOrderedSets AS
			SELECT DISTINCT 1..n item AS BODY, 1..n item AS HEAD, SUPPORT, CONFIDENCE
			WHERE BODY.price >= 100 AND HEAD.price < 100
			FROM Purchase WHERE dt BETWEEN DATE '1995-01-01' AND DATE '1995-12-31'
			GROUP BY cust CLUSTER BY dt HAVING BODY.dt < HEAD.dt
			EXTRACTING RULES WITH SUPPORT: 0.2, CONFIDENCE: 0.3`, "b.price >= 100 AND h.price < 100"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			db := engine.New()
			if err := c.load(db); err != nil {
				t.Fatal(err)
			}
			st, err := mrparse.Parse(c.stmt)
			if err != nil {
				t.Fatal(err)
			}
			tr, err := translator.Translate(db, st)
			if err != nil {
				t.Fatal(err)
			}
			if tr.Class.Simple() != (c.cond == "") {
				t.Fatalf("class %v does not match the case", tr.Class)
			}
			res, err := Run(context.Background(), db, tr)
			if err != nil {
				t.Fatal(err)
			}
			src := tr.Names.Source
			if !tr.Class.W {
				if len(tr.Program.Q0) != 0 {
					t.Fatalf("Q0 without W: %v", tr.Program.Q0)
				}
				needed := make([]string, len(tr.NeededAttrs))
				for i, c := range tr.NeededAttrs {
					needed[i] = c.Name
				}
				src = paperSource
				if _, err := db.Exec(fmt.Sprintf(sourceView, src, strings.Join(needed, ", "), st.From[0].Name)); err != nil {
					t.Fatal(err)
				}
			}

			paperTotg, err := db.QueryInt(fmt.Sprintf(paperQ1, strings.Join(st.GroupAttrs, ", "), src))
			if err != nil {
				t.Fatal(err)
			}
			if res.Totg != int(paperTotg) {
				t.Errorf("totg = %d, paper Q1 gives %d", res.Totg, paperTotg)
			}
			opts := mining.Options{
				MinSupport:    st.MinSupport,
				MinConfidence: st.MinConfidence,
				BodyCard:      mining.Card{Min: st.Body.Card.Min, Max: st.Body.Card.Max},
				HeadCard:      mining.Card{Min: st.Head.Card.Min, Max: st.Head.Card.Max},
			}
			if tr.Class.Simple() {
				checkSimpleProgram(t, db, tr, res, src, int(paperTotg), opts)
			} else {
				checkGeneralProgram(t, db, tr, res, c.cond, int(paperTotg), opts)
			}
		})
	}
}

// checkSimpleProgram holds CodedSource and its rules to the paper's Q4.
func checkSimpleProgram(t *testing.T, db *engine.Database, tr *translator.Translation, res *Result, src string, paperTotg int, opts mining.Options) {
	t.Helper()
	n, st := tr.Names, tr.Stmt
	const paperCoded = "mr_paper_codedsource"
	if err := db.ExecScript(fmt.Sprintf("CREATE TABLE %s (mr_gid INTEGER, mr_bid INTEGER); ", paperCoded) +
		fmt.Sprintf(paperQ4, paperCoded, src, n.ValidGroups, n.Bset,
			equiJoin("S", "V", st.GroupAttrs), equiJoin("S", "B", st.Body.Attrs))); err != nil {
		t.Fatal(err)
	}
	got, want := pairs(t, db, n.CodedSource), pairs(t, db, paperCoded)
	if len(want) == 0 {
		t.Fatal("paper CodedSource is empty: the case exercises nothing")
	}
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Fatalf("CodedSource differs from the paper's Q4:\n got %v\nwant %v", got, want)
	}
	gotRules := rules(t, db, n.CodedSource, res.Totg, opts)
	wantRules := rules(t, db, paperCoded, paperTotg, opts)
	if strings.HasPrefix(wantRules, "0 rules") {
		t.Fatal("the paper program mines no rules: the case exercises nothing")
	}
	if gotRules != wantRules {
		t.Fatalf("rules differ:\n got %s\nwant %s", gotRules, wantRules)
	}
}

// checkGeneralProgram runs the paper's Q8–Q11 over the kernel's
// MiningSource and ClusterCouples: the contexts the core keeps from the
// streamed Q8 rows must be the paper's InputRules, and the rules the
// lattice mines from each must decode identically.
func checkGeneralProgram(t *testing.T, db *engine.Database, tr *translator.Translation, res *Result, cond string, paperTotg int, opts mining.Options) {
	t.Helper()
	n, cl := tr.Names, tr.Class
	const (
		paperElem  = "mr_paper_elementary"
		paperLarge = "mr_paper_largerules"
		paperInput = "mr_paper_inputrules"
		paperCoded = "mr_paper_codedsource"
	)
	cols, clusterSel, ruleCols, q10Sel := "mr_gid", "", paperRuleCols, ""
	if cl.C {
		cols += ", mr_cid"
		clusterSel, ruleCols, q10Sel = paperQ8Clusters, paperRuleCCols, paperQ10Clusters
	}
	cols += ", mr_bid"
	headCol, role := "mr_bid", paperQ8SameAttr
	if cl.H {
		cols += ", mr_hid"
		headCol, role = "mr_hid", paperQ8TwoAttrs
	}
	couplesFrom, couplesJoin := "", ""
	if cl.K {
		couplesFrom, couplesJoin = ", "+n.ClusterCouples+" cc", paperQ8Couples
	}
	minGroups := mining.MinCount(tr.Stmt.MinSupport, paperTotg)
	for _, q := range []string{
		fmt.Sprintf("CREATE TABLE %s (%s)", paperElem, ruleCols),
		fmt.Sprintf(paperQ8, paperElem, clusterSel, headCol, n.MiningSource, n.MiningSource,
			couplesFrom, role, couplesJoin, cond),
		fmt.Sprintf("CREATE TABLE %s (mr_bid INTEGER, mr_hid INTEGER, mr_scount INTEGER)", paperLarge),
		fmt.Sprintf(paperQ9, paperLarge, paperElem),
		fmt.Sprintf("CREATE TABLE %s (%s)", paperInput, ruleCols),
		fmt.Sprintf(paperQ10, paperInput, q10Sel, paperElem, paperLarge, minGroups),
		fmt.Sprintf(sourceView, paperCoded, cols, n.MiningSource),
	} {
		if _, err := db.Exec(q); err != nil {
			t.Fatalf("%v\n  in: %s", err, q)
		}
	}

	paperRules := elementary(t, db, paperInput, cl.C)
	kept := mining.KeptContexts(&mining.GeneralInput{Elementary: res.Elementary}, res.MinGroups)
	want := make(map[[2]mining.Item][]mining.Ctx)
	for _, e := range paperRules {
		k := [2]mining.Item{e.Body, e.Head}
		want[k] = append(want[k], e.Ctx)
	}
	if len(want) == 0 {
		t.Fatal("the paper's InputRules is empty: the case exercises nothing")
	}
	atMin := false
	for _, ctxs := range want {
		g := make(map[int64]bool)
		for _, c := range ctxs {
			g[c.G] = true
		}
		atMin = atMin || len(g) == minGroups
	}
	if !atMin {
		t.Fatalf("no rule holds in exactly :mingroups = %d groups: the prune's edge is not exercised", minGroups)
	}
	for k, ctxs := range want {
		sort.Slice(ctxs, func(i, j int) bool { return fmt.Sprint(ctxs[i]) < fmt.Sprint(ctxs[j]) })
		got := append([]mining.Ctx(nil), kept[k]...)
		sort.Slice(got, func(i, j int) bool { return fmt.Sprint(got[i]) < fmt.Sprint(got[j]) })
		if fmt.Sprint(got) != fmt.Sprint(ctxs) {
			t.Errorf("rule %v: the core keeps contexts %v, the paper's InputRules %v", k, got, ctxs)
		}
	}
	for k, ctxs := range kept {
		if _, ok := want[k]; !ok {
			t.Errorf("rule %v: the core keeps contexts %v, the paper's InputRules none", k, ctxs)
		}
	}

	gotRules := generalRules(t, db, tr, n.MiningSource, res.Totg, res.Elementary, opts)
	wantRules := generalRules(t, db, tr, paperCoded, paperTotg, paperRules, opts)
	if strings.HasPrefix(wantRules, "0 rules") {
		t.Fatal("the paper program mines no rules: the case exercises nothing")
	}
	if gotRules != wantRules {
		t.Fatalf("rules differ:\n got %s\nwant %s", gotRules, wantRules)
	}
}

// elementary reads a table of elementary-rule rows.
func elementary(t *testing.T, db *engine.Database, table string, clusters bool) []mining.ElemOcc {
	t.Helper()
	sel := "SELECT mr_gid, mr_bid, mr_hid, 0, 0 FROM " + table
	if clusters {
		sel = "SELECT mr_gid, mr_bid, mr_hid, mr_bcid, mr_hcid FROM " + table
	}
	r, err := db.Query(sel)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]mining.ElemOcc, len(r.Rows))
	for i, row := range r.Rows {
		out[i] = mining.ElemOcc{
			Body: mining.Item(row[1].Int()), Head: mining.Item(row[2].Int()),
			Ctx: mining.Ctx{G: row[0].Int(), BC: row[3].Int(), HC: row[4].Int()},
		}
	}
	return out
}

// generalRules mines the elementary rules with the rule-lattice core,
// over groups read from a coded table or view (mr_gid[, mr_cid],
// mr_bid[, mr_hid]), and renders the sorted rules decoded through Bset
// and Hset.
func generalRules(t *testing.T, db *engine.Database, tr *translator.Translation, coded string, totg int, elem []mining.ElemOcc, opts mining.Options) string {
	t.Helper()
	cl, n := tr.Class, tr.Names
	cid, hid := "0", "NULL"
	if cl.C {
		cid = "mr_cid"
	}
	if cl.H {
		hid = "mr_hid"
	}
	r, err := db.Query(fmt.Sprintf("SELECT mr_gid, %s, mr_bid, %s FROM %s", cid, hid, coded))
	if err != nil {
		t.Fatal(err)
	}
	groups := make(map[int64]*mining.GroupData)
	var gids []int64
	for _, row := range r.Rows {
		g := row[0].Int()
		gd, ok := groups[g]
		if !ok {
			gd = &mining.GroupData{Gid: g, BodyClusters: make(map[int64][]mining.Item)}
			gd.HeadClusters = gd.BodyClusters
			if cl.H {
				gd.HeadClusters = make(map[int64][]mining.Item)
			}
			groups[g] = gd
			gids = append(gids, g)
		}
		c := row[1].Int()
		if !row[2].IsNull() {
			gd.BodyClusters[c] = append(gd.BodyClusters[c], mining.Item(row[2].Int()))
		}
		if !row[3].IsNull() {
			gd.HeadClusters[c] = append(gd.HeadClusters[c], mining.Item(row[3].Int()))
		}
	}
	sort.Slice(gids, func(i, j int) bool { return gids[i] < gids[j] })
	in := &mining.GeneralInput{TotalGroups: totg, SameAttr: !cl.H, Elementary: elem}
	for _, g := range gids {
		in.Groups = append(in.Groups, *groups[g])
	}

	bodies := decoder(t, db, n.Bset, "mr_bid", tr.Stmt.Body.Attrs)
	heads := bodies
	if cl.H {
		heads = decoder(t, db, n.Hset, "mr_hid", tr.Stmt.Head.Attrs)
	}
	side := func(items []mining.Item, names map[mining.Item]string) string {
		parts := make([]string, len(items))
		for i, it := range items {
			parts[i] = names[it]
		}
		sort.Strings(parts)
		return "{" + strings.Join(parts, ", ") + "}"
	}
	rs := mining.MineGeneral(in, opts)
	out := make([]string, len(rs))
	for i, rule := range rs {
		out[i] = fmt.Sprintf("%s=>%s s%d b%d", side(rule.Body, bodies), side(rule.Head, heads), rule.SupportCount, rule.BodyCount)
	}
	sort.Strings(out)
	return fmt.Sprintf("%d rules %v", len(out), out)
}

// decoder maps an item set's ids to their attribute values.
func decoder(t *testing.T, db *engine.Database, set, idCol string, attrs []string) map[mining.Item]string {
	t.Helper()
	r, err := db.Query(fmt.Sprintf("SELECT %s, %s FROM %s", idCol, strings.Join(attrs, ", "), set))
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[mining.Item]string, len(r.Rows))
	for _, row := range r.Rows {
		vals := make([]string, len(attrs))
		for i, v := range row[1:] {
			vals[i] = v.String()
		}
		out[mining.Item(row[0].Int())] = strings.Join(vals, "/")
	}
	return out
}

// equiJoin is the translator's join predicate a.x = b.x AND … over attrs.
func equiJoin(a, b string, attrs []string) string {
	parts := make([]string, len(attrs))
	for i, at := range attrs {
		parts[i] = fmt.Sprintf("%s.%s = %s.%s", a, at, b, at)
	}
	return strings.Join(parts, " AND ")
}

// pairs is the sorted (mr_gid, mr_bid) multiset of a coded table.
func pairs(t *testing.T, db *engine.Database, table string) []string {
	t.Helper()
	r, err := db.Query("SELECT mr_gid, mr_bid FROM " + table)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]string, len(r.Rows))
	for i, row := range r.Rows {
		out[i] = row[0].String() + ":" + row[1].String()
	}
	sort.Strings(out)
	return out
}

// rules mines a coded table with the simple core and renders the sorted
// rule set.
func rules(t *testing.T, db *engine.Database, table string, totg int, opts mining.Options) string {
	t.Helper()
	r, err := db.Query("SELECT mr_gid, mr_bid FROM " + table)
	if err != nil {
		t.Fatal(err)
	}
	byGroup := make(map[int64][]mining.Item)
	for _, row := range r.Rows {
		byGroup[row[0].Int()] = append(byGroup[row[0].Int()], mining.Item(row[1].Int()))
	}
	rs := mining.MineSimple(mining.Apriori{}, mining.NewSimpleInput(byGroup, totg), opts)
	out := make([]string, len(rs))
	for i, rule := range rs {
		out[i] = fmt.Sprintf("%v=>%v s%d b%d", rule.Body, rule.Head, rule.SupportCount, rule.BodyCount)
	}
	sort.Strings(out)
	return fmt.Sprintf("%d rules %v", len(out), out)
}
