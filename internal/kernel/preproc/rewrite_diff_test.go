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

// handData has duplicate source rows, NULL body values in each body
// attribute, and a NULL group.
const handData = `
	CREATE TABLE Hand (tr INTEGER, cust VARCHAR, item VARCHAR, color VARCHAR, price FLOAT);
	INSERT INTO Hand VALUES
		(1, 'c1', 'a', 'red', 120), (1, 'c1', 'a', 'red', 120),
		(1, 'c1', 'b', 'blue', 20), (1, 'c1', NULL, 'red', 5),
		(2, 'c2', 'a', 'red', 120), (2, 'c2', 'b', NULL, 20),
		(2, 'c2', 'b', 'blue', 20), (2, 'c2', 'c', 'green', 60),
		(3, 'c3', 'a', 'blue', 110), (3, 'c3', 'b', 'blue', 20),
		(3, 'c3', 'c', 'green', 60), (3, 'c3', 'c', 'green', 60),
		(4, 'c4', 'b', 'blue', 20), (4, 'c4', NULL, NULL, 1),
		(5, NULL, 'a', 'red', 120), (5, NULL, 'b', 'blue', 20),
		(6, 'c6', 'a', 'red', 120), (6, 'c6', 'c', 'green', 60);
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

// TestRewritesMatchPaperProgram runs the paper's Q1 and simple-class Q4
// next to the rewritten program on the same database: CodedSource, totg
// and the mined rules must be identical. Without W the paper's queries
// read the old view-based Source, so the direct reads of the FROM table
// are checked against it too.
func TestRewritesMatchPaperProgram(t *testing.T) {
	seed := diffSeed(t)
	quest := func(db *engine.Database) error {
		_, err := gen.LoadBaskets(db, "Baskets", gen.BasketConfig{
			Groups: 400, AvgSize: 8, AvgPatternLen: 3, Items: 80, Seed: seed,
		})
		return err
	}
	hand := func(db *engine.Database) error { return db.ExecScript(handData) }
	cases := []struct {
		name string
		load func(*engine.Database) error
		stmt string
	}{
		{"quest", quest, `MINE RULE QB AS SELECT DISTINCT 1..n item AS BODY, 1..1 item AS HEAD
			FROM Baskets GROUP BY gid EXTRACTING RULES WITH SUPPORT: 0.04, CONFIDENCE: 0.3`},
		{"quest/G", quest, `MINE RULE QG AS SELECT DISTINCT 1..n item AS BODY, 1..1 item AS HEAD
			FROM Baskets GROUP BY gid HAVING COUNT(*) >= 8 EXTRACTING RULES WITH SUPPORT: 0.04, CONFIDENCE: 0.3`},
		{"hand", hand, `MINE RULE H1 AS SELECT DISTINCT 1..n item AS BODY, 1..n item AS HEAD
			FROM Hand GROUP BY cust EXTRACTING RULES WITH SUPPORT: 0.3, CONFIDENCE: 0.1`},
		{"hand/two-attr body", hand, `MINE RULE H2 AS SELECT DISTINCT 1..n item, color AS BODY, 1..n item, color AS HEAD
			FROM Hand GROUP BY cust EXTRACTING RULES WITH SUPPORT: 0.3, CONFIDENCE: 0.1`},
		{"hand/W", hand, `MINE RULE H3 AS SELECT DISTINCT 1..n item AS BODY, 1..1 item AS HEAD
			FROM Hand WHERE price >= 20 GROUP BY cust EXTRACTING RULES WITH SUPPORT: 0.3, CONFIDENCE: 0.1`},
		{"hand/G", hand, `MINE RULE H4 AS SELECT DISTINCT 1..n item AS BODY, 1..1 item AS HEAD
			FROM Hand GROUP BY cust HAVING COUNT(*) >= 3 EXTRACTING RULES WITH SUPPORT: 0.3, CONFIDENCE: 0.1`},
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
			if !tr.Class.Simple() {
				t.Fatalf("class %v is not simple", tr.Class)
			}
			res, err := Run(context.Background(), db, tr)
			if err != nil {
				t.Fatal(err)
			}
			n, g := tr.Names, st.GroupAttrs
			src := n.Source
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

			paperTotg, err := db.QueryInt(fmt.Sprintf(paperQ1, strings.Join(g, ", "), src))
			if err != nil {
				t.Fatal(err)
			}
			if res.Totg != int(paperTotg) {
				t.Errorf("totg = %d, paper Q1 gives %d", res.Totg, paperTotg)
			}

			const paperCoded = "mr_paper_codedsource"
			if err := db.ExecScript(fmt.Sprintf("CREATE TABLE %s (mr_gid INTEGER, mr_bid INTEGER); ", paperCoded) +
				fmt.Sprintf(paperQ4, paperCoded, src, n.ValidGroups, n.Bset,
					equiJoin("S", "V", g), equiJoin("S", "B", st.Body.Attrs))); err != nil {
				t.Fatal(err)
			}
			got, want := pairs(t, db, n.CodedSource), pairs(t, db, paperCoded)
			if len(want) == 0 {
				t.Fatal("paper CodedSource is empty: the case exercises nothing")
			}
			if strings.Join(got, " ") != strings.Join(want, " ") {
				t.Fatalf("CodedSource differs from the paper's Q4:\n got %v\nwant %v", got, want)
			}

			opts := mining.Options{
				MinSupport:    st.MinSupport,
				MinConfidence: st.MinConfidence,
				BodyCard:      mining.Card{Min: st.Body.Card.Min, Max: st.Body.Card.Max},
				HeadCard:      mining.Card{Min: st.Head.Card.Min, Max: st.Head.Card.Max},
			}
			gotRules := rules(t, db, n.CodedSource, res.Totg, opts)
			wantRules := rules(t, db, paperCoded, int(paperTotg), opts)
			if strings.HasPrefix(wantRules, "0 rules") {
				t.Fatal("the paper program mines no rules: the case exercises nothing")
			}
			if gotRules != wantRules {
				t.Fatalf("rules differ:\n got %s\nwant %s", gotRules, wantRules)
			}
		})
	}
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
