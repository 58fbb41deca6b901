package engine_test

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"minerule/internal/kernel/translator"
	mrparse "minerule/internal/minerule/parse"
	"minerule/internal/sql/engine"
	"minerule/internal/sql/parse"
	"minerule/internal/sql/semck"
)

// Two MINE RULE statements whose generated programs make up most of the
// differential corpus: the paper's Figure-1 statement (general class)
// and a market-basket statement (simple class).
const (
	figure1Mine = `MINE RULE FilteredOrderedSets AS
SELECT DISTINCT 1..n item AS BODY, 1..n item AS HEAD, SUPPORT, CONFIDENCE
WHERE BODY.price >= 100 AND HEAD.price < 100
FROM Purchase
WHERE dt BETWEEN DATE '1995-01-01' AND DATE '1995-12-31'
GROUP BY cust
CLUSTER BY dt HAVING BODY.dt < HEAD.dt
EXTRACTING RULES WITH SUPPORT: 0.2, CONFIDENCE: 0.3`
	basketMine = `MINE RULE BasketRules AS
SELECT DISTINCT 1..n item AS BODY, 1..1 item AS HEAD, SUPPORT, CONFIDENCE
FROM Baskets GROUP BY gid
EXTRACTING RULES WITH SUPPORT: 0.01, CONFIDENCE: 0.2`
	diffSetup = `
	CREATE TABLE Purchase (tr INTEGER, cust VARCHAR, item VARCHAR, dt DATE, price FLOAT, qty INTEGER);
	CREATE TABLE Baskets (gid INTEGER, item VARCHAR);
	CREATE TABLE pin (a INTEGER, b VARCHAR, d DATE);`
)

// kernelCorpus returns every statement the kernel's translation of stmt
// executes (cleanup drops, Q0–Q8, output setup, decode), with the
// support placeholder substituted.
func kernelCorpus(t *testing.T, db *engine.Database, stmt string) []string {
	t.Helper()
	st, err := mrparse.Parse(stmt)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := translator.Translate(db, st)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, o := range tr.Program.Cleanup {
		out = append(out, o.DropSQL())
	}
	for _, s := range tr.Program.Steps() {
		out = append(out, s.SQL)
	}
	out = append(out, tr.Program.Decode...)
	for i, q := range out {
		out[i] = strings.ReplaceAll(q, translator.MinGroupsPlaceholder, "1")
	}
	return out
}

// TestVerdictMemoDifferential runs seeded random DDL sequences and,
// after every DDL, holds the engine's memoised verdict for each corpus
// statement to a fresh semck.Check of the same text, error text
// included. The DDL re-runs the corpus's own CREATEs (identical
// re-creates, which the memo should replay) and mutates shapes (renamed
// and retyped columns, different view bodies, dropped objects), which
// it must not.
func TestVerdictMemoDifferential(t *testing.T) {
	db := engine.New()
	if err := db.ExecScript(diffSetup + engine.FuzzSemCheckSetup); err != nil {
		t.Fatal(err)
	}
	corpus := append(kernelCorpus(t, db, figure1Mine), kernelCorpus(t, db, basketMine)...)
	for _, seed := range engine.FuzzSemCheckSeeds {
		for _, q := range strings.Split(seed, ";") {
			if q = strings.TrimSpace(q); q != "" {
				corpus = append(corpus, q)
			}
		}
	}
	var parsed []parse.Statement
	var texts []string
	var creates []string // DDL the corpus itself issues
	for _, q := range corpus {
		st, err := parse.Parse(q)
		if err != nil {
			t.Fatalf("corpus statement does not parse: %v\n  %s", err, q)
		}
		parsed = append(parsed, st)
		texts = append(texts, q)
		switch st.(type) {
		case *parse.CreateTable, *parse.CreateView, *parse.CreateSequence, *parse.CreateIndex:
			creates = append(creates, q)
		}
	}

	rng := rand.New(rand.NewSource(20261017))
	// pin is the one table the DDL never touches, so the view bodies
	// below always have something to read.
	tables := func() []string {
		return slices.DeleteFunc(db.Catalog().TableNames(), func(n string) bool { return n == "pin" })
	}
	objects := func() []string {
		cat := db.Catalog()
		var out []string
		for _, n := range tables() {
			out = append(out, "TABLE "+n)
		}
		for _, n := range cat.ViewNames() {
			out = append(out, "VIEW "+n)
		}
		for _, n := range cat.SequenceNames() {
			out = append(out, "SEQUENCE "+n)
		}
		return out
	}
	ddl := func() string {
		switch rng.Intn(7) {
		case 0, 1:
			return creates[rng.Intn(len(creates))]
		case 2:
			// Every CREATE in program order, the way a kernel run
			// rebuilds its working objects.
			return strings.Join(creates, "; ")
		case 3:
			if objs := objects(); len(objs) > 0 {
				return "DROP " + objs[rng.Intn(len(objs))]
			}
		case 4:
			// Re-create a table under a mutated shape.
			if names := tables(); len(names) > 0 {
				n := names[rng.Intn(len(names))]
				tab, _ := db.Catalog().Table(n)
				var cols []string
				for i, c := range tab.Schema().Columns() {
					name, typ := c.Name, c.Type.String()
					switch {
					case i == 0 && rng.Intn(2) == 0:
						name += "_renamed"
					case i == 0:
						typ = map[string]string{"INTEGER": "VARCHAR"}[typ]
						if typ == "" {
							typ = "INTEGER"
						}
					}
					cols = append(cols, name+" "+typ)
				}
				return fmt.Sprintf("DROP TABLE %s; CREATE TABLE %s (%s)", n, n, strings.Join(cols, ", "))
			}
		case 5:
			if names := db.Catalog().ViewNames(); len(names) > 0 {
				n := names[rng.Intn(len(names))]
				bodies := []string{"SELECT a FROM pin", "SELECT a, b, d FROM pin", "SELECT b AS a FROM pin"}
				return fmt.Sprintf("DROP VIEW %s; CREATE VIEW %s AS %s", n, n, bodies[rng.Intn(len(bodies))])
			}
		}
		return "CREATE INDEX ix_t_a ON t (a)"
	}

	met := db.Metrics()
	reuse0 := met.SemckVerdictReuse.Load()
	for step := 0; step < 300; step++ {
		q := ddl()
		// DDL that collides or finds nothing is part of the mix, so
		// each statement runs on its own and may fail.
		for _, one := range strings.Split(q, "; ") {
			_, _ = db.Exec(one)
		}
		for i, st := range parsed {
			var want string
			if err := semck.Check(semck.FromStorage(db.Catalog()), st, texts[i]); err != nil {
				want = err.Error()
			}
			var got string
			if _, err := db.Prepare(texts[i]); err != nil {
				var se *semck.Error
				if !errors.As(err, &se) {
					t.Fatalf("step %d: Prepare(%q): %v", step, texts[i], err)
				}
				got = se.Error()
			}
			if got != want {
				t.Fatalf("step %d after %q:\n  stmt: %s\n  memo: %q\n  cold: %q", step, q, texts[i], got, want)
			}
		}
	}
	if met.SemckVerdictReuse.Load() == reuse0 {
		t.Error("no verdict was ever replayed; the test is not exercising the memo")
	}
}
