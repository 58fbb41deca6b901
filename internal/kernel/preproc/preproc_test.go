package preproc

import (
	"context"
	"strings"
	"testing"

	"minerule/internal/kernel/translator"
	mrparse "minerule/internal/minerule/parse"
	"minerule/internal/sql/engine"
)

func setup(t *testing.T, stmt string) (*engine.Database, *translator.Translation) {
	t.Helper()
	db := engine.New()
	err := db.ExecScript(`
		CREATE TABLE Purchase (tr INTEGER, cust VARCHAR, item VARCHAR, dt DATE, price FLOAT, qty INTEGER);
		INSERT INTO Purchase VALUES
			(1, 'c1', 'a', DATE '1995-01-01', 150, 1),
			(1, 'c1', 'b', DATE '1995-01-01',  50, 1),
			(2, 'c1', 'c', DATE '1995-01-05',  30, 1),
			(3, 'c2', 'a', DATE '1995-01-02', 150, 2),
			(3, 'c2', 'b', DATE '1995-01-02',  50, 1),
			(4, 'c3', 'b', DATE '1995-01-03',  50, 1);
	`)
	if err != nil {
		t.Fatal(err)
	}
	st, err := mrparse.Parse(stmt)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := translator.Translate(db, st)
	if err != nil {
		t.Fatal(err)
	}
	return db, tr
}

const simpleStmt = `MINE RULE S AS
	SELECT DISTINCT 1..n item AS BODY, 1..1 item AS HEAD
	FROM Purchase GROUP BY cust
	EXTRACTING RULES WITH SUPPORT: 0.5, CONFIDENCE: 0.1`

const generalStmt = `MINE RULE G AS
	SELECT DISTINCT 1..n item AS BODY, 1..1 item AS HEAD
	WHERE BODY.price >= 100 AND HEAD.price < 100
	FROM Purchase GROUP BY cust
	CLUSTER BY dt HAVING BODY.dt <= HEAD.dt
	EXTRACTING RULES WITH SUPPORT: 0.5, CONFIDENCE: 0.1`

func TestSimplePreprocessing(t *testing.T) {
	db, tr := setup(t, simpleStmt)
	res, err := Run(context.Background(), db, tr)
	if err != nil {
		t.Fatal(err)
	}
	if res.Totg != 3 {
		t.Errorf("totg = %d, want 3", res.Totg)
	}
	// support 0.5 of 3 groups → mingroups 2.
	if res.MinGroups != 2 {
		t.Errorf("mingroups = %d, want 2", res.MinGroups)
	}
	// Items in ≥2 groups: a (c1,c2), b (c1,c2,c3).
	n, err := db.QueryInt("SELECT COUNT(*) FROM mr_s_bset")
	if err != nil || n != 2 {
		t.Errorf("Bset rows = %d (%v)", n, err)
	}
	// CodedSource only carries large items: c1{a,b}, c2{a,b}, c3{b}.
	n, err = db.QueryInt("SELECT COUNT(*) FROM mr_s_codedsource")
	if err != nil || n != 5 {
		t.Errorf("CodedSource rows = %d (%v)", n, err)
	}
	// gcount recorded per item.
	n, err = db.QueryInt("SELECT mr_gcount FROM mr_s_bset WHERE item = 'b'")
	if err != nil || n != 3 {
		t.Errorf("gcount(b) = %d (%v)", n, err)
	}
}

func TestGeneralPreprocessing(t *testing.T) {
	db, tr := setup(t, generalStmt)
	res, err := Run(context.Background(), db, tr)
	if err != nil {
		t.Fatal(err)
	}
	if res.Totg != 3 || res.MinGroups != 2 {
		t.Fatalf("totg/mingroups = %d/%d", res.Totg, res.MinGroups)
	}
	// Clusters: c1 has 2 dates, c2 and c3 one each.
	n, err := db.QueryInt("SELECT COUNT(*) FROM mr_g_clusters")
	if err != nil || n != 4 {
		t.Errorf("clusters = %d (%v)", n, err)
	}
	// Couples under dt <= dt: c1 (d1,d1),(d1,d5),(d5,d5); c2 (d,d); c3 (d,d).
	n, err = db.QueryInt("SELECT COUNT(*) FROM mr_g_clustercouples")
	if err != nil || n != 5 {
		t.Errorf("couples = %d (%v)", n, err)
	}
	// Elementary rules: body price>=100 (a), head price<100 (b) in a
	// valid couple of the same group: (a,b) in c1 same-date and c2
	// same-date. Support 2 ≥ mingroups ✓.
	n, err = db.QueryInt("SELECT COUNT(DISTINCT mr_gid) FROM mr_g_inputrules")
	if err != nil || n != 2 {
		t.Errorf("input-rule groups = %d (%v)", n, err)
	}
	n, err = db.QueryInt("SELECT COUNT(*) FROM mr_g_largerules WHERE mr_scount >= 2")
	if err != nil || n != 1 {
		t.Errorf("large elementary rules = %d (%v)", n, err)
	}
}

func TestStepTraceAndRerun(t *testing.T) {
	db, tr := setup(t, simpleStmt)
	if _, err := Run(context.Background(), db, tr); err != nil {
		t.Fatal(err)
	}
	// Running again must succeed: the cleanup drops the previous
	// objects.
	res, err := Run(context.Background(), db, tr)
	if err != nil {
		t.Fatalf("second run: %v", err)
	}
	names := make(map[string]bool)
	for _, s := range res.StepDurations {
		names[s.Name] = true
	}
	for _, want := range []string{"Q2", "Q3", "Q4", "output"} {
		if !names[want] {
			t.Errorf("step %s missing", want)
		}
	}
	if names["Q0"] != tr.Class.W {
		t.Errorf("step Q0 present = %v, want %v", names["Q0"], tr.Class.W)
	}
	// Q1 runs exactly when a group condition keeps it from folding
	// into Q2.
	if names["Q1"] != tr.Class.G {
		t.Errorf("step Q1 present = %v, want %v", names["Q1"], tr.Class.G)
	}
	Drop(db, tr)
	if _, ok := db.Catalog().Table("mr_s_bset"); ok {
		t.Error("Drop left Bset behind")
	}
	if db.Catalog().Exists("mr_s_source") {
		t.Error("a run without W created Source")
	}
	if n, err := db.QueryInt("SELECT COUNT(*) FROM Purchase"); err != nil || n != 6 {
		t.Errorf("Purchase after Drop: %d rows (%v)", n, err)
	}
}

func TestRunFailureSurfacesStep(t *testing.T) {
	db, tr := setup(t, simpleStmt)
	// Sabotage: occupy a working name with an incompatible object kind
	// that the cleanup cannot remove (a sequence named like the table).
	if _, err := db.Catalog().CreateSequence("mr_s_bset"); err != nil {
		t.Fatal(err)
	}
	_, err := Run(context.Background(), db, tr)
	if err == nil {
		t.Fatal("expected failure")
	}
	if !strings.Contains(err.Error(), "Q3") {
		t.Errorf("error does not name the failing step: %v", err)
	}
}
