package minerule_test

import (
	"strings"
	"testing"

	"minerule"
)

func newSystem(t *testing.T) *minerule.System {
	t.Helper()
	sys, _ := minerule.Open()
	err := sys.ExecScript(`
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
	`)
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

func TestPublicAPIPaperExample(t *testing.T) {
	sys := newSystem(t)
	res, err := sys.Mine(`
		MINE RULE FilteredOrderedSets AS
		SELECT DISTINCT 1..n item AS BODY, 1..n item AS HEAD, SUPPORT, CONFIDENCE
		WHERE BODY.price >= 100 AND HEAD.price < 100
		FROM Purchase
		WHERE dt BETWEEN DATE '1995-01-01' AND DATE '1995-12-31'
		GROUP BY cust
		CLUSTER BY dt HAVING BODY.dt < HEAD.dt
		EXTRACTING RULES WITH SUPPORT: 0.2, CONFIDENCE: 0.3`)
	if err != nil {
		t.Fatal(err)
	}
	if res.RuleCount != 3 || len(res.Rules) != 3 {
		t.Fatalf("rules = %d/%d, want 3", res.RuleCount, len(res.Rules))
	}
	if res.Simple {
		t.Error("Simple = true for a general statement")
	}
	if res.Class != "{W,M,C,K}" {
		t.Errorf("Class = %s", res.Class)
	}
	if res.Algorithm != "rule-lattice" {
		t.Errorf("Algorithm = %s", res.Algorithm)
	}
	if res.OutputTable != "FilteredOrderedSets" ||
		res.BodiesTable != "FilteredOrderedSets_Bodies" ||
		res.HeadsTable != "FilteredOrderedSets_Heads" {
		t.Errorf("tables = %s/%s/%s", res.OutputTable, res.BodiesTable, res.HeadsTable)
	}
	// Rule rendering matches the paper's set notation.
	var all []string
	for _, r := range res.Rules {
		all = append(all, r.String())
	}
	joined := strings.Join(all, "\n")
	for _, want := range []string{
		"{brown_boots} => {col_shirts} (s=0.5, c=1)",
		"{jackets} => {col_shirts} (s=0.5, c=0.5)",
	} {
		if !strings.Contains(joined, want) {
			t.Errorf("missing %q in:\n%s", want, joined)
		}
	}
	if res.Timings.Total() <= 0 {
		t.Error("timings missing")
	}
}

func TestPublicAPIQueryAndOptions(t *testing.T) {
	sys := newSystem(t)
	stmt := `MINE RULE R AS
		SELECT DISTINCT 1..n item AS BODY, 1..1 item AS HEAD, SUPPORT, CONFIDENCE
		FROM Purchase GROUP BY tr
		EXTRACTING RULES WITH SUPPORT: 0.5, CONFIDENCE: 0.8`
	res, err := sys.Mine(stmt, minerule.WithAlgorithm(minerule.Apriori))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Simple || res.Algorithm != "apriori" {
		t.Errorf("algorithm = %s (simple=%v)", res.Algorithm, res.Simple)
	}
	// Second run fails without replace, succeeds with.
	if _, err := sys.Mine(stmt); err == nil {
		t.Fatal("expected output-exists error")
	}
	if _, err := sys.Mine(stmt, minerule.WithReplaceOutput()); err != nil {
		t.Fatal(err)
	}
	// Query the stored output like any table.
	tab, err := sys.Query("SELECT BodyId, HeadId FROM R")
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Columns) != 2 || tab.Columns[0] != "BodyId" {
		t.Errorf("columns = %v", tab.Columns)
	}
	if len(tab.Rows) != res.RuleCount {
		t.Errorf("rows = %d, rules = %d", len(tab.Rows), res.RuleCount)
	}
	n, err := sys.QueryInt("SELECT COUNT(*) FROM R")
	if err != nil || int(n) != res.RuleCount {
		t.Errorf("QueryInt = %d (%v)", n, err)
	}
}

func TestPublicAPIKeepEncoded(t *testing.T) {
	sys := newSystem(t)
	stmt := `MINE RULE R AS
		SELECT DISTINCT 1..n item AS BODY, 1..1 item AS HEAD
		FROM Purchase GROUP BY tr
		EXTRACTING RULES WITH SUPPORT: 0.5, CONFIDENCE: 0.8`
	if _, err := sys.Mine(stmt, minerule.WithKeepEncoded()); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Query("SELECT * FROM mr_r_bset"); err != nil {
		t.Errorf("encoded tables missing: %v", err)
	}
}

func TestPublicAPICSV(t *testing.T) {
	sys, _ := minerule.Open()
	n, err := sys.ImportCSV("T", []string{"gid:int", "item:string"},
		strings.NewReader("1,a\n1,b\n2,a\n2,b\n3,a\n"))
	if err != nil || n != 5 {
		t.Fatalf("import = %d (%v)", n, err)
	}
	res, err := sys.Mine(`MINE RULE R AS
		SELECT DISTINCT 1..n item AS BODY, 1..1 item AS HEAD, SUPPORT, CONFIDENCE
		FROM T GROUP BY gid
		EXTRACTING RULES WITH SUPPORT: 0.5, CONFIDENCE: 0.5`)
	if err != nil {
		t.Fatal(err)
	}
	if res.RuleCount != 2 {
		t.Fatalf("rules = %d, want 2 (a=>b, b=>a)", res.RuleCount)
	}
	var out strings.Builder
	if err := sys.ExportCSV(&out, "SELECT BodyId FROM R"); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(out.String(), "BodyId\n") {
		t.Errorf("export = %q", out.String())
	}
}

func TestPublicAPIErrors(t *testing.T) {
	sys, _ := minerule.Open()
	if err := sys.Exec("SELECT * FROM missing"); err == nil {
		t.Error("Exec on missing table must fail")
	}
	if _, err := sys.Mine("MINE RULE garbage"); err == nil {
		t.Error("bad statement must fail")
	}
	if _, err := sys.Query("CREATE TABLE t (a INTEGER)"); err == nil {
		t.Error("Query on DDL must fail")
	}
}

func TestRuleStringFormat(t *testing.T) {
	r := minerule.Rule{
		Body:       [][]string{{"a"}, {"b"}},
		Head:       [][]string{{"c", "10"}},
		Support:    0.25,
		Confidence: 1,
	}
	if got := r.String(); got != "{a, b} => {c/10} (s=0.25, c=1)" {
		t.Errorf("String = %q", got)
	}
}

// ruleStrings renders a result's rules for comparison.
func ruleStrings(res *minerule.MiningResult) []string {
	out := make([]string, len(res.Rules))
	for i, r := range res.Rules {
		out[i] = r.String()
	}
	return out
}

// TestReuseRefusedAfterSourceWrite: encoded tables kept by one mine are
// reused only while the source table is exactly as that mine read it.
// A write to the source, or a drop and re-create with the same rows,
// must send the next mine back through preprocessing, and its rules
// must equal a fresh mine of the current data.
func TestReuseRefusedAfterSourceWrite(t *testing.T) {
	const stmt = `MINE RULE R AS
		SELECT DISTINCT 1..n item AS BODY, 1..1 item AS HEAD, SUPPORT, CONFIDENCE
		FROM Purchase GROUP BY tr
		EXTRACTING RULES WITH SUPPORT: 0.25, CONFIDENCE: 0.5`
	const insert = `INSERT INTO Purchase VALUES
		(5, 'cust3', 'ski_pants',    DATE '1995-12-20', 140, 1),
		(5, 'cust3', 'col_shirts',   DATE '1995-12-20',  25, 1),
		(6, 'cust3', 'ski_pants',    DATE '1995-12-21', 140, 1),
		(6, 'cust3', 'col_shirts',   DATE '1995-12-21',  25, 1)`
	keep := []minerule.Option{minerule.WithKeepEncoded(), minerule.WithReuseEncoded(), minerule.WithReplaceOutput()}

	sys := newSystem(t)
	if _, err := sys.Mine(stmt, keep...); err != nil {
		t.Fatal(err)
	}
	untouched, err := sys.Mine(stmt, keep...)
	if err != nil {
		t.Fatal(err)
	}
	if !untouched.Reused {
		t.Fatal("an untouched source was not reused")
	}

	if err := sys.Exec(insert); err != nil {
		t.Fatal(err)
	}
	afterInsert, err := sys.Mine(stmt, keep...)
	if err != nil {
		t.Fatal(err)
	}
	fresh := newSystem(t)
	if err := fresh.Exec(insert); err != nil {
		t.Fatal(err)
	}
	want, err := fresh.Mine(stmt)
	if err != nil {
		t.Fatal(err)
	}
	if afterInsert.Reused {
		t.Error("reused encoded tables after an INSERT into the source")
	}
	if got, w := strings.Join(ruleStrings(afterInsert), "\n"), strings.Join(ruleStrings(want), "\n"); got != w {
		t.Errorf("rules after INSERT:\n%s\nwant (fresh mine):\n%s", got, w)
	}

	// Same rows, new table: the kept encoding describes a table that
	// no longer exists.
	rows, err := sys.Query("SELECT * FROM Purchase")
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.ExecScript(`
		CREATE TABLE Purchase2 (tr INTEGER, cust VARCHAR, item VARCHAR, dt DATE, price FLOAT, qty INTEGER);
		INSERT INTO Purchase2 SELECT * FROM Purchase;
		DROP TABLE Purchase;
		CREATE TABLE Purchase (tr INTEGER, cust VARCHAR, item VARCHAR, dt DATE, price FLOAT, qty INTEGER);
		INSERT INTO Purchase SELECT * FROM Purchase2;
		DROP TABLE Purchase2;
	`); err != nil {
		t.Fatal(err)
	}
	if n, err := sys.QueryInt("SELECT COUNT(*) FROM Purchase"); err != nil || int(n) != len(rows.Rows) {
		t.Fatalf("re-created table has %d rows (%v), want %d", n, err, len(rows.Rows))
	}
	recreated, err := sys.Mine(stmt, keep...)
	if err != nil {
		t.Fatal(err)
	}
	if recreated.Reused {
		t.Error("reused encoded tables across DROP and re-CREATE of the source")
	}
	again, err := sys.Mine(stmt, keep...)
	if err != nil {
		t.Fatal(err)
	}
	if !again.Reused {
		t.Error("the re-created source, untouched since the last mine, was not reused")
	}
}
