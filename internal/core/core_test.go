package core

import (
	"fmt"
	"sort"
	"strings"
	"testing"
	"time"

	"minerule/internal/sql/engine"
)

// purchaseDB loads the paper's Figure 1 Purchase table.
func purchaseDB(t testing.TB) *engine.Database {
	t.Helper()
	db := engine.New()
	err := db.ExecScript(`
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
	return db
}

// paperStatement is the §2 example: premises at >= $100 followed, on a
// later date by the same customer, by consequences under $100.
const paperStatement = `
MINE RULE FilteredOrderedSets AS
SELECT DISTINCT 1..n item AS BODY, 1..n item AS HEAD, SUPPORT, CONFIDENCE
WHERE BODY.price >= 100 AND HEAD.price < 100
FROM Purchase
WHERE dt BETWEEN DATE '1995-01-01' AND DATE '1995-12-31'
GROUP BY cust
CLUSTER BY dt HAVING BODY.dt < HEAD.dt
EXTRACTING RULES WITH SUPPORT: 0.2, CONFIDENCE: 0.3`

// ruleStrings renders decoded rules canonically: {a,b} => {c} (s, c).
func ruleStrings(t *testing.T, db *engine.Database, res *Result) []string {
	t.Helper()
	rules, err := ReadRules(db, res)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]string, 0, len(rules))
	for _, r := range rules {
		var body, head []string
		for _, tup := range r.Body {
			body = append(body, strings.Join(tup, "/"))
		}
		for _, tup := range r.Head {
			head = append(head, strings.Join(tup, "/"))
		}
		sort.Strings(body)
		sort.Strings(head)
		s := "{" + strings.Join(body, ",") + "} => {" + strings.Join(head, ",") + "}"
		if res.Statement.WantSupport || res.Statement.WantConfidence {
			s += fmt.Sprintf(" (%g, %g)", r.Support, r.Confidence)
		}
		out = append(out, s)
	}
	sort.Strings(out)
	return out
}

// TestE1PaperExample reproduces Figure 2.b exactly: the three rules with
// their support and confidence values.
func TestE1PaperExample(t *testing.T) {
	db := purchaseDB(t)
	res, err := Mine(db, paperStatement, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Class.Simple() {
		t.Error("the paper example is a general statement")
	}
	if !res.Class.C || !res.Class.K || !res.Class.M || !res.Class.W {
		t.Errorf("classification = %s, want C, K, M, W set", res.Class)
	}
	if res.Class.H || res.Class.G {
		t.Errorf("classification = %s: H and G must be false", res.Class)
	}
	if res.TotalGroups != 2 {
		t.Errorf("totg = %d, want 2", res.TotalGroups)
	}
	if res.MinGroups != 1 {
		t.Errorf("mingroups = %d, want 1", res.MinGroups)
	}

	got := ruleStrings(t, db, res)
	want := []string{
		"{brown_boots,jackets} => {col_shirts} (0.5, 1)",
		"{brown_boots} => {col_shirts} (0.5, 1)",
		"{jackets} => {col_shirts} (0.5, 0.5)",
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Fatalf("Figure 2.b mismatch:\ngot:\n  %s\nwant:\n  %s",
			strings.Join(got, "\n  "), strings.Join(want, "\n  "))
	}
	if res.RuleCount != 3 {
		t.Errorf("rule count = %d", res.RuleCount)
	}
	if res.Algorithm != "rule-lattice" {
		t.Errorf("algorithm = %s", res.Algorithm)
	}
}

func TestSimpleStatementPipeline(t *testing.T) {
	db := purchaseDB(t)
	// Classic basket rules grouped by transaction.
	res, err := Mine(db, `
		MINE RULE Baskets AS
		SELECT DISTINCT 1..n item AS BODY, 1..1 item AS HEAD, SUPPORT, CONFIDENCE
		FROM Purchase
		GROUP BY tr
		EXTRACTING RULES WITH SUPPORT: 0.5, CONFIDENCE: 0.8`, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Class.Simple() {
		t.Errorf("classification = %s, want simple", res.Class)
	}
	if res.TotalGroups != 4 {
		t.Errorf("totg = %d", res.TotalGroups)
	}
	got := ruleStrings(t, db, res)
	// Transactions: {ski_pants,hiking_boots}, {col_shirts,brown_boots,
	// jackets}, {jackets}, {col_shirts,jackets}. At s>=0.5 (2 of 4
	// groups) large itemsets: jackets(3), col_shirts(2),
	// {col_shirts,jackets}(2). Confident (>=0.8) rules with 1-item head:
	// col_shirts => jackets (2/2 = 1).
	want := []string{"{col_shirts} => {jackets} (0.5, 1)"}
	if strings.Join(got, ";") != strings.Join(want, ";") {
		t.Fatalf("got %v, want %v", got, want)
	}
}

func TestAllAlgorithmsAgreeThroughPipeline(t *testing.T) {
	for _, algo := range []Algorithm{"", AlgoApriori, AlgoBitmap} {
		db := purchaseDB(t)
		res, err := Mine(db, `
			MINE RULE Baskets AS
			SELECT DISTINCT 1..n item AS BODY, 1..1 item AS HEAD, SUPPORT, CONFIDENCE
			FROM Purchase
			GROUP BY tr
			EXTRACTING RULES WITH SUPPORT: 0.4, CONFIDENCE: 0.5`, Options{Algorithm: algo})
		if err != nil {
			t.Fatalf("%s: %v", algo, err)
		}
		wantAlgo := string(algo)
		if algo == "" {
			wantAlgo = "bitmap" // the default member
		}
		if res.Algorithm != wantAlgo {
			t.Errorf("%q: Result.Algorithm = %q, want %q", algo, res.Algorithm, wantAlgo)
		}
		got := ruleStrings(t, db, res)
		want := []string{
			"{col_shirts} => {jackets} (0.5, 1)",
			"{jackets} => {col_shirts} (0.5, 0.6666666666666666)",
		}
		if strings.Join(got, ";") != strings.Join(want, ";") {
			t.Errorf("%s: got %v", algo, got)
		}
	}
}

func TestGroupHaving(t *testing.T) {
	db := purchaseDB(t)
	// Only customers with at least 4 purchase rows participate (cust2).
	res, err := Mine(db, `
		MINE RULE BigCust AS
		SELECT DISTINCT 1..n item AS BODY, 1..1 item AS HEAD, SUPPORT, CONFIDENCE
		FROM Purchase
		GROUP BY cust HAVING COUNT(*) >= 4
		EXTRACTING RULES WITH SUPPORT: 0.5, CONFIDENCE: 1.0`, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Class.G || !res.Class.R {
		t.Errorf("classification = %s, want G and R", res.Class)
	}
	// totg counts ALL groups (Q1 runs before the HAVING), per Appendix A.
	if res.TotalGroups != 2 {
		t.Errorf("totg = %d, want 2", res.TotalGroups)
	}
	got := ruleStrings(t, db, res)
	// Only cust2's items mine: {col_shirts, brown_boots, jackets}; each
	// occurs in 1 of 2 groups = support 0.5.
	for _, r := range got {
		if strings.Contains(r, "ski_pants") || strings.Contains(r, "hiking_boots") {
			t.Errorf("cust1 item leaked into %s", r)
		}
	}
	if len(got) == 0 {
		t.Fatal("expected rules from cust2")
	}
}

func TestReplaceOutput(t *testing.T) {
	db := purchaseDB(t)
	stmt := `
		MINE RULE R AS
		SELECT DISTINCT 1..n item AS BODY, 1..1 item AS HEAD, SUPPORT, CONFIDENCE
		FROM Purchase GROUP BY tr
		EXTRACTING RULES WITH SUPPORT: 0.5, CONFIDENCE: 0.8`
	if _, err := Mine(db, stmt, Options{}); err != nil {
		t.Fatal(err)
	}
	if _, err := Mine(db, stmt, Options{}); err == nil {
		t.Fatal("second run without ReplaceOutput must fail")
	}
	if _, err := Mine(db, stmt, Options{ReplaceOutput: true}); err != nil {
		t.Fatalf("ReplaceOutput run: %v", err)
	}
	n, err := db.QueryInt("SELECT COUNT(*) FROM R")
	if err != nil || n != 1 {
		t.Fatalf("rules after replace = %d (%v)", n, err)
	}
}

func TestKeepEncoded(t *testing.T) {
	db := purchaseDB(t)
	stmt := `
		MINE RULE R AS
		SELECT DISTINCT 1..n item AS BODY, 1..1 item AS HEAD
		FROM Purchase GROUP BY tr
		EXTRACTING RULES WITH SUPPORT: 0.5, CONFIDENCE: 0.8`
	if _, err := Mine(db, stmt, Options{KeepEncoded: true}); err != nil {
		t.Fatal(err)
	}
	if _, ok := db.Catalog().Table("mr_r_bset"); !ok {
		t.Error("Bset dropped despite KeepEncoded")
	}
	db2 := purchaseDB(t)
	if _, err := Mine(db2, stmt, Options{}); err != nil {
		t.Fatal(err)
	}
	if _, ok := db2.Catalog().Table("mr_r_bset"); ok {
		t.Error("Bset kept without KeepEncoded")
	}
	// Output tables persist either way.
	if _, ok := db2.Catalog().Table("R"); !ok {
		t.Error("output table missing")
	}
}

func TestOutputColumnsFollowFlags(t *testing.T) {
	db := purchaseDB(t)
	res, err := Mine(db, `
		MINE RULE NoMeasures AS
		SELECT DISTINCT 1..n item AS BODY, 1..1 item AS HEAD
		FROM Purchase GROUP BY tr
		EXTRACTING RULES WITH SUPPORT: 0.5, CONFIDENCE: 0.8`, Options{})
	if err != nil {
		t.Fatal(err)
	}
	q, err := db.Query("SELECT * FROM " + res.OutputTable)
	if err != nil {
		t.Fatal(err)
	}
	if q.Schema.Len() != 2 {
		t.Fatalf("columns = %d, want 2 (no SUPPORT/CONFIDENCE)", q.Schema.Len())
	}
}

func TestHeterogeneousSchemaStatement(t *testing.T) {
	db := purchaseDB(t)
	err := db.ExecScript(`
		CREATE TABLE Products (pitem VARCHAR, category VARCHAR);
		INSERT INTO Products VALUES
			('ski_pants', 'outdoor'), ('hiking_boots', 'outdoor'),
			('col_shirts', 'clothing'), ('brown_boots', 'footwear'),
			('jackets', 'clothing');
	`)
	if err != nil {
		t.Fatal(err)
	}
	// Body on item, head on category: "customers who buy these items buy
	// from these categories".
	res, err := Mine(db, `
		MINE RULE CrossSchema AS
		SELECT DISTINCT 1..1 item AS BODY, 1..1 category AS HEAD, SUPPORT, CONFIDENCE
		FROM Purchase, Products
		WHERE Purchase.item = Products.pitem
		GROUP BY cust
		EXTRACTING RULES WITH SUPPORT: 0.9, CONFIDENCE: 0.9`, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Class.H || !res.Class.W {
		t.Errorf("classification = %s, want H and W", res.Class)
	}
	got := ruleStrings(t, db, res)
	// Both customers bought jackets (clothing): {jackets} => {clothing}
	// has support 1. cust1: categories outdoor+clothing; cust2:
	// clothing+footwear.
	found := false
	for _, r := range got {
		if strings.HasPrefix(r, "{jackets} => {clothing}") {
			found = true
		}
	}
	if !found {
		t.Fatalf("{jackets} => {clothing} missing: %v", got)
	}
}

func TestClusterWithoutHaving(t *testing.T) {
	db := purchaseDB(t)
	// CLUSTER BY without HAVING: all cluster pairs valid (C, not K).
	res, err := Mine(db, `
		MINE RULE AllPairs AS
		SELECT DISTINCT 1..1 item AS BODY, 1..1 item AS HEAD, SUPPORT, CONFIDENCE
		FROM Purchase
		GROUP BY cust
		CLUSTER BY dt
		EXTRACTING RULES WITH SUPPORT: 0.9, CONFIDENCE: 0.1
	`, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Class.C || res.Class.K {
		t.Errorf("classification = %s, want C without K", res.Class)
	}
	// jackets appears in both groups (in some cluster), so the pair
	// (jackets body-cluster, jackets... ) — bodies and heads must be
	// different items, so look for a cross pair present in both groups.
	// cust1 clusters: {ski_pants,hiking_boots},{jackets};
	// cust2: {col_shirts,brown_boots,jackets},{col_shirts,jackets}.
	// No body=>head pair occurs in both groups except those involving
	// jackets with cust-specific partners — so at support 0.9 nothing
	// survives.
	if res.RuleCount != 0 {
		t.Errorf("expected no rules at support 0.9, got %d", res.RuleCount)
	}
}

func TestErrorSurfaces(t *testing.T) {
	db := purchaseDB(t)
	cases := map[string]string{
		"unknown table": `MINE RULE R AS SELECT DISTINCT item AS BODY, item AS HEAD
			FROM Missing GROUP BY cust EXTRACTING RULES WITH SUPPORT: 0.1, CONFIDENCE: 0.1`,
		"unknown attribute": `MINE RULE R AS SELECT DISTINCT wrong AS BODY, item AS HEAD
			FROM Purchase GROUP BY cust EXTRACTING RULES WITH SUPPORT: 0.1, CONFIDENCE: 0.1`,
		"body overlaps grouping": `MINE RULE R AS SELECT DISTINCT cust AS BODY, item AS HEAD
			FROM Purchase GROUP BY cust EXTRACTING RULES WITH SUPPORT: 0.1, CONFIDENCE: 0.1`,
		"cluster overlaps grouping": `MINE RULE R AS SELECT DISTINCT item AS BODY, item AS HEAD
			FROM Purchase GROUP BY cust CLUSTER BY cust EXTRACTING RULES WITH SUPPORT: 0.1, CONFIDENCE: 0.1`,
		"mining cond on grouping attr": `MINE RULE R AS SELECT DISTINCT item AS BODY, item AS HEAD
			WHERE BODY.cust = 'x' FROM Purchase GROUP BY cust EXTRACTING RULES WITH SUPPORT: 0.1, CONFIDENCE: 0.1`,
		"unqualified mining cond": `MINE RULE R AS SELECT DISTINCT item AS BODY, item AS HEAD
			WHERE price > 10 FROM Purchase GROUP BY cust EXTRACTING RULES WITH SUPPORT: 0.1, CONFIDENCE: 0.1`,
		"group having on non-group attr": `MINE RULE R AS SELECT DISTINCT item AS BODY, item AS HEAD
			FROM Purchase GROUP BY cust HAVING price > 10 EXTRACTING RULES WITH SUPPORT: 0.1, CONFIDENCE: 0.1`,
	}
	for name, stmt := range cases {
		if _, err := Mine(db, stmt, Options{}); err == nil {
			t.Errorf("%s: expected error", name)
		}
	}
}

func TestTimingsPopulated(t *testing.T) {
	db := purchaseDB(t)
	res, err := Mine(db, paperStatement, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Timings.Total() <= 0 {
		t.Error("timings not recorded")
	}
	if len(res.PreprocSteps) == 0 {
		t.Error("preprocessing steps not recorded")
	}
	names := make(map[string]bool)
	for _, s := range res.PreprocSteps {
		names[s.Name] = true
	}
	for _, want := range []string{"Q0", "Q2", "Q3", "Q6", "Q7", "Q4", "output", "Q8"} {
		if !names[want] {
			t.Errorf("step %s missing from trace (have %v)", want, res.PreprocSteps)
		}
	}
	// Q8 runs last, and its time is preprocessing time.
	var stepSum time.Duration
	for _, s := range res.PreprocSteps {
		stepSum += s.Duration
	}
	if last := res.PreprocSteps[len(res.PreprocSteps)-1]; last.Name != "Q8" {
		t.Errorf("last step = %s, want Q8", last.Name)
	}
	if stepSum > res.Timings.Preprocess {
		t.Errorf("steps sum to %v, more than the preprocess phase %v", stepSum, res.Timings.Preprocess)
	}
	if names["Q9"] || names["Q10"] {
		t.Errorf("Q9/Q10 ran (have %v)", res.PreprocSteps)
	}
	// Q1 runs only under a group condition; otherwise it folds into Q2.
	if names["Q1"] != res.Class.G {
		t.Errorf("step Q1 present = %v, want %v (have %v)", names["Q1"], res.Class.G, res.PreprocSteps)
	}
	if names["Q5"] {
		t.Error("Q5 must be absent when H is false")
	}
}
