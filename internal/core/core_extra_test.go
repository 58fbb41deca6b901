package core

import (
	"fmt"
	"strings"
	"testing"

	"minerule/internal/gen"
	"minerule/internal/sql/engine"
)

// TestMultiAttributeSchemas mines with a two-attribute body schema: rule
// elements are (item, qty) pairs, exercising composite encoding in Bset
// and the decode join.
func TestMultiAttributeSchemas(t *testing.T) {
	db := purchaseDB(t)
	res, err := Mine(db, `
		MINE RULE Pairs AS
		SELECT DISTINCT 1..n item, qty AS BODY, 1..1 item AS HEAD, SUPPORT, CONFIDENCE
		FROM Purchase
		GROUP BY cust
		EXTRACTING RULES WITH SUPPORT: 0.9, CONFIDENCE: 0.5`, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Body and head schemas differ (item,qty vs item) → H.
	if !res.Class.H {
		t.Errorf("class = %s, want H", res.Class)
	}
	// Both customers bought (jackets, 1)? cust1: jackets qty 1; cust2:
	// jackets qty 1 (tr 2) and 2 (tr 4). So body (jackets,1) has
	// support 1, head jackets too.
	rules, err := ReadRules(db, res)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, r := range rules {
		for _, b := range r.Body {
			if len(b) == 2 && b[0] == "jackets" && b[1] == "1" {
				found = true
			}
		}
	}
	if !found {
		t.Fatalf("no rule with composite body (jackets, 1): %v", rules)
	}
	// The _Bodies table carries both attributes.
	q, err := db.Query("SELECT * FROM Pairs_Bodies")
	if err != nil {
		t.Fatal(err)
	}
	if q.Schema.Len() != 3 { // BodyId, item, qty
		t.Fatalf("bodies schema = %s", q.Schema)
	}
}

// TestClusterAggregateCondition exercises the F variable: an aggregate
// over cluster contents inside the cluster HAVING.
func TestClusterAggregateCondition(t *testing.T) {
	db := purchaseDB(t)
	// Pairs of dates where the body date's total spend exceeds 300 and
	// the head is later: for cust2, 12/18 totals 25*2+150+300 = 475+?
	// (price*qty: 50+150+300=500); 12/19 totals 75+600=675. For cust1,
	// 12/17 totals 320, 12/18 totals 300.
	res, err := Mine(db, `
		MINE RULE BigDays AS
		SELECT DISTINCT 1..1 item AS BODY, 1..1 item AS HEAD, SUPPORT, CONFIDENCE
		FROM Purchase
		GROUP BY cust
		CLUSTER BY dt HAVING BODY.dt < HEAD.dt AND SUM(BODY.price) > 330
		EXTRACTING RULES WITH SUPPORT: 0.4, CONFIDENCE: 0.1`, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Class.F || !res.Class.K {
		t.Fatalf("class = %s, want F and K", res.Class)
	}
	// Only cust2's (12/18 → 12/19) pair qualifies (sum 475 > 330; cust1's
	// 12/17 sums 320). Rules: bodies from {col_shirts, brown_boots,
	// jackets}, heads from {col_shirts, jackets} minus same item.
	rules, err := ReadRules(db, res)
	if err != nil {
		t.Fatal(err)
	}
	if len(rules) == 0 {
		t.Fatal("expected rules from cust2's heavy day")
	}
	for _, r := range rules {
		if r.Support != 0.5 {
			t.Errorf("support = %g, want 0.5 (only cust2 qualifies): %v", r.Support, r)
		}
	}
}

// TestExplain checks the dry-run path: programs without execution.
func TestExplain(t *testing.T) {
	db := purchaseDB(t)
	ex, err := Explain(db, paperStatement)
	if err != nil {
		t.Fatal(err)
	}
	if ex.Simple {
		t.Error("paper statement explained as simple")
	}
	if ex.Class.String() != "{W,M,C,K}" {
		t.Errorf("class = %s", ex.Class)
	}
	var names []string
	for _, s := range ex.Steps {
		if len(names) == 0 || names[len(names)-1] != s.Name {
			names = append(names, s.Name)
		}
	}
	if got, want := strings.Join(names, ","), "Q0,Q2,Q3,Q6,Q7,Q4,output,Q8"; got != want {
		t.Errorf("steps = %s, want %s", got, want)
	}
	// Q8 is the streamed SELECT, with a comment naming the paper steps
	// it replaces.
	q8 := ex.Steps[len(ex.Steps)-1].SQL
	if !strings.HasPrefix(q8, "SELECT ") || !strings.Contains(q8, "-- streams into the core") ||
		!strings.Contains(q8, "Q9") || !strings.Contains(q8, "Q10") {
		t.Errorf("Q8 = %s", q8)
	}
	if len(ex.Decode) == 0 || ex.Q1 == "" {
		t.Error("decode programs or Q1 missing")
	}
	// Without a group condition Q1 is folded into Q2, and says so.
	if !strings.Contains(ex.Q1, "folded into Q2") || !strings.Contains(ex.Q1, "_validgroups") {
		t.Errorf("Q1 does not show the fold: %s", ex.Q1)
	}
	grouped, err := Explain(db, "MINE RULE GX AS SELECT DISTINCT 1..n item AS BODY, 1..1 item AS HEAD FROM Purchase GROUP BY cust HAVING COUNT(*) > 1 EXTRACTING RULES WITH SUPPORT: 0.1, CONFIDENCE: 0.1")
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(grouped.Q1, "folded") {
		t.Errorf("Q1 under a group condition claims a fold: %s", grouped.Q1)
	}
	// Explain must not create anything.
	if db.Catalog().Exists("mr_filteredorderedsets_source") {
		t.Error("Explain materialized working objects")
	}
	if db.Catalog().Exists("FilteredOrderedSets") {
		t.Error("Explain created output tables")
	}
	// Explain surfaces translation errors.
	if _, err := Explain(db, "MINE RULE X AS SELECT DISTINCT nope AS BODY, item AS HEAD FROM Purchase GROUP BY cust EXTRACTING RULES WITH SUPPORT: 0.1, CONFIDENCE: 0.1"); err == nil {
		t.Error("Explain accepted a bad statement")
	}
}

// TestBodyCardinalityBounds verifies card specs flow through the whole
// pipeline.
func TestBodyCardinalityBounds(t *testing.T) {
	db := purchaseDB(t)
	res, err := Mine(db, `
		MINE RULE Two AS
		SELECT DISTINCT 2..2 item AS BODY, 1..1 item AS HEAD, SUPPORT, CONFIDENCE
		FROM Purchase
		GROUP BY tr
		EXTRACTING RULES WITH SUPPORT: 0.25, CONFIDENCE: 0.1`, Options{})
	if err != nil {
		t.Fatal(err)
	}
	rules, err := ReadRules(db, res)
	if err != nil {
		t.Fatal(err)
	}
	if len(rules) == 0 {
		t.Fatal("expected 2-item-body rules (tr 2 has a 3-item basket)")
	}
	for _, r := range rules {
		if len(r.Body) != 2 || len(r.Head) != 1 {
			t.Errorf("cardinality violated: %d => %d", len(r.Body), len(r.Head))
		}
	}
}

// TestMinSupportOneGroupFloor checks the ⌈support·totg⌉ ≥ 1 rule: even
// at support 0 a rule needs one occurrence, and the pipeline does not
// divide by zero.
func TestMinSupportOneGroupFloor(t *testing.T) {
	db := purchaseDB(t)
	res, err := Mine(db, `
		MINE RULE All AS
		SELECT DISTINCT 1..1 item AS BODY, 1..1 item AS HEAD, SUPPORT, CONFIDENCE
		FROM Purchase
		GROUP BY tr
		EXTRACTING RULES WITH SUPPORT: 0.0, CONFIDENCE: 0.0`, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.MinGroups != 1 {
		t.Errorf("mingroups = %d, want 1", res.MinGroups)
	}
	if res.RuleCount == 0 {
		t.Error("expected rules at support 0")
	}
}

// TestEmptySourceYieldsNoRules: a source condition selecting nothing
// must produce empty (but existing) output tables, not an error.
func TestEmptySourceYieldsNoRules(t *testing.T) {
	db := purchaseDB(t)
	res, err := Mine(db, `
		MINE RULE None AS
		SELECT DISTINCT 1..1 item AS BODY, 1..1 item AS HEAD, SUPPORT, CONFIDENCE
		FROM Purchase
		WHERE price > 10000
		GROUP BY cust
		EXTRACTING RULES WITH SUPPORT: 0.1, CONFIDENCE: 0.1`, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.RuleCount != 0 || res.TotalGroups != 0 {
		t.Errorf("rules = %d, totg = %d", res.RuleCount, res.TotalGroups)
	}
	n, err := db.QueryInt("SELECT COUNT(*) FROM None")
	if err != nil || n != 0 {
		t.Fatalf("output table: %d (%v)", n, err)
	}
}

// TestGeneralWithGroupHavingAggregate combines R with the general path.
func TestGeneralWithGroupHavingAggregate(t *testing.T) {
	db := purchaseDB(t)
	res, err := Mine(db, `
		MINE RULE Mixed AS
		SELECT DISTINCT 1..1 item AS BODY, 1..1 item AS HEAD, SUPPORT, CONFIDENCE
		WHERE BODY.price >= 100 AND HEAD.price < 100
		FROM Purchase
		GROUP BY cust HAVING SUM(qty) >= 7
		CLUSTER BY dt HAVING BODY.dt < HEAD.dt
		EXTRACTING RULES WITH SUPPORT: 0.2, CONFIDENCE: 0.1`, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Class.R || !res.Class.G || !res.Class.K {
		t.Fatalf("class = %s", res.Class)
	}
	// Only cust2 (qty total 8) passes the HAVING; its (12/18→12/19)
	// pair gives brown_boots/jackets => col_shirts as in E1.
	rules, err := ReadRules(db, res)
	if err != nil {
		t.Fatal(err)
	}
	if len(rules) != 2 {
		t.Fatalf("rules = %v", rules)
	}
}

// TestReuseEncoded exercises the §3 preprocessing-reuse path.
func TestReuseEncoded(t *testing.T) {
	db := purchaseDB(t)
	stmt := func(supp string) string {
		return `MINE RULE Reuse AS
			SELECT DISTINCT 1..n item AS BODY, 1..1 item AS HEAD, SUPPORT, CONFIDENCE
			FROM Purchase GROUP BY tr
			EXTRACTING RULES WITH SUPPORT: ` + supp + `, CONFIDENCE: 0.1`
	}
	first, err := Mine(db, stmt("0.25"), Options{KeepEncoded: true})
	if err != nil {
		t.Fatal(err)
	}
	if first.Reused {
		t.Error("first run cannot reuse")
	}
	// Same statement, higher support: reusable.
	second, err := Mine(db, stmt("0.5"), Options{KeepEncoded: true, ReuseEncoded: true, ReplaceOutput: true})
	if err != nil {
		t.Fatal(err)
	}
	if !second.Reused {
		t.Fatal("second run did not reuse")
	}
	if second.TotalGroups != first.TotalGroups {
		t.Errorf("totg = %d vs %d", second.TotalGroups, first.TotalGroups)
	}
	// Reused results must equal a from-scratch run at the same support.
	db2 := purchaseDB(t)
	fresh, err := Mine(db2, stmt("0.5"), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if second.RuleCount != fresh.RuleCount {
		t.Errorf("reused rules = %d, fresh = %d", second.RuleCount, fresh.RuleCount)
	}
	// Lower support than stored: must NOT reuse (tables pruned too hard).
	third, err := Mine(db, stmt("0.1"), Options{ReuseEncoded: true, ReplaceOutput: true, KeepEncoded: true})
	if err != nil {
		t.Fatal(err)
	}
	if third.Reused {
		t.Error("reused despite a lower support threshold")
	}
	// A different statement shape must not reuse either.
	other, err := Mine(db, `MINE RULE Reuse AS
		SELECT DISTINCT 1..n item AS BODY, 1..1 item AS HEAD, SUPPORT, CONFIDENCE
		FROM Purchase GROUP BY cust
		EXTRACTING RULES WITH SUPPORT: 0.5, CONFIDENCE: 0.1`,
		Options{ReuseEncoded: true, ReplaceOutput: true})
	if err != nil {
		t.Fatal(err)
	}
	if other.Reused {
		t.Error("reused across different grouping")
	}
}

// TestReuseEncodedGeneral checks reuse on the general path. Reuse needs
// only MiningSource and ClusterCouples, and Q8 runs again over them, so
// nothing stores elementary rules, and a run at a tighter support prunes
// at that support: it returns exactly what a fresh run at that support
// returns.
func TestReuseEncodedGeneral(t *testing.T) {
	db := purchaseDB(t)
	if _, err := Mine(db, paperStatement, Options{KeepEncoded: true}); err != nil {
		t.Fatal(err)
	}
	for _, gone := range []string{"inputrules", "largerules", "elementaryrules", "codedsource"} {
		if db.Catalog().Exists("mr_filteredorderedsets_" + gone) {
			t.Errorf("KeepEncoded kept mr_filteredorderedsets_%s", gone)
		}
	}
	res, err := Mine(db, paperStatement, Options{ReuseEncoded: true, ReplaceOutput: true})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Reused {
		t.Fatal("general statement did not reuse")
	}
	if res.RuleCount != 3 {
		t.Fatalf("reused run found %d rules, want 3", res.RuleCount)
	}
	if steps := fmt.Sprint(res.PreprocSteps); !strings.Contains(steps, "{reused ") || !strings.Contains(steps, "{Q8 ") {
		t.Errorf("reused run steps = %s, want reused then Q8", steps)
	}

	gdb := engine.New()
	if _, err := gen.LoadPurchases(gdb, "Purchase", gen.PurchaseConfig{
		Customers: 200, DatesPerCust: 3, ItemsPerDate: 4, Items: 40, Seed: 3,
	}); err != nil {
		t.Fatal(err)
	}
	stmt := func(support float64) string {
		return fmt.Sprintf(`MINE RULE Tight AS
			SELECT DISTINCT 1..2 item AS BODY, 1..1 item AS HEAD, SUPPORT, CONFIDENCE
			WHERE BODY.price >= 100 AND HEAD.price < 100
			FROM Purchase GROUP BY cust CLUSTER BY dt HAVING BODY.dt < HEAD.dt
			EXTRACTING RULES WITH SUPPORT: %g, CONFIDENCE: 0.2`, support)
	}
	loose, err := Mine(gdb, stmt(0.03), Options{KeepEncoded: true})
	if err != nil {
		t.Fatal(err)
	}
	looseRules := ruleStrings(t, gdb, loose)
	tight, err := Mine(gdb, stmt(0.06), Options{ReuseEncoded: true, ReplaceOutput: true})
	if err != nil {
		t.Fatal(err)
	}
	if !tight.Reused {
		t.Fatal("the tighter support did not reuse")
	}
	tightRules := ruleStrings(t, gdb, tight)
	fresh, err := Mine(gdb, stmt(0.06), Options{ReplaceOutput: true})
	if err != nil {
		t.Fatal(err)
	}
	if fresh.Reused {
		t.Fatal("the fresh run reused")
	}
	freshRules := ruleStrings(t, gdb, fresh)
	if len(freshRules) == 0 || len(freshRules) >= len(looseRules) {
		t.Fatalf("%d rules at 0.06 and %d at 0.03: the tighter support prunes nothing", len(freshRules), len(looseRules))
	}
	if strings.Join(tightRules, "\n") != strings.Join(freshRules, "\n") {
		t.Fatalf("reused run at the tighter support:\n%s\nfresh run:\n%s",
			strings.Join(tightRules, "\n"), strings.Join(freshRules, "\n"))
	}
}

// TestTemporalWindowClusterCondition uses date arithmetic in the cluster
// HAVING: heads must follow bodies within 1 day — the sequential-pattern
// window idiom the MINE RULE semantics enables.
func TestTemporalWindowClusterCondition(t *testing.T) {
	db := purchaseDB(t)
	res, err := Mine(db, `
		MINE RULE Window AS
		SELECT DISTINCT 1..1 item AS BODY, 1..1 item AS HEAD, SUPPORT, CONFIDENCE
		FROM Purchase
		GROUP BY cust
		CLUSTER BY dt HAVING BODY.dt < HEAD.dt AND HEAD.dt - BODY.dt <= 1
		EXTRACTING RULES WITH SUPPORT: 0.4, CONFIDENCE: 0.1`, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Class.K {
		t.Fatalf("class = %s", res.Class)
	}
	// Valid pairs: cust1 (12/17 → 12/18); cust2 (12/18 → 12/19). With a
	// window of 1 day both qualify; rules exist in each group.
	if res.RuleCount == 0 {
		t.Fatal("expected windowed rules")
	}
	// Narrowing the window to 0 days eliminates every pair.
	res2, err := Mine(db, `
		MINE RULE Window0 AS
		SELECT DISTINCT 1..1 item AS BODY, 1..1 item AS HEAD, SUPPORT, CONFIDENCE
		FROM Purchase
		GROUP BY cust
		CLUSTER BY dt HAVING BODY.dt < HEAD.dt AND HEAD.dt - BODY.dt <= 0
		EXTRACTING RULES WITH SUPPORT: 0.4, CONFIDENCE: 0.1`, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res2.RuleCount != 0 {
		t.Fatalf("zero-day window found %d rules", res2.RuleCount)
	}
}

// TestFullGeneralMatrix drives every general-path variable at once:
// H (head on a different attribute), W (join source), M (mining
// condition), G+R (group HAVING with aggregate), C+K (clusters with a
// pair condition). This is the hardest statement class the translator
// can emit.
func TestFullGeneralMatrix(t *testing.T) {
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
	res, err := Mine(db, `
		MINE RULE Everything AS
		SELECT DISTINCT 1..2 item AS BODY, 1..1 category AS HEAD, SUPPORT, CONFIDENCE
		WHERE BODY.price >= 100 AND HEAD.price < 100
		FROM Purchase, Products
		WHERE Purchase.item = Products.pitem
		GROUP BY cust HAVING COUNT(*) >= 3
		CLUSTER BY dt HAVING BODY.dt < HEAD.dt
		EXTRACTING RULES WITH SUPPORT: 0.2, CONFIDENCE: 0.1`, Options{})
	if err != nil {
		t.Fatal(err)
	}
	c := res.Class
	if !c.H || !c.W || !c.M || !c.G || !c.R || !c.C || !c.K {
		t.Fatalf("class = %s, want {H,W,M,G,C,K,R}", c)
	}
	// Semantics by hand: both customers pass HAVING (3 and 5 rows).
	// Cluster pairs with body date < head date:
	//   cust1: (12/17 → 12/18); cust2: (12/18 → 12/19).
	// Bodies (items, price >= 100): cust1 12/17 {ski_pants,
	// hiking_boots}; cust2 12/18 {brown_boots, jackets}.
	// Heads (categories of items with price < 100):
	//   cust1 12/18: jackets at 300 — none under 100 → no heads;
	//   cust2 12/19: col_shirts (25) → category clothing.
	// So rules come only from cust2: bodies {brown_boots}, {jackets},
	// {brown_boots, jackets} ⇒ head {clothing}, support 1/2 each.
	rules, err := ReadRules(db, res)
	if err != nil {
		t.Fatal(err)
	}
	if len(rules) != 3 {
		t.Fatalf("rules = %d: %v", len(rules), rules)
	}
	for _, r := range rules {
		if r.Support != 0.5 {
			t.Errorf("support = %g, want 0.5: %v", r.Support, r)
		}
		if len(r.Head) != 1 || r.Head[0][0] != "clothing" {
			t.Errorf("head = %v, want clothing", r.Head)
		}
	}
	// The decoded heads table is on category, via Hset.
	q, err := db.Query("SELECT * FROM Everything_Heads")
	if err != nil {
		t.Fatal(err)
	}
	if q.Schema.Len() != 2 || !strings.EqualFold(q.Schema.Col(1).Name, "category") {
		t.Fatalf("heads schema = %s", q.Schema)
	}
}
