package parse

import (
	"fmt"
	"strings"
	"testing"

	"minerule/internal/minerule/ast"
	sqlparse "minerule/internal/sql/parse"
)

// paperStatement is the FilteredOrderedSets example of paper §2 (with
// ISO date literals; "date" renamed "dt" to match our Purchase schema).
const paperStatement = `
MINE RULE FilteredOrderedSets AS
SELECT DISTINCT 1..n item AS BODY, 1..n item AS HEAD, SUPPORT, CONFIDENCE
WHERE BODY.price >= 100 AND HEAD.price < 100
FROM Purchase
WHERE dt BETWEEN DATE '1995-01-01' AND DATE '1995-12-31'
GROUP BY cust
CLUSTER BY dt HAVING BODY.dt < HEAD.dt
EXTRACTING RULES WITH SUPPORT: 0.2, CONFIDENCE: 0.3`

func TestPaperStatement(t *testing.T) {
	st, err := Parse(paperStatement)
	if err != nil {
		t.Fatal(err)
	}
	if st.Output != "FilteredOrderedSets" {
		t.Errorf("output = %q", st.Output)
	}
	if got := st.Body.Card; got != (ast.CardSpec{Min: 1, Max: ast.Unbounded}) {
		t.Errorf("body card = %v", got)
	}
	if len(st.Body.Attrs) != 1 || st.Body.Attrs[0] != "item" {
		t.Errorf("body attrs = %v", st.Body.Attrs)
	}
	if !st.WantSupport || !st.WantConfidence {
		t.Error("SUPPORT/CONFIDENCE flags not parsed")
	}
	if st.MiningCond == nil {
		t.Fatal("mining condition missing")
	}
	refs := sqlparse.ColumnRefs(st.MiningCond)
	if len(refs) != 2 || refs[0].Qual != "BODY" || refs[1].Qual != "HEAD" {
		t.Errorf("mining cond refs = %v", refs)
	}
	if st.SourceCond == nil {
		t.Error("source condition missing")
	}
	if len(st.From) != 1 || st.From[0].Name != "Purchase" {
		t.Errorf("from = %v", st.From)
	}
	if len(st.GroupAttrs) != 1 || st.GroupAttrs[0] != "cust" {
		t.Errorf("group attrs = %v", st.GroupAttrs)
	}
	if len(st.ClusterAttrs) != 1 || st.ClusterAttrs[0] != "dt" {
		t.Errorf("cluster attrs = %v", st.ClusterAttrs)
	}
	if st.ClusterCond == nil {
		t.Error("cluster condition missing")
	}
	if st.MinSupport != 0.2 || st.MinConfidence != 0.3 {
		t.Errorf("thresholds = %g %g", st.MinSupport, st.MinConfidence)
	}
}

func TestSimpleStatement(t *testing.T) {
	st, err := Parse(`
		MINE RULE SimpleAssociations AS
		SELECT DISTINCT 1..n item AS BODY, 1..1 item AS HEAD, SUPPORT, CONFIDENCE
		FROM Transactions
		GROUP BY tid
		EXTRACTING RULES WITH SUPPORT: 0.01, CONFIDENCE: 0.5`)
	if err != nil {
		t.Fatal(err)
	}
	if st.MiningCond != nil || st.SourceCond != nil || st.GroupCond != nil {
		t.Error("unexpected conditions")
	}
	if len(st.ClusterAttrs) != 0 {
		t.Error("unexpected cluster")
	}
	if st.Head.Card != (ast.CardSpec{Min: 1, Max: 1}) {
		t.Errorf("head card = %v", st.Head.Card)
	}
}

func TestDefaultCards(t *testing.T) {
	st, err := Parse(`
		MINE RULE R AS SELECT DISTINCT item AS BODY, item AS HEAD
		FROM T GROUP BY g
		EXTRACTING RULES WITH SUPPORT: 0.1, CONFIDENCE: 0.1`)
	if err != nil {
		t.Fatal(err)
	}
	if st.Body.Card != ast.DefaultBodyCard {
		t.Errorf("body default = %v", st.Body.Card)
	}
	if st.Head.Card != ast.DefaultHeadCard {
		t.Errorf("head default = %v", st.Head.Card)
	}
	if st.WantSupport || st.WantConfidence {
		t.Error("S/C flags should default to false")
	}
}

func TestMultiAttrSchemasAndHaving(t *testing.T) {
	st, err := Parse(`
		MINE RULE R AS
		SELECT DISTINCT 2..3 item, price AS BODY, 1..2 category AS HEAD
		FROM Sales, Products
		WHERE Sales.pid = Products.pid
		GROUP BY cust, store HAVING COUNT(*) > 5
		CLUSTER BY week HAVING BODY.week <= HEAD.week AND SUM(BODY.amount) > 10
		EXTRACTING RULES WITH SUPPORT: 0.05, CONFIDENCE: 0.2`)
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(st.Body.Attrs, ","); got != "item,price" {
		t.Errorf("body attrs = %s", got)
	}
	if got := strings.Join(st.Head.Attrs, ","); got != "category" {
		t.Errorf("head attrs = %s", got)
	}
	if st.Body.Card != (ast.CardSpec{Min: 2, Max: 3}) {
		t.Errorf("body card = %v", st.Body.Card)
	}
	if len(st.From) != 2 || st.SourceCond == nil {
		t.Error("join source not parsed")
	}
	if got := strings.Join(st.GroupAttrs, ","); got != "cust,store" {
		t.Errorf("group attrs = %s", got)
	}
	if st.GroupCond == nil || !sqlparse.HasAggregate(st.GroupCond) {
		t.Error("group HAVING with aggregate not parsed")
	}
	if st.ClusterCond == nil || !sqlparse.HasAggregate(st.ClusterCond) {
		t.Error("cluster HAVING with aggregate not parsed")
	}
}

func TestIsMineRule(t *testing.T) {
	if !IsMineRule("  mine RULE x AS SELECT ...") {
		t.Error("should detect MINE RULE")
	}
	if IsMineRule("SELECT * FROM t") {
		t.Error("plain SQL misdetected")
	}
	if IsMineRule("mine") {
		t.Error("lone keyword misdetected")
	}
}

// TestTarget: EXPLAIN MINE RULE is a MINE RULE target with the EXPLAIN
// cut off; a ? inside a comment does not stop routing.
func TestTarget(t *testing.T) {
	for _, c := range []struct {
		src, rest     string
		explain, mine bool
	}{
		{"MINE RULE r AS SELECT", "MINE RULE r AS SELECT", false, true},
		{"explain /* ? */ mine rule r", "mine rule r", true, true},
		{"EXPLAIN SELECT 1", "", false, false},
		{"SELECT 'MINE RULE'", "", false, false},
	} {
		rest, explain, mine := Target(c.src)
		if rest != c.rest || explain != c.explain || mine != c.mine {
			t.Errorf("Target(%q) = %q, %v, %v; want %q, %v, %v", c.src, rest, explain, mine, c.rest, c.explain, c.mine)
		}
	}
}

// TestParamRejected: MINE RULE becomes generated SQL programs, so a ?
// has nothing to bind to and fails with its offset.
func TestParamRejected(t *testing.T) {
	src := strings.Replace(paperStatement, "0.2", "?", 1)
	_, err := Parse(src)
	want := fmt.Sprintf("parameter ? is not allowed in MINE RULE (at offset %d)", strings.Index(src, "?"))
	if err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("Parse = %v, want %q", err, want)
	}
}

func TestRoundTrip(t *testing.T) {
	st, err := Parse(paperStatement)
	if err != nil {
		t.Fatal(err)
	}
	st2, err := Parse(st.SQL())
	if err != nil {
		t.Fatalf("re-parse of %q: %v", st.SQL(), err)
	}
	if st.SQL() != st2.SQL() {
		t.Errorf("round trip changed:\n%s\n%s", st.SQL(), st2.SQL())
	}
}

func TestParseErrors(t *testing.T) {
	bad := map[string]string{
		"missing AS":      "MINE RULE R SELECT DISTINCT item AS BODY, item AS HEAD FROM t GROUP BY g EXTRACTING RULES WITH SUPPORT: 0.1, CONFIDENCE: 0.1",
		"no DISTINCT":     "MINE RULE R AS SELECT item AS BODY, item AS HEAD FROM t GROUP BY g EXTRACTING RULES WITH SUPPORT: 0.1, CONFIDENCE: 0.1",
		"head first":      "MINE RULE R AS SELECT DISTINCT item AS HEAD, item AS BODY FROM t GROUP BY g EXTRACTING RULES WITH SUPPORT: 0.1, CONFIDENCE: 0.1",
		"zero lower card": "MINE RULE R AS SELECT DISTINCT 0..n item AS BODY, item AS HEAD FROM t GROUP BY g EXTRACTING RULES WITH SUPPORT: 0.1, CONFIDENCE: 0.1",
		"inverted card":   "MINE RULE R AS SELECT DISTINCT 3..2 item AS BODY, item AS HEAD FROM t GROUP BY g EXTRACTING RULES WITH SUPPORT: 0.1, CONFIDENCE: 0.1",
		"no GROUP BY":     "MINE RULE R AS SELECT DISTINCT item AS BODY, item AS HEAD FROM t EXTRACTING RULES WITH SUPPORT: 0.1, CONFIDENCE: 0.1",
		"no EXTRACTING":   "MINE RULE R AS SELECT DISTINCT item AS BODY, item AS HEAD FROM t GROUP BY g",
		"support > 1":     "MINE RULE R AS SELECT DISTINCT item AS BODY, item AS HEAD FROM t GROUP BY g EXTRACTING RULES WITH SUPPORT: 1.5, CONFIDENCE: 0.1",
		"bad mining cond": "MINE RULE R AS SELECT DISTINCT item AS BODY, item AS HEAD WHERE BODY.price >= FROM t GROUP BY g EXTRACTING RULES WITH SUPPORT: 0.1, CONFIDENCE: 0.1",
		"trailing junk":   "MINE RULE R AS SELECT DISTINCT item AS BODY, item AS HEAD FROM t GROUP BY g EXTRACTING RULES WITH SUPPORT: 0.1, CONFIDENCE: 0.1 garbage",
	}
	for name, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("%s: Parse should fail", name)
		}
	}
}

func TestCardSpecHelpers(t *testing.T) {
	c := ast.CardSpec{Min: 2, Max: 3}
	for k, want := range map[int]bool{1: false, 2: true, 3: true, 4: false} {
		if c.Contains(k) != want {
			t.Errorf("Contains(%d) = %v", k, !want)
		}
	}
	u := ast.CardSpec{Min: 1, Max: ast.Unbounded}
	if !u.Contains(100) || !u.Allows(1000) {
		t.Error("unbounded spec must allow any cardinality")
	}
	if c.Allows(4) {
		t.Error("Allows(4) on 2..3")
	}
	if c.String() != "2..3" || u.String() != "1..n" {
		t.Errorf("String = %s / %s", c, u)
	}
}
