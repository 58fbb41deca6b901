package translator

import (
	"strings"
	"testing"

	mrparse "minerule/internal/minerule/parse"
	"minerule/internal/sql/engine"
	sqlparse "minerule/internal/sql/parse"
)

func newDB(t *testing.T) *engine.Database {
	t.Helper()
	db := engine.New()
	err := db.ExecScript(`
		CREATE TABLE Purchase (tr INTEGER, cust VARCHAR, item VARCHAR, dt DATE, price FLOAT, qty INTEGER);
		CREATE TABLE Products (pitem VARCHAR, category VARCHAR);
	`)
	if err != nil {
		t.Fatal(err)
	}
	return db
}

func translate(t *testing.T, db *engine.Database, stmt string) *Translation {
	t.Helper()
	st, err := mrparse.Parse(stmt)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := Translate(db, st)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

const simpleStmt = `MINE RULE S AS SELECT DISTINCT 1..n item AS BODY, 1..1 item AS HEAD, SUPPORT, CONFIDENCE
	FROM Purchase GROUP BY cust EXTRACTING RULES WITH SUPPORT: 0.1, CONFIDENCE: 0.2`

const generalStmt = `MINE RULE G AS SELECT DISTINCT 1..n item AS BODY, 1..n item AS HEAD, SUPPORT, CONFIDENCE
	WHERE BODY.price >= 100 AND HEAD.price < 100
	FROM Purchase WHERE dt BETWEEN DATE '1995-01-01' AND DATE '1995-12-31'
	GROUP BY cust HAVING COUNT(*) > 2
	CLUSTER BY dt HAVING BODY.dt < HEAD.dt AND SUM(BODY.price) > 50
	EXTRACTING RULES WITH SUPPORT: 0.2, CONFIDENCE: 0.3`

func TestClassificationSimple(t *testing.T) {
	tr := translate(t, newDB(t), simpleStmt)
	c := tr.Class
	if c.H || c.W || c.M || c.G || c.C || c.K || c.F || c.R {
		t.Errorf("classification = %s, want all false", c)
	}
	if !c.Simple() {
		t.Error("Simple() = false")
	}
}

func TestClassificationGeneral(t *testing.T) {
	tr := translate(t, newDB(t), generalStmt)
	c := tr.Class
	if c.H {
		t.Error("H must be false (same attribute)")
	}
	for name, v := range map[string]bool{
		"W": c.W, "M": c.M, "G": c.G, "C": c.C, "K": c.K, "F": c.F, "R": c.R,
	} {
		if !v {
			t.Errorf("%s must be true: %s", name, c)
		}
	}
	if c.Simple() {
		t.Error("Simple() = true for a general statement")
	}
	if got := c.String(); got != "{W,M,G,C,K,F,R}" {
		t.Errorf("String() = %s", got)
	}
}

func TestClassDependencies(t *testing.T) {
	// K ⇒ C and F ⇒ K and R ⇒ G by construction: check the parser and
	// translator never produce violating combinations.
	db := newDB(t)
	tr := translate(t, db, `MINE RULE D AS SELECT DISTINCT item AS BODY, item AS HEAD
		FROM Purchase GROUP BY cust CLUSTER BY dt
		EXTRACTING RULES WITH SUPPORT: 0.1, CONFIDENCE: 0.1`)
	if !tr.Class.C || tr.Class.K || tr.Class.F {
		t.Errorf("got %s", tr.Class)
	}
}

func TestNeededAttrs(t *testing.T) {
	tr := translate(t, newDB(t), generalStmt)
	var names []string
	for _, c := range tr.NeededAttrs {
		names = append(names, strings.ToLower(c.Name))
	}
	// group (cust), cluster (dt), body (item), head (item → dup),
	// mining (price), cluster aggregates (price → dup).
	want := "cust,dt,item,price"
	if got := strings.Join(names, ","); got != want {
		t.Errorf("needed attrs = %s, want %s", got, want)
	}
}

func TestMineAttrs(t *testing.T) {
	tr := translate(t, newDB(t), generalStmt)
	if len(tr.MineAttrs) != 1 || !strings.EqualFold(tr.MineAttrs[0], "price") {
		t.Errorf("mine attrs = %v", tr.MineAttrs)
	}
}

func TestClusterAggregates(t *testing.T) {
	tr := translate(t, newDB(t), generalStmt)
	if len(tr.ClusterAggs) != 1 {
		t.Fatalf("cluster aggs = %v", tr.ClusterAggs)
	}
	a := tr.ClusterAggs[0]
	if a.Func != "SUM" || !strings.EqualFold(a.Attr, "price") || a.Col != "mr_agg_0" {
		t.Errorf("agg = %+v", a)
	}
	// Q6 must compute the aggregate, Q7 must reference its column.
	q6 := strings.Join(tr.Program.Q6, "\n")
	if !strings.Contains(q6, "SUM(S.price) AS mr_agg_0") {
		t.Errorf("Q6 missing aggregate:\n%s", q6)
	}
	q7 := strings.Join(tr.Program.Q7, "\n")
	if !strings.Contains(q7, "b.mr_agg_0") {
		t.Errorf("Q7 missing rewritten aggregate:\n%s", q7)
	}
}

func TestProgramShapeSimple(t *testing.T) {
	tr := translate(t, newDB(t), simpleStmt)
	p := tr.Program
	if len(p.Q5)+len(p.Q6)+len(p.Q7)+len(p.Q8)+len(p.Q9)+len(p.Q10) != 0 {
		t.Error("simple statements must not generate general-path queries")
	}
	// W false: Q0 is skipped and the programs read the FROM table.
	if len(p.Q0) != 0 {
		t.Errorf("Q0 = %v, want none", p.Q0)
	}
	if !strings.Contains(p.Q1, "COUNT(*)") || !strings.Contains(p.Q1, "DISTINCT cust FROM Purchase") {
		t.Errorf("Q1 = %s", p.Q1)
	}
	// Q3 reads Purchase and its large filter uses the placeholder.
	q3 := strings.Join(p.Q3, "\n")
	if !strings.Contains(q3, MinGroupsPlaceholder) || !strings.Contains(q3, "FROM Purchase S,") {
		t.Errorf("Q3 misses %s or the FROM table:\n%s", MinGroupsPlaceholder, q3)
	}
	for _, o := range p.Cleanup {
		if strings.EqualFold(o.Name, "Purchase") {
			t.Errorf("Cleanup names the FROM table: %v", o)
		}
	}
	// CodedSource is a table here.
	q4 := strings.Join(p.Q4, "\n")
	if !strings.Contains(q4, "CREATE TABLE mr_s_codedsource") {
		t.Errorf("Q4 = %s", q4)
	}
}

func TestProgramShapeGeneral(t *testing.T) {
	tr := translate(t, newDB(t), generalStmt)
	p := tr.Program
	if len(p.Q6) == 0 || len(p.Q7) == 0 || len(p.Q8) == 0 || len(p.Q9) == 0 || len(p.Q10) == 0 {
		t.Fatal("general-path queries missing")
	}
	// W true: Source is materialized with the source condition.
	q0 := strings.Join(p.Q0, "\n")
	if !strings.Contains(q0, "CREATE TABLE mr_g_source") || !strings.Contains(q0, "BETWEEN") {
		t.Errorf("Q0 = %s", q0)
	}
	// Group HAVING flows into the ValidGroupsView.
	q2 := strings.Join(p.Q2, "\n")
	if !strings.Contains(q2, "HAVING") {
		t.Errorf("Q2 misses HAVING: %s", q2)
	}
	// The mining condition is rewritten onto the b/h self-join.
	q8 := strings.Join(p.Q8, "\n")
	if !strings.Contains(q8, "b.price") || !strings.Contains(q8, "h.price") {
		t.Errorf("Q8 = %s", q8)
	}
	if strings.Contains(q8, "BODY.") || strings.Contains(q8, "HEAD.") {
		t.Errorf("Q8 leaked role qualifiers: %s", q8)
	}
	// CodedSource is a view hiding mining attributes.
	q4 := strings.Join(p.Q4, "\n")
	if !strings.Contains(q4, "CREATE VIEW mr_g_codedsource") {
		t.Errorf("Q4/Q11 = %s", q4)
	}
	if !strings.Contains(q4, "price") {
		t.Error("MiningSource must carry the mining attribute")
	}
	coded := ""
	for _, q := range p.Q4 {
		if strings.HasPrefix(q, "CREATE VIEW") {
			coded = q
		}
	}
	if strings.Contains(coded, "price") {
		t.Errorf("CodedSource must hide mining attributes: %s", coded)
	}
}

func TestProgramHeterogeneous(t *testing.T) {
	tr := translate(t, newDB(t), `MINE RULE X AS
		SELECT DISTINCT 1..1 item AS BODY, 1..1 category AS HEAD
		FROM Purchase, Products WHERE Purchase.item = Products.pitem
		GROUP BY cust
		EXTRACTING RULES WITH SUPPORT: 0.1, CONFIDENCE: 0.1`)
	if !tr.Class.H {
		t.Fatalf("H = false: %s", tr.Class)
	}
	if len(tr.Program.Q5) == 0 {
		t.Fatal("Q5 (head encoding) missing")
	}
	q5 := strings.Join(tr.Program.Q5, "\n")
	if !strings.Contains(q5, "mr_x_hset") || !strings.Contains(q5, "mr_hid") {
		t.Errorf("Q5 = %s", q5)
	}
	// Two role inserts into MiningSource.
	inserts := 0
	for _, q := range tr.Program.Q4 {
		if strings.HasPrefix(q, "INSERT INTO mr_x_miningsource") {
			inserts++
		}
	}
	if inserts != 2 {
		t.Errorf("MiningSource inserts = %d, want 2 (body and head roles)", inserts)
	}
	// Decode must join heads against Hset.
	dec := strings.Join(tr.Program.Decode, "\n")
	if !strings.Contains(dec, "mr_x_hset") {
		t.Errorf("decode must use Hset: %s", dec)
	}
}

func TestStepsOrdering(t *testing.T) {
	tr := translate(t, newDB(t), generalStmt)
	steps := tr.Program.Steps()
	var order []string
	last := ""
	for _, s := range steps {
		if s.Name != last {
			order = append(order, s.Name)
			last = s.Name
		}
	}
	want := "Q0,Q2,Q3,Q6,Q7,Q4,Q8,Q9,Q10,output"
	if got := strings.Join(order, ","); got != want {
		t.Errorf("step order = %s, want %s", got, want)
	}
}

func TestGeneratedSQLParses(t *testing.T) {
	// Every generated statement must be valid in the engine's dialect —
	// the portability claim, checked syntactically.
	db := newDB(t)
	for _, stmt := range []string{simpleStmt, generalStmt} {
		tr := translate(t, db, stmt)
		var all []string
		for _, o := range tr.Program.Cleanup {
			all = append(all, o.DropSQL())
		}
		for _, s := range tr.Program.Steps() {
			all = append(all, s.SQL)
		}
		all = append(all, tr.Program.Q1)
		all = append(all, tr.Program.Decode...)
		for _, q := range all {
			q = strings.ReplaceAll(q, MinGroupsPlaceholder, "1")
			if err := parseCheck(q); err != nil {
				t.Errorf("generated SQL does not parse: %v\n  %s", err, q)
			}
		}
	}
}

func parseCheck(q string) error {
	_, err := sqlparse.Parse(q)
	return err
}

func TestSemanticErrors(t *testing.T) {
	db := newDB(t)
	bad := map[string]string{
		"cluster cond plain ref not cluster attr": `MINE RULE R AS SELECT DISTINCT item AS BODY, item AS HEAD
			FROM Purchase GROUP BY cust CLUSTER BY dt HAVING BODY.price < HEAD.price
			EXTRACTING RULES WITH SUPPORT: 0.1, CONFIDENCE: 0.1`,
		"cluster cond unqualified": `MINE RULE R AS SELECT DISTINCT item AS BODY, item AS HEAD
			FROM Purchase GROUP BY cust CLUSTER BY dt HAVING dt > DATE '1995-01-01'
			EXTRACTING RULES WITH SUPPORT: 0.1, CONFIDENCE: 0.1`,
		"cluster cond COUNT(*)": `MINE RULE R AS SELECT DISTINCT item AS BODY, item AS HEAD
			FROM Purchase GROUP BY cust CLUSTER BY dt HAVING COUNT(*) > 2
			EXTRACTING RULES WITH SUPPORT: 0.1, CONFIDENCE: 0.1`,
		"mining cond aggregate": `MINE RULE R AS SELECT DISTINCT item AS BODY, item AS HEAD
			WHERE SUM(BODY.price) > 10 FROM Purchase GROUP BY cust
			EXTRACTING RULES WITH SUPPORT: 0.1, CONFIDENCE: 0.1`,
		"mining cond cluster attr": `MINE RULE R AS SELECT DISTINCT item AS BODY, item AS HEAD
			WHERE BODY.dt < HEAD.dt FROM Purchase GROUP BY cust CLUSTER BY dt
			EXTRACTING RULES WITH SUPPORT: 0.1, CONFIDENCE: 0.1`,
		"group cond qualified": `MINE RULE R AS SELECT DISTINCT item AS BODY, item AS HEAD
			FROM Purchase GROUP BY cust HAVING BODY.cust = 'x'
			EXTRACTING RULES WITH SUPPORT: 0.1, CONFIDENCE: 0.1`,
		"head overlaps cluster": `MINE RULE R AS SELECT DISTINCT item AS BODY, dt AS HEAD
			FROM Purchase GROUP BY cust CLUSTER BY dt
			EXTRACTING RULES WITH SUPPORT: 0.1, CONFIDENCE: 0.1`,
	}
	for name, stmt := range bad {
		st, err := mrparse.Parse(stmt)
		if err != nil {
			t.Errorf("%s: parse failed early: %v", name, err)
			continue
		}
		if _, err := Translate(db, st); err == nil {
			t.Errorf("%s: Translate should fail", name)
		}
	}
}
