package parse

import (
	"strconv"
	"strings"
	"testing"

	"minerule/internal/sql/value"
)

func mustSelect(t *testing.T, src string) *Select {
	t.Helper()
	st, err := Parse(src)
	if err != nil {
		t.Fatalf("Parse(%q): %v", src, err)
	}
	s, ok := st.(*Select)
	if !ok {
		t.Fatalf("Parse(%q) = %T, want *Select", src, st)
	}
	return s
}

func TestSelectBasics(t *testing.T) {
	s := mustSelect(t, "SELECT DISTINCT a, t.b AS x, * FROM t1, t2 AS u WHERE a = 1")
	if !s.Distinct {
		t.Error("DISTINCT not parsed")
	}
	if len(s.Items) != 3 {
		t.Fatalf("items = %d", len(s.Items))
	}
	if s.Items[1].Alias != "x" {
		t.Errorf("alias = %q", s.Items[1].Alias)
	}
	if !s.Items[2].Star {
		t.Error("star item not parsed")
	}
	if len(s.From) != 2 || s.From[1].Alias != "u" {
		t.Errorf("from = %+v", s.From)
	}
	if s.Where == nil {
		t.Error("where missing")
	}
}

func TestImplicitAlias(t *testing.T) {
	s := mustSelect(t, "SELECT a b FROM t u")
	if s.Items[0].Alias != "b" {
		t.Errorf("implicit column alias = %q", s.Items[0].Alias)
	}
	if s.From[0].Alias != "u" {
		t.Errorf("implicit table alias = %q", s.From[0].Alias)
	}
}

func TestQualifiedStar(t *testing.T) {
	s := mustSelect(t, "SELECT Gidsequence.NEXTVAL AS Gid, V.* FROM ValidGroupsView AS V")
	if _, ok := s.Items[0].Expr.(*NextVal); !ok {
		t.Errorf("NEXTVAL parsed as %T", s.Items[0].Expr)
	}
	if s.Items[1].StarQual != "V" {
		t.Errorf("star qual = %q", s.Items[1].StarQual)
	}
}

func TestGroupByHaving(t *testing.T) {
	s := mustSelect(t, "SELECT a, COUNT(*) FROM t GROUP BY a HAVING COUNT(*) > 2 ORDER BY a DESC")
	if len(s.GroupBy) != 1 || s.Having == nil {
		t.Fatal("group by / having not parsed")
	}
	if len(s.OrderBy) != 1 || !s.OrderBy[0].Desc {
		t.Fatal("order by not parsed")
	}
	f, ok := s.Items[1].Expr.(*FuncCall)
	if !ok || !f.Star || f.Name != "COUNT" {
		t.Fatalf("COUNT(*) parsed as %#v", s.Items[1].Expr)
	}
}

func TestPredicates(t *testing.T) {
	s := mustSelect(t, `SELECT a FROM t WHERE a BETWEEN 1 AND 2 AND b NOT IN (1,2) AND c LIKE 'x%' AND d IS NOT NULL AND e IN (SELECT x FROM u) AND NOT EXISTS (SELECT y FROM v)`)
	conj := splitTestConjuncts(s.Where)
	if len(conj) != 6 {
		t.Fatalf("conjuncts = %d", len(conj))
	}
	if _, ok := conj[0].(*BetweenExpr); !ok {
		t.Errorf("between = %T", conj[0])
	}
	in, ok := conj[1].(*InListExpr)
	if !ok || !in.Not || len(in.List) != 2 {
		t.Errorf("in list = %#v", conj[1])
	}
	if _, ok := conj[2].(*LikeExpr); !ok {
		t.Errorf("like = %T", conj[2])
	}
	isn, ok := conj[3].(*IsNullExpr)
	if !ok || !isn.Not {
		t.Errorf("is null = %#v", conj[3])
	}
	if _, ok := conj[4].(*InSubquery); !ok {
		t.Errorf("in subquery = %T", conj[4])
	}
	ne, ok := conj[5].(*NotExpr)
	if !ok {
		t.Fatalf("not exists = %T", conj[5])
	}
	if _, ok := ne.E.(*ExistsExpr); !ok {
		t.Errorf("exists under not = %T", ne.E)
	}
}

func splitTestConjuncts(e Expr) []Expr {
	if b, ok := e.(*BinaryExpr); ok && b.Op == OpAnd {
		return append(splitTestConjuncts(b.L), splitTestConjuncts(b.R)...)
	}
	return []Expr{e}
}

func TestPrecedence(t *testing.T) {
	s := mustSelect(t, "SELECT a FROM t WHERE a = 1 OR b = 2 AND c = 3")
	or, ok := s.Where.(*BinaryExpr)
	if !ok || or.Op != OpOr {
		t.Fatalf("top = %#v", s.Where)
	}
	and, ok := or.R.(*BinaryExpr)
	if !ok || and.Op != OpAnd {
		t.Fatalf("right of OR = %#v", or.R)
	}
}

func TestArithmeticPrecedence(t *testing.T) {
	st, err := ParseExpr("1 + 2 * 3")
	if err != nil {
		t.Fatal(err)
	}
	add, ok := st.(*BinaryExpr)
	if !ok || add.Op != OpAdd {
		t.Fatalf("top = %#v", st)
	}
	mul, ok := add.R.(*BinaryExpr)
	if !ok || mul.Op != OpMul {
		t.Fatalf("right = %#v", add.R)
	}
}

func TestNegativeLiteralFolding(t *testing.T) {
	e, err := ParseExpr("-5")
	if err != nil {
		t.Fatal(err)
	}
	lit, ok := e.(*Literal)
	if !ok || lit.Val.Int() != -5 {
		t.Fatalf("got %#v", e)
	}
}

func TestDateLiteral(t *testing.T) {
	e, err := ParseExpr("DATE '1995-12-17'")
	if err != nil {
		t.Fatal(err)
	}
	lit, ok := e.(*Literal)
	if !ok || lit.Val.Type() != value.TypeDate {
		t.Fatalf("got %#v", e)
	}
	if lit.Val.String() != "1995-12-17" {
		t.Errorf("date = %s", lit.Val)
	}
}

func TestInsertForms(t *testing.T) {
	st, err := Parse("INSERT INTO t (a, b) VALUES (1, 'x'), (2, 'y')")
	if err != nil {
		t.Fatal(err)
	}
	ins := st.(*Insert)
	if len(ins.Columns) != 2 || len(ins.Rows) != 2 {
		t.Fatalf("%+v", ins)
	}

	st, err = Parse("INSERT INTO t SELECT a FROM u")
	if err != nil {
		t.Fatal(err)
	}
	if st.(*Insert).Query == nil {
		t.Fatal("query insert not parsed")
	}

	// The appendix's Oracle style: INSERT INTO t (SELECT …).
	st, err = Parse("INSERT INTO CodedSource (SELECT DISTINCT V.Gid, B.Bid FROM Source S, ValidGroups AS V, Bset B WHERE S.cust = V.cust AND S.item = B.item)")
	if err != nil {
		t.Fatal(err)
	}
	ins = st.(*Insert)
	if ins.Query == nil || len(ins.Columns) != 0 {
		t.Fatalf("paren-query insert: %+v", ins)
	}
	if len(ins.Query.From) != 3 {
		t.Fatalf("from = %d", len(ins.Query.From))
	}
}

func TestCreateStatements(t *testing.T) {
	st, err := Parse("CREATE TABLE t (a INTEGER, b VARCHAR(20), c DATE, d FLOAT)")
	if err != nil {
		t.Fatal(err)
	}
	ct := st.(*CreateTable)
	if len(ct.Cols) != 4 {
		t.Fatalf("cols = %d", len(ct.Cols))
	}
	want := []value.Type{value.TypeInt, value.TypeString, value.TypeDate, value.TypeFloat}
	for i, w := range want {
		if ct.Cols[i].Type != w {
			t.Errorf("col %d type = %v, want %v", i, ct.Cols[i].Type, w)
		}
	}

	st, err = Parse("CREATE VIEW v AS (SELECT a FROM t GROUP BY a HAVING COUNT(*) > 1)")
	if err != nil {
		t.Fatal(err)
	}
	if st.(*CreateView).Query == nil {
		t.Fatal("view query missing")
	}

	if _, err = Parse("CREATE SEQUENCE Gidsequence"); err != nil {
		t.Fatal(err)
	}
	if _, err = Parse("DROP TABLE t"); err != nil {
		t.Fatal(err)
	}
	if _, err = Parse("DROP VIEW v"); err != nil {
		t.Fatal(err)
	}
	if _, err = Parse("DROP SEQUENCE s"); err != nil {
		t.Fatal(err)
	}
}

func TestDelete(t *testing.T) {
	st, err := Parse("DELETE FROM t WHERE a = 1")
	if err != nil {
		t.Fatal(err)
	}
	if st.(*Delete).Where == nil {
		t.Fatal("where missing")
	}
}

func TestDerivedTable(t *testing.T) {
	s := mustSelect(t, "SELECT COUNT(*) FROM (SELECT DISTINCT cust FROM Source)")
	if s.From[0].Sub == nil {
		t.Fatal("derived table missing")
	}
}

func TestParseScript(t *testing.T) {
	sts, _, err := ParseScript("CREATE TABLE t (a INTEGER); INSERT INTO t VALUES (1);; SELECT a FROM t;")
	if err != nil {
		t.Fatal(err)
	}
	if len(sts) != 3 {
		t.Fatalf("statements = %d", len(sts))
	}
}

func TestErrors(t *testing.T) {
	bad := []string{
		"SELECT",
		"SELECT FROM t",
		"INSERT t VALUES (1)",
		"CREATE TABLE t (a UNKNOWNTYPE)",
		"SELECT a FROM t WHERE a NOT 1",
		"SELECT a FROM t GROUP a",
		"SELECT SUM(*) FROM t",
		"SELECT a FROM t extra garbage ,",
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) should fail", src)
		}
	}
}

func TestSQLRoundTrip(t *testing.T) {
	// Rendering then re-parsing must fix the same AST shape; this is what
	// the view mechanism relies on.
	srcs := []string{
		"SELECT DISTINCT a, b FROM t WHERE a = 1 AND b BETWEEN 2 AND 3",
		"SELECT a, COUNT(*) AS n FROM t GROUP BY a HAVING COUNT(*) > 2 ORDER BY n DESC",
		"SELECT s.NEXTVAL AS id, v.* FROM ValidGroupsView AS v",
		"INSERT INTO t (a) SELECT x FROM u WHERE x IN (SELECT y FROM w)",
		"SELECT a FROM t WHERE c LIKE 'x%' OR d IS NULL",
		"CREATE VIEW v AS SELECT a FROM t",
		"DELETE FROM t WHERE a <> 2",
	}
	for _, src := range srcs {
		st1, err := Parse(src)
		if err != nil {
			t.Fatalf("Parse(%q): %v", src, err)
		}
		rendered := st1.SQL()
		st2, err := Parse(rendered)
		if err != nil {
			t.Fatalf("re-Parse(%q): %v", rendered, err)
		}
		if st1.SQL() != st2.SQL() {
			t.Errorf("round trip changed:\n  %s\n  %s", st1.SQL(), st2.SQL())
		}
	}
}

func TestWalkAndHelpers(t *testing.T) {
	e, err := ParseExpr("a + COUNT(b) > SUM(c) AND t.d = 1")
	if err != nil {
		t.Fatal(err)
	}
	refs := ColumnRefs(e)
	names := make([]string, len(refs))
	for i, r := range refs {
		names[i] = r.SQL()
	}
	got := strings.Join(names, ",")
	if got != "a,b,c,t.d" {
		t.Errorf("refs = %s", got)
	}
	if !HasAggregate(e) {
		t.Error("HasAggregate = false")
	}
	e2, _ := ParseExpr("a + b")
	if HasAggregate(e2) {
		t.Error("HasAggregate on plain expr")
	}
}

func TestDepthLimit(t *testing.T) {
	deep := strings.Repeat("(", 500) + "1" + strings.Repeat(")", 500)
	if _, err := ParseExpr(deep); err == nil {
		t.Fatal("500-deep nesting accepted")
	} else if !strings.Contains(err.Error(), "nests deeper") {
		t.Fatalf("wrong error: %v", err)
	}
	// Reasonable nesting still parses.
	ok := strings.Repeat("(", 50) + "1" + strings.Repeat(")", 50)
	if _, err := ParseExpr(ok); err != nil {
		t.Fatalf("50-deep nesting rejected: %v", err)
	}
	// Depth resets between statements.
	if _, err := Parse("SELECT " + ok); err != nil {
		t.Fatalf("fresh parse after deep failure: %v", err)
	}
}

// TestParams pins where ? is a parameter and how parameters are
// numbered: a ? inside a string, a delimited identifier or a comment
// is part of that token, and a script numbers across its statements.
func TestParams(t *testing.T) {
	cases := []struct {
		sql string
		n   int
	}{
		{"SELECT * FROM t", 0},
		{"SELECT * FROM t WHERE a = ? AND b = ?", 2},
		{"SELECT '?' FROM t", 0},
		{"SELECT 'it''s ?' FROM t WHERE x = ?", 1},
		{`SELECT "?" FROM t`, 0},
		{"SELECT * FROM t -- trailing ? comment", 0},
		{"SELECT * /* block ? comment */ FROM t WHERE a = ?", 1},
		{"SELECT * FROM t;", 0}, // trailing semicolon, one statement
		{"SELECT * FROM t; -- done", 0},
		{"INSERT INTO t VALUES (?, -?, ? + 1)", 3},
	}
	for _, c := range cases {
		_, n, err := ParseParams(c.sql)
		if err != nil || n != c.n {
			t.Errorf("ParseParams(%q) = %d, %v; want %d parameters", c.sql, n, err, c.n)
		}
	}

	sts, n, err := ParseScript("INSERT INTO t VALUES (?); INSERT INTO t VALUES (?)")
	if err != nil || n != 2 || len(sts) != 2 {
		t.Fatalf("script: %d statements, %d parameters, %v; want 2, 2", len(sts), n, err)
	}
	for i, st := range sts {
		p := st.(*Insert).Rows[0][0].(*Param)
		if p.N != i+1 || p.SQL() != "?" {
			t.Errorf("statement %d: parameter %d rendered %q, want ordinal %d", i, p.N, p.SQL(), i+1)
		}
	}
}

// TestParamRejected: where no value can be bound — a view body stores
// text, and LIMIT, OFFSET and a type length take literals — ? fails at
// parse time with the offset of the marker.
func TestParamRejected(t *testing.T) {
	for _, src := range []string{
		"CREATE VIEW v AS SELECT a FROM t WHERE a = ?",
		"CREATE VIEW v AS (SELECT a FROM t WHERE a IN (SELECT b FROM u WHERE b > ?))",
		"SELECT a FROM t LIMIT ?",
		"SELECT a FROM t LIMIT 1 OFFSET ?",
		"CREATE TABLE t (a VARCHAR(?))",
	} {
		_, err := Parse(src)
		want := "(at offset " + strconv.Itoa(strings.LastIndex(src, "?")) + ")"
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("Parse(%q) = %v, want an error %s", src, err, want)
		}
	}
}
