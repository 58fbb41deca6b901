package support

import (
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"

	"minerule"
)

func newServer(t *testing.T) (*Server, *minerule.System) {
	t.Helper()
	sys, _ := minerule.Open()
	err := sys.ExecScript(`
		CREATE TABLE P (gid INTEGER, item VARCHAR);
		INSERT INTO P VALUES (1, 'a'), (1, 'b'), (2, 'a'), (2, 'b'), (3, 'a');
	`)
	if err != nil {
		t.Fatal(err)
	}
	return NewServer(sys), sys
}

func get(t *testing.T, s *Server, path string) (int, string) {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, path, nil)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	return rec.Code, rec.Body.String()
}

func post(t *testing.T, s *Server, stmt string) (int, string) {
	t.Helper()
	form := url.Values{"stmt": {stmt}}
	req := httptest.NewRequest(http.MethodPost, "/run", strings.NewReader(form.Encode()))
	req.Header.Set("Content-Type", "application/x-www-form-urlencoded")
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	return rec.Code, rec.Body.String()
}

func TestHomeListsTables(t *testing.T) {
	s, _ := newServer(t)
	code, body := get(t, s, "/")
	if code != http.StatusOK {
		t.Fatalf("code = %d", code)
	}
	if !strings.Contains(body, `/table/P`) {
		t.Errorf("home does not list P:\n%s", body)
	}
}

func TestRunSelect(t *testing.T) {
	s, _ := newServer(t)
	code, body := post(t, s, "SELECT gid, COUNT(*) AS n FROM P GROUP BY gid ORDER BY gid")
	if code != http.StatusOK {
		t.Fatalf("code = %d", code)
	}
	if !strings.Contains(body, "<th>n</th>") || !strings.Contains(body, "3 row(s)") {
		t.Errorf("select result missing:\n%s", body)
	}
}

func TestRunDDL(t *testing.T) {
	s, sys := newServer(t)
	code, body := post(t, s, "CREATE TABLE X (a INTEGER); INSERT INTO X VALUES (1)")
	if code != http.StatusOK || !strings.Contains(body, ">ok<") {
		t.Fatalf("ddl failed: %d\n%s", code, body)
	}
	if n, err := sys.QueryInt("SELECT COUNT(*) FROM X"); err != nil || n != 1 {
		t.Fatalf("X = %d (%v)", n, err)
	}
}

func TestRunMineAndRuleViewer(t *testing.T) {
	s, _ := newServer(t)
	code, body := post(t, s, `MINE RULE R AS
		SELECT DISTINCT 1..n item AS BODY, 1..1 item AS HEAD, SUPPORT, CONFIDENCE
		FROM P GROUP BY gid
		EXTRACTING RULES WITH SUPPORT: 0.5, CONFIDENCE: 0.5`)
	if code != http.StatusOK || !strings.Contains(body, "rule(s) into R") {
		t.Fatalf("mine failed: %d\n%s", code, body)
	}
	// Home now shows the rule set link, and P stays a plain table.
	_, home := get(t, s, "/")
	if !strings.Contains(home, "/rules/R") {
		t.Errorf("rule set link missing:\n%s", home)
	}
	if strings.Contains(home, "/table/R_Bodies") {
		t.Errorf("companion table leaked into the table list:\n%s", home)
	}
	// The viewer joins and renders decoded rules.
	code, rules := get(t, s, "/rules/R")
	if code != http.StatusOK {
		t.Fatalf("rules code = %d", code)
	}
	if !strings.Contains(rules, "{a}") || !strings.Contains(rules, "{b}") {
		t.Errorf("decoded rules missing:\n%s", rules)
	}
	// Sorting by support and filtering by a floor.
	code, filtered := get(t, s, "/rules/R?sort=confidence&min=0.9")
	if code != http.StatusOK {
		t.Fatal("filter failed")
	}
	// b => a has confidence 1 (b occurs twice, both with a); a => b has
	// 2/3. Only the former survives min=0.9.
	if !strings.Contains(filtered, "1 rule(s) shown") {
		t.Errorf("filter result:\n%s", filtered)
	}
}

func TestRunExplain(t *testing.T) {
	s, sys := newServer(t)
	code, body := post(t, s, `EXPLAIN MINE RULE R AS
		SELECT DISTINCT 1..n item AS BODY, 1..1 item AS HEAD
		FROM P GROUP BY gid
		EXTRACTING RULES WITH SUPPORT: 0.5, CONFIDENCE: 0.5`)
	if code != http.StatusOK || !strings.Contains(body, "classification") {
		t.Fatalf("explain failed: %d\n%s", code, body)
	}
	if !strings.Contains(body, "mr_r_bset") {
		t.Errorf("programs missing:\n%s", body)
	}
	// Dry run: no output table created.
	if err := sys.Exec("SELECT * FROM R"); err == nil {
		t.Error("EXPLAIN created R")
	}
}

func TestTableBrowser(t *testing.T) {
	s, _ := newServer(t)
	code, body := get(t, s, "/table/P")
	if code != http.StatusOK || !strings.Contains(body, "<th>gid</th>") {
		t.Fatalf("browser failed: %d\n%s", code, body)
	}
	code, _ = get(t, s, "/table/missing")
	if code != http.StatusOK { // rendered page with an error message
		t.Fatalf("missing table code = %d", code)
	}
	code, _ = get(t, s, "/table/bad;name")
	if code != http.StatusNotFound {
		t.Fatalf("injection attempt code = %d", code)
	}
}

func TestErrorsAreRendered(t *testing.T) {
	s, _ := newServer(t)
	code, body := post(t, s, "SELECT nope FROM P")
	if code != http.StatusOK || !strings.Contains(body, "err") {
		t.Fatalf("error not rendered: %d\n%s", code, body)
	}
	code, _ = post(t, s, "")
	if code != http.StatusOK {
		t.Fatal("empty statement crashed")
	}
	req := httptest.NewRequest(http.MethodGet, "/run", nil)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != http.StatusMethodNotAllowed {
		t.Fatalf("GET /run = %d", rec.Code)
	}
}

func TestHTMLEscaping(t *testing.T) {
	s, sys := newServer(t)
	if err := sys.Exec(`INSERT INTO P VALUES (4, '<script>alert(1)</script>')`); err != nil {
		t.Fatal(err)
	}
	_, body := get(t, s, "/table/P")
	if strings.Contains(body, "<script>alert") {
		t.Fatal("unescaped cell content")
	}
	if !strings.Contains(body, "&lt;script&gt;") {
		t.Fatal("escaped content missing")
	}
}

func TestRunExplainSQL(t *testing.T) {
	s, _ := newServer(t)
	code, body := post(t, s, "EXPLAIN SELECT COUNT(*) FROM P WHERE gid = 1")
	if code != http.StatusOK {
		t.Fatalf("code = %d", code)
	}
	if !strings.Contains(body, "scan table P") || !strings.Contains(body, "result:") {
		t.Errorf("plan missing:\n%s", body)
	}
}

// TestRunCapsByGrammar: the 500-row browser cap applies exactly when
// the query has no LIMIT clause, whatever words its text contains, and
// EXPLAIN counts only as a keyword of its own.
func TestRunCapsByGrammar(t *testing.T) {
	s, sys := newServer(t)
	if err := sys.ExecScript(`
		CREATE TABLE N (limit_id INTEGER, c VARCHAR);
		INSERT INTO N VALUES (1, 'a'), (2, 'a'), (3, 'a'), (4, 'a'), (5, 'a'),
			(6, 'a'), (7, 'a'), (8, 'a'), (9, 'a'), (10, 'a'), (11, 'a'), (12, 'a'),
			(13, 'a'), (14, 'a'), (15, 'a'), (16, 'a'), (17, 'a'), (18, 'a'),
			(19, 'a'), (20, 'a'), (21, 'a'), (22, 'a'), (23, 'a'), (24, 'a'),
			(25, 'a'), (26, 'a'), (27, 'a'), (28, 'a'), (29, 'a'), (30, 'a');
	`); err != nil {
		t.Fatal(err)
	}
	// N x N has 900 rows.
	for _, tc := range []struct{ stmt, want string }{
		{"SELECT x.limit_id FROM N x, N y", "500 row(s)"},
		{"SELECT x.c FROM N x, N y WHERE x.c <> 'no limit'", "500 row(s)"},
		{"SELECT x.c FROM N x, N y;", "500 row(s)"},
		{"SELECT x.c FROM N x, N y -- no cap asked", "500 row(s)"},
		{"SELECT x.c FROM N x, N y LIMIT 600", "600 row(s)"},
		{"select x.c from N x, N y limit 10 offset 895", "5 row(s)"},
	} {
		code, body := post(t, s, tc.stmt)
		if code != http.StatusOK || !strings.Contains(body, `<p class="meta">`+tc.want) {
			t.Errorf("%s: want %q, got %d %s", tc.stmt, tc.want, code, outcome(body))
		}
	}

	_, body := post(t, s, "EXPLAINSELECT COUNT(*) FROM P")
	if strings.Contains(body, "result:") || !strings.Contains(body, `class="err"`) {
		t.Errorf("EXPLAINSELECT ran as EXPLAIN: %s", outcome(body))
	}
	_, body = post(t, s, "explain select COUNT(*) from P")
	if !strings.Contains(body, "result:") {
		t.Errorf("lower-case EXPLAIN shows no plan: %s", outcome(body))
	}
}

// outcome extracts the paragraph a statement's run renders below the
// form: its error or its info line.
func outcome(body string) string {
	_, after, _ := strings.Cut(body, "</form>")
	if _, p, ok := strings.Cut(after, "<p class="); ok {
		p, _, _ = strings.Cut(p, "</p>")
		return p
	}
	return "nothing"
}
