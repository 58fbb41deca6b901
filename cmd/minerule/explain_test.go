package main

import (
	"context"
	"database/sql"
	"html"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"strings"
	"testing"

	"minerule"
	_ "minerule/driver"
	"minerule/internal/support"
)

// TestExplainLinesAgree prints one EXPLAIN MINE RULE through the three
// entry points — this shell, the web UI and a server session over the
// driver — and requires the same lines from each.
func TestExplainLinesAgree(t *testing.T) {
	sys, _ := minerule.Open()
	t.Cleanup(func() { sys.Close() })
	if err := sys.Exec("CREATE TABLE P (gid INTEGER, item VARCHAR, price FLOAT)"); err != nil {
		t.Fatal(err)
	}
	const stmt = `EXPLAIN MINE RULE R AS SELECT DISTINCT 1..n item AS BODY, 1..1 item AS HEAD
		WHERE BODY.price >= 100 AND HEAD.price < 100
		FROM P GROUP BY gid EXTRACTING RULES WITH SUPPORT: 0.1, CONFIDENCE: 0.1`

	// The shell prints to stdout.
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	stdout := os.Stdout
	os.Stdout = w
	runErr := runOne(sys, stmt, runOpts{})
	os.Stdout = stdout
	w.Close()
	out, err := io.ReadAll(r)
	if err != nil || runErr != nil {
		t.Fatalf("shell: %v, %v", runErr, err)
	}
	shell := strings.Split(strings.TrimSuffix(string(out), "\n"), "\n")

	// The web UI renders them in a <pre>.
	req := httptest.NewRequest(http.MethodPost, "/run", strings.NewReader(url.Values{"stmt": {stmt}}.Encode()))
	req.Header.Set("Content-Type", "application/x-www-form-urlencoded")
	rec := httptest.NewRecorder()
	support.NewServer(sys).ServeHTTP(rec, req)
	body := rec.Body.String()
	start, end := strings.Index(body, "<pre>"), strings.Index(body, "</pre>")
	if start < 0 || end < start {
		t.Fatalf("web UI: no <pre> in\n%s", body)
	}
	web := strings.Split(strings.TrimSuffix(html.UnescapeString(body[start+len("<pre>"):end]), "\n"), "\n")

	// A server session returns them as QUERY PLAN rows.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- sys.ServeListener(ctx, ln, minerule.ServerConfig{}) }()
	defer func() {
		cancel()
		if err := <-done; err != nil {
			t.Errorf("serve: %v", err)
		}
	}()
	db, err := sql.Open("minerule", "tcp://"+ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	rows, err := db.Query(stmt)
	if err != nil {
		t.Fatal(err)
	}
	var remote []string
	for rows.Next() {
		var line string
		if err := rows.Scan(&line); err != nil {
			t.Fatal(err)
		}
		remote = append(remote, line)
	}
	if err := rows.Err(); err != nil {
		t.Fatal(err)
	}

	if !strings.HasPrefix(shell[0], "classification {M}; core: general") {
		t.Errorf("shell starts with %q", shell[0])
	}
	for name, lines := range map[string][]string{"web UI": web, "server": remote} {
		if strings.Join(lines, "\n") != strings.Join(shell, "\n") {
			t.Errorf("%s prints\n%s\nthe shell prints\n%s", name, strings.Join(lines, "\n"), strings.Join(shell, "\n"))
		}
	}
}
