package engine

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"

	"minerule/internal/sql/semck"
)

// TestStatementCacheHits proves repeated statement texts are served from
// the prepared-program cache.
func TestStatementCacheHits(t *testing.T) {
	db := New()
	if err := db.ExecScript(`
		CREATE TABLE t (a INTEGER, b VARCHAR);
		INSERT INTO t VALUES (1, 'x');
		INSERT INTO t VALUES (2, 'y');
	`); err != nil {
		t.Fatal(err)
	}
	const q = "SELECT a FROM t ORDER BY a"
	for i := 0; i < 5; i++ {
		res, err := db.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rows) != 2 {
			t.Fatalf("run %d: got %d rows, want 2", i, len(res.Rows))
		}
	}
	hits, misses := db.StatementCacheStats()
	if hits < 4 {
		t.Errorf("hits = %d, want >= 4 (5 runs of one text)", hits)
	}
	if misses == 0 {
		t.Errorf("misses = 0, want at least the first parse")
	}
}

// TestStatementCacheHotEntriesSurviveChurn is the regression test for
// the full-flush eviction bug: a churn of distinct one-shot statements
// used to wipe the whole cache at the 1024-entry limit, discarding the
// kernel's hot templates along with the cold junk. Under second-chance
// eviction a hot statement that keeps being re-executed must never be
// re-parsed (zero misses after its first insertion) across 10k one-shot
// inserts.
func TestStatementCacheHotEntriesSurviveChurn(t *testing.T) {
	db := New()
	if err := db.ExecScript(`
		CREATE TABLE t (a INTEGER);
		INSERT INTO t VALUES (1);
	`); err != nil {
		t.Fatal(err)
	}
	const hot = "SELECT COUNT(*) FROM t"
	if _, err := db.QueryInt(hot); err != nil { // initial parse + insert
		t.Fatal(err)
	}

	var hotMisses uint64
	for i := 0; i < 10000; i++ {
		// One-shot statement with a distinct literal: never reused.
		if _, err := db.Query(fmt.Sprintf("SELECT a + %d FROM t", i)); err != nil {
			t.Fatal(err)
		}
		if i%16 == 0 {
			_, m0 := db.StatementCacheStats()
			if _, err := db.QueryInt(hot); err != nil {
				t.Fatal(err)
			}
			_, m1 := db.StatementCacheStats()
			hotMisses += m1 - m0
		}
	}
	if hotMisses != 0 {
		t.Errorf("hot statement re-parsed %d time(s) during churn; second-chance eviction should keep it cached", hotMisses)
	}
	if ev := db.StatementCacheEvictions(); ev == 0 {
		t.Errorf("evictions = 0, want > 0 after 10k one-shot statements against a %d-entry cache", stmtCacheLimit)
	}
}

// TestStatementCacheSeesDDL proves a cached program never reads a stale
// catalog: the same statement text re-executed after DROP/CREATE DDL
// must observe the new object, because cached entries are pure syntax
// and bind against the dictionary on every execution.
func TestStatementCacheSeesDDL(t *testing.T) {
	db := New()
	if err := db.ExecScript(`
		CREATE TABLE t (a INTEGER);
		INSERT INTO t VALUES (1);
	`); err != nil {
		t.Fatal(err)
	}
	const q = "SELECT COUNT(*) FROM t"
	n, err := db.QueryInt(q)
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("before DDL: COUNT(*) = %d, want 1", n)
	}

	// Replace the table wholesale; the cached text must see the new one.
	if err := db.ExecScript(`
		DROP TABLE t;
		CREATE TABLE t (a INTEGER, b INTEGER);
		INSERT INTO t VALUES (1, 10);
		INSERT INTO t VALUES (2, 20);
		INSERT INTO t VALUES (3, 30);
	`); err != nil {
		t.Fatal(err)
	}
	n, err = db.QueryInt(q)
	if err != nil {
		t.Fatal(err)
	}
	if n != 3 {
		t.Fatalf("after DDL: COUNT(*) = %d, want 3 (stale catalog?)", n)
	}
	// A column that only exists post-DDL must resolve through the cache
	// path too.
	if _, err := db.Query("SELECT b FROM t"); err != nil {
		t.Fatalf("new column through cached bind: %v", err)
	}
}

// TestViewPlanCacheInvalidation proves the executor's view-plan cache
// keys on the catalog version: redefining a view under the same name
// changes the rows the next query sees.
func TestViewPlanCacheInvalidation(t *testing.T) {
	db := New()
	if err := db.ExecScript(`
		CREATE TABLE t (a INTEGER);
		INSERT INTO t VALUES (1);
		INSERT INTO t VALUES (2);
		INSERT INTO t VALUES (3);
		CREATE VIEW v AS SELECT a FROM t WHERE a < 3;
	`); err != nil {
		t.Fatal(err)
	}
	const q = "SELECT COUNT(*) FROM v"
	n, err := db.QueryInt(q)
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("original view: COUNT(*) = %d, want 2", n)
	}
	// Warm the plan cache with a second use, then redefine the view.
	if _, err := db.QueryInt(q); err != nil {
		t.Fatal(err)
	}
	if err := db.ExecScript(`
		DROP VIEW v;
		CREATE VIEW v AS SELECT a FROM t WHERE a >= 3;
	`); err != nil {
		t.Fatal(err)
	}
	n, err = db.QueryInt(q)
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("redefined view: COUNT(*) = %d, want 1 (stale view plan?)", n)
	}
}

// TestPrepareUnderConcurrentDDL: a verdict primed by Prepare at catalog
// version V must not execute after DDL replaces the table — the cached
// text revalidates against the current (or snapshot) catalog version,
// so a column dropped by the DDL is a semantic error, never a stale
// execution.
func TestPrepareUnderConcurrentDDL(t *testing.T) {
	db := New()
	if err := db.ExecScript(`
		CREATE TABLE t (a INTEGER);
		INSERT INTO t VALUES (1);
	`); err != nil {
		t.Fatal(err)
	}
	const q = "SELECT a FROM t"
	if _, err := db.Prepare(q); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Query(q); err != nil {
		t.Fatal(err)
	}

	// A snapshot transaction opened now is pinned to the pre-DDL catalog:
	// the cached statement must keep resolving column a inside it even
	// after the live table loses that column.
	conn := db.Conn()
	defer conn.Close()
	if _, err := conn.Exec("BEGIN"); err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Exec(q); err != nil {
		t.Fatalf("cached statement inside pre-DDL snapshot: %v", err)
	}

	if err := db.ExecScript(`
		DROP TABLE t;
		CREATE TABLE t (b INTEGER);
		INSERT INTO t VALUES (10);
		INSERT INTO t VALUES (20);
	`); err != nil {
		t.Fatal(err)
	}

	// The open transaction still validates against its snapshot's version.
	if _, err := conn.Exec(q); err != nil {
		t.Fatalf("cached statement revalidated against live catalog instead of the snapshot: %v", err)
	}
	if _, err := conn.Exec("COMMIT"); err != nil {
		t.Fatal(err)
	}

	// Autocommit now sees the new schema: column a is gone, b resolves.
	if _, err := db.Query(q); err == nil {
		t.Fatal("stale verdict: cached SELECT a executed against a table without column a")
	} else if !strings.Contains(err.Error(), "unknown column") {
		t.Fatalf("post-DDL error = %v, want unknown column", err)
	}
	n, err := db.QueryInt("SELECT COUNT(*) FROM t")
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("post-DDL COUNT(*) = %d, want 2", n)
	}
}

// TestPrepareDDLRace hammers Prepare+execute against concurrent
// DROP/CREATE of the same table. Every outcome must be a clean success
// or a semantic error (unknown column, or unknown table between the
// DROP and the CREATE) — never a stale-verdict execution, panic, or
// race-detector report.
func TestPrepareDDLRace(t *testing.T) {
	db := New()
	if err := db.ExecScript(`
		CREATE TABLE t (a INTEGER);
		INSERT INTO t VALUES (1);
	`); err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			// Two identical re-creates in a row, then a different
			// shape: cached verdicts are replayed across the first kind
			// of DDL and must be rechecked across the second.
			ddl := `DROP TABLE t; CREATE TABLE t (a INTEGER); INSERT INTO t VALUES (1);`
			if i%3 == 2 {
				ddl = `DROP TABLE t; CREATE TABLE t (b INTEGER); INSERT INTO t VALUES (2);`
			}
			if err := db.ExecScript(ddl); err != nil {
				t.Errorf("DDL churn: %v", err)
				return
			}
		}
	}()
	// churnErr reports whether err is one of the two semantic errors the
	// churn can legitimately cause.
	churnErr := func(err error) bool {
		var se *semck.Error
		if !errors.As(err, &se) {
			return false
		}
		msg := se.Error()
		return strings.Contains(msg, "unknown column") || strings.Contains(msg, "unknown table")
	}
	// A second reader replays verdicts against a pinned snapshot while
	// the live catalog moves on.
	wg.Add(1)
	go func() {
		defer wg.Done()
		c := db.Conn()
		defer c.Close()
		for i := 0; i < 100; i++ {
			if _, err := c.Exec("BEGIN"); err != nil {
				t.Errorf("BEGIN: %v", err)
				return
			}
			for j := 0; j < 3; j++ {
				res, err := c.Exec("SELECT a FROM t")
				if err != nil {
					if !churnErr(err) {
						t.Errorf("snapshot query during DDL churn: %v", err)
					}
					continue
				}
				if got := res.Schema.Col(0).Name; got != "a" {
					t.Errorf("stale snapshot verdict returned column %q, want a", got)
				}
			}
			if _, err := c.Exec("COMMIT"); err != nil {
				t.Errorf("COMMIT: %v", err)
				return
			}
		}
	}()
	for i := 0; i < 200; i++ {
		const q = "SELECT a FROM t"
		if _, err := db.Prepare(q); err != nil && !churnErr(err) {
			t.Fatalf("prepare during DDL churn: %v", err)
		}
		res, err := db.Query(q)
		if err != nil {
			if !churnErr(err) {
				t.Fatalf("query during DDL churn: %v", err)
			}
			continue
		}
		// When it executes, the verdict matched the schema it ran against.
		if got := res.Schema.Col(0).Name; got != "a" {
			t.Fatalf("stale plan returned column %q, want a", got)
		}
	}
	close(stop)
	wg.Wait()
}
