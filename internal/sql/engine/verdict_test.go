package engine

import (
	"errors"
	"testing"

	"minerule/internal/sql/parse"
	"minerule/internal/sql/semck"
)

// coldCheck is the verdict a fresh semck.Check gives text against the
// live catalog, as a comparable string ("" when accepted).
func coldCheck(t *testing.T, db *Database, text string) string {
	t.Helper()
	st, err := parse.Parse(text)
	if err != nil {
		t.Fatal(err)
	}
	if err := semck.Check(semck.FromStorage(db.Catalog()), st, text); err != nil {
		return err.Error()
	}
	return ""
}

// memoVerdict is the diagnostic the engine's cached verdict gives text
// ("" when accepted).
func memoVerdict(t *testing.T, db *Database, text string) string {
	t.Helper()
	_, err := db.Prepare(text)
	if err == nil {
		return ""
	}
	var se *semck.Error
	if !errors.As(err, &se) {
		t.Fatalf("Prepare(%q): non-semantic error %v", text, err)
	}
	return se.Error()
}

// TestVerdictMemoRevalidates: a cached verdict is reused across DDL only
// while the dictionary answers the checker's lookups the same way. Each
// case primes the verdict, applies DDL that changes what the statement
// reads, and expects exactly the diagnostic a cold check gives; an
// identical re-create must be accepted without a full check.
func TestVerdictMemoRevalidates(t *testing.T) {
	const setup = `
		CREATE TABLE t (a INTEGER, b VARCHAR);
		CREATE VIEW v AS SELECT a, b FROM t;
		CREATE SEQUENCE s;
		CREATE INDEX ix ON t (a);`
	for _, c := range []struct {
		name string
		stmt string // the cached statement
		ddl  string // changes what stmt reads
	}{
		{"renamed column", "INSERT INTO t (a, b) VALUES (1, 'x')",
			"DROP TABLE t; CREATE TABLE t (a INTEGER, c VARCHAR)"},
		{"changed type", "INSERT INTO t (a, b) VALUES (1, 'x')",
			"DROP TABLE t; CREATE TABLE t (a VARCHAR, b VARCHAR)"},
		{"changed view body", "SELECT a FROM v WHERE a > 0",
			"DROP VIEW v; CREATE VIEW v AS SELECT b FROM t"},
		{"dropped sequence", "INSERT INTO t (a, b) SELECT s.NEXTVAL, b FROM t",
			"DROP SEQUENCE s"},
		{"dropped index", "DROP INDEX ix",
			"drop index ix"},
		{"name taken", "CREATE TABLE w (x INTEGER)",
			"CREATE SEQUENCE w"},
	} {
		t.Run(c.name, func(t *testing.T) {
			db := New()
			if err := db.ExecScript(setup); err != nil {
				t.Fatal(err)
			}
			if got := memoVerdict(t, db, c.stmt); got != "" {
				t.Fatalf("prime: %s", got)
			}
			if err := db.ExecScript(c.ddl); err != nil {
				t.Fatal(err)
			}
			want := coldCheck(t, db, c.stmt)
			if want == "" {
				t.Fatal("the DDL did not invalidate the statement; the case tests nothing")
			}
			if got := memoVerdict(t, db, c.stmt); got != want {
				t.Fatalf("memo verdict %q, cold check %q", got, want)
			}
			// The rejection itself is memoised and revalidated too.
			if got := memoVerdict(t, db, c.stmt); got != want {
				t.Fatalf("second memo verdict %q, cold check %q", got, want)
			}
		})
	}

	t.Run("identical re-create", func(t *testing.T) {
		db := New()
		if err := db.ExecScript(setup); err != nil {
			t.Fatal(err)
		}
		stmts := []string{
			"INSERT INTO t (a, b) VALUES (1, 'x')",
			"SELECT a FROM v WHERE a > 0",
			"INSERT INTO t (a, b) SELECT s.NEXTVAL, b FROM t",
			"CREATE TABLE w (x INTEGER)",
		}
		for _, q := range stmts {
			if got := memoVerdict(t, db, q); got != "" {
				t.Fatalf("prime %q: %s", q, got)
			}
		}
		if err := db.ExecScript(`
			DROP TABLE t; CREATE TABLE t (a INTEGER, b VARCHAR);
			DROP VIEW v; CREATE VIEW v AS SELECT a, b FROM t;
			DROP SEQUENCE s; CREATE SEQUENCE s;`); err != nil {
			t.Fatal(err)
		}
		met := db.Metrics()
		checks, reuse := met.SemckChecks.Load(), met.SemckVerdictReuse.Load()
		for _, q := range stmts {
			if got := memoVerdict(t, db, q); got != "" {
				t.Fatalf("after identical re-create %q: %s", q, got)
			}
		}
		if d := met.SemckChecks.Load() - checks; d != 0 {
			t.Errorf("%d full checks after an identical re-create, want 0", d)
		}
		if d := met.SemckVerdictReuse.Load() - reuse; d != int64(len(stmts)) {
			t.Errorf("%d verdict replays, want %d", d, len(stmts))
		}
		// The replayed verdict is re-stamped: the next hit is a pure
		// lookup again.
		for _, q := range stmts {
			_ = memoVerdict(t, db, q)
		}
		if d := met.SemckVerdictReuse.Load() - reuse; d != int64(len(stmts)) {
			t.Errorf("re-stamped verdicts replayed again (%d replays)", d)
		}
	})
}

// TestVerdictMemoUnderSnapshot: a statement executing in a transaction
// revalidates its verdict against the transaction's snapshot, not the
// live catalog, so a concurrent re-create with another shape neither
// leaks in nor poisons the memo for later statements.
func TestVerdictMemoUnderSnapshot(t *testing.T) {
	db := New()
	if err := db.ExecScript(`CREATE TABLE t (a INTEGER); INSERT INTO t VALUES (1);`); err != nil {
		t.Fatal(err)
	}
	const q = "SELECT a FROM t"
	if _, err := db.Query(q); err != nil {
		t.Fatal(err)
	}
	c := db.Conn()
	defer c.Close()
	if _, err := c.Exec("BEGIN"); err != nil {
		t.Fatal(err)
	}
	// Pin the snapshot before the DDL.
	if _, err := c.Exec("SELECT COUNT(*) FROM t"); err != nil {
		t.Fatal(err)
	}
	if err := db.ExecScript(`DROP TABLE t; CREATE TABLE t (b INTEGER);`); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Query(q); err == nil {
		t.Fatal("live query of a dropped column was accepted")
	}
	res, err := c.Exec(q)
	if err != nil {
		t.Fatalf("snapshot query rejected: %v", err)
	}
	if got := res.Schema.Col(0).Name; got != "a" {
		t.Fatalf("snapshot query returned column %q", got)
	}
	if _, err := c.Exec("COMMIT"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Query(q); err == nil {
		t.Fatal("the snapshot's verdict leaked to the live catalog")
	}
}
