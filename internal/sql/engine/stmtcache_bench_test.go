package engine

import (
	"context"
	"testing"

	"minerule/internal/sql/semck"
	"minerule/internal/sql/value"
)

// prepareLive is the test stand-in for the engine's prepare path:
// parse (cached) plus the semantic verdict against the live catalog.
func prepareLive(db *Database, sql string) error {
	p, err := db.parseStmt(sql)
	if err != nil {
		return err
	}
	return db.verdict(p, sql, semck.FromStorage(db.cat), db.cat.Version())
}

func hitPathDB(tb testing.TB) *Database {
	tb.Helper()
	db := New()
	if err := db.ExecScript(`
		CREATE TABLE t (a INTEGER, b VARCHAR);
		INSERT INTO t VALUES (1, 'x'), (2, 'y');
	`); err != nil {
		tb.Fatal(err)
	}
	return db
}

// TestPrepareHitAllocationFree guards the cost model the semantic
// checker was wired in under: the check runs once per cached program
// per catalog version, so a statement-cache hit at an unchanged version
// is a pure lookup — zero heap allocations, no semck work. A regression
// here means semck (or anything else) leaked onto the per-execution
// path.
func TestPrepareHitAllocationFree(t *testing.T) {
	db := hitPathDB(t)
	sql := "SELECT a, UPPER(b) FROM t WHERE a > 1 ORDER BY a"
	if err := prepareLive(db, sql); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if err := prepareLive(db, sql); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("prepare() hit path allocates %.1f objects/op, want 0", allocs)
	}

	// DDL bumps the catalog version: the next hit rechecks once and
	// re-stamps, after which the path is allocation-free again.
	if _, err := db.Exec("CREATE TABLE u (x INTEGER)"); err != nil {
		t.Fatal(err)
	}
	if err := prepareLive(db, sql); err != nil {
		t.Fatal(err)
	}
	allocs = testing.AllocsPerRun(200, func() {
		if err := prepareLive(db, sql); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("prepare() hit path allocates %.1f objects/op after recheck, want 0", allocs)
	}

	// A ? text is one program whatever its arguments: running it with
	// changing args adds no cache entry, and its hit path stays
	// allocation-free.
	const psql = "SELECT a, UPPER(b) FROM t WHERE a = ?"
	_, m0 := db.StatementCacheStats()
	for i := 0; i < 20; i++ {
		if _, err := db.def.ExecContext(context.Background(), psql, value.NewInt(int64(i))); err != nil {
			t.Fatal(err)
		}
	}
	if _, m := db.StatementCacheStats(); m-m0 != 1 {
		t.Fatalf("20 executions with changing args: %d cache misses, want 1", m-m0)
	}
	allocs = testing.AllocsPerRun(200, func() {
		if err := prepareLive(db, psql); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("prepare() hit path of a ? text allocates %.1f objects/op, want 0", allocs)
	}
}

// TestSemCheckOncePerProgram pins the "once per cached program" half of
// the contract via the cache counters: N executions of one text are one
// miss (parse + check) and N-1 verdict reuses.
func TestSemCheckOncePerProgram(t *testing.T) {
	db := hitPathDB(t)
	h0, m0 := db.StatementCacheStats()
	sql := "SELECT COUNT(*) FROM t"
	for i := 0; i < 50; i++ {
		if _, err := db.Query(sql); err != nil {
			t.Fatal(err)
		}
	}
	h, m := db.StatementCacheStats()
	if m-m0 != 1 || h-h0 != 49 {
		t.Fatalf("50 executions: %d misses, %d hits; want 1 and 49", m-m0, h-h0)
	}
}

// BenchmarkPrepareHit measures the statement-cache hit path (lookup +
// cached semck verdict). Compare against BENCH_baseline.json's
// end-to-end targets when assessing prepare-time overhead: the hit path
// must stay allocation-free.
func BenchmarkPrepareHit(b *testing.B) {
	db := hitPathDB(b)
	sql := "SELECT a, UPPER(b) FROM t WHERE a > 1 ORDER BY a"
	if err := prepareLive(db, sql); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := prepareLive(db, sql); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPreparedPointRead runs one ? point read with a new key each
// iteration: the statement-cache hit, argument binding and the index
// lookup, with allocations reported per execution.
func BenchmarkPreparedPointRead(b *testing.B) {
	db := New()
	if err := db.ExecScript("CREATE TABLE kv (k INTEGER, v VARCHAR); CREATE INDEX kv_k ON kv (k)"); err != nil {
		b.Fatal(err)
	}
	c := db.Conn()
	ctx := context.Background()
	const keys = 1000
	for k := 0; k < keys; k++ {
		if _, err := c.ExecContext(ctx, "INSERT INTO kv VALUES (?, ?)", value.NewInt(int64(k)), value.NewString("v")); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := c.ExecContext(ctx, "SELECT v FROM kv WHERE k = ?", value.NewInt(int64(i%keys)))
		if err != nil || len(res.Rows) != 1 {
			b.Fatalf("read %d: %v", i%keys, err)
		}
	}
}
