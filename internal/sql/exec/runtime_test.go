package exec

import (
	"context"
	"fmt"
	"testing"

	"minerule/internal/sql/parse"
	"minerule/internal/sql/storage"
	"minerule/internal/sql/txn"
)

// run executes one statement inside tx on a fresh runtime.
func run(t *testing.T, tx *txn.Txn, sql string) *Result {
	t.Helper()
	st, err := parse.Parse(sql)
	if err != nil {
		t.Fatalf("%s: %v", sql, err)
	}
	res, err := (&Runtime{Txn: tx}).ExecContext(context.Background(), st)
	if err != nil {
		t.Fatalf("%s: %v", sql, err)
	}
	return res
}

// column reads t.a in order as tx sees it.
func column(t *testing.T, tx *txn.Txn) string {
	t.Helper()
	var out []int64
	for _, r := range run(t, tx, "SELECT a FROM t ORDER BY a").Rows {
		out = append(out, r[0].Int())
	}
	return fmt.Sprint(out)
}

// TestRuntimeWritesThroughTxn drives the executor's write statements
// over a bare txn.Manager, no engine: each one must be visible to its
// own transaction at once, invisible to a concurrent one, and visible to
// every transaction after commit.
func TestRuntimeWritesThroughTxn(t *testing.T) {
	cases := []struct {
		name     string
		stmt     string
		affected int
		want     string
	}{
		{"insert", "INSERT INTO t VALUES (4), (5)", 2, "[1 2 3 4 5]"},
		{"insert select", "INSERT INTO t SELECT a + 10 FROM t WHERE a > 1", 2, "[1 2 3 12 13]"},
		{"update", "UPDATE t SET a = a * 10 WHERE a >= 2", 2, "[1 20 30]"},
		{"delete where", "DELETE FROM t WHERE a = 2", 1, "[1 3]"},
		{"delete all", "DELETE FROM t", 3, "[]"},
	}
	ctx := context.Background()
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m := txn.NewManager(storage.NewCatalog(), nil, nil, 0)
			setup := m.Begin()
			run(t, setup, "CREATE TABLE t (a INTEGER)")
			run(t, setup, "INSERT INTO t VALUES (3), (1), (2)")
			if err := setup.Commit(ctx); err != nil {
				t.Fatal(err)
			}

			tx := m.Begin()
			if res := run(t, tx, tc.stmt); res.RowsAffected != tc.affected {
				t.Fatalf("RowsAffected = %d, want %d", res.RowsAffected, tc.affected)
			}
			if got := column(t, tx); got != tc.want {
				t.Fatalf("own transaction reads %s, want %s", got, tc.want)
			}
			other := m.Begin()
			if got := column(t, other); got != "[1 2 3]" {
				t.Fatalf("concurrent transaction reads %s before commit", got)
			}
			other.Rollback()
			if err := tx.Commit(ctx); err != nil {
				t.Fatal(err)
			}

			after := m.Begin()
			defer after.Rollback()
			if got := column(t, after); got != tc.want {
				t.Fatalf("after commit reads %s, want %s", got, tc.want)
			}
		})
	}
}

// TestRuntimeNeedsTxn: without a transaction there is no database to
// run against, and ExecContext says so instead of panicking.
func TestRuntimeNeedsTxn(t *testing.T) {
	st, err := parse.Parse("SELECT 1")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := (&Runtime{}).ExecContext(context.Background(), st); err == nil {
		t.Fatal("ExecContext without a transaction succeeded")
	}
}
