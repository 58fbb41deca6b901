package txn_test

import (
	"testing"

	"minerule/internal/sql/engine"
)

// TestDropRecreateInsertDurable is TestDropRecreateInsert through the
// engine on a durable database: the commit frame must carry the
// re-created table's rows once, so the reopened directory holds [2]
// too. (An external test package: engine imports txn.)
func TestDropRecreateInsertDurable(t *testing.T) {
	dir := t.TempDir()
	check := func(db *engine.Database, when string) {
		t.Helper()
		res, err := db.Query("SELECT a FROM t")
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rows) != 1 || res.Rows[0][0].Int() != 2 {
			t.Fatalf("%s: t = %v, want [[2]]", when, res.Rows)
		}
	}
	db, err := engine.Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	c := db.Conn()
	for _, sql := range []string{
		"BEGIN",
		"CREATE TABLE t (a INTEGER)",
		"INSERT INTO t VALUES (1)",
		"DROP TABLE t",
		"CREATE TABLE t (a INTEGER)",
		"INSERT INTO t VALUES (2)",
		"COMMIT",
	} {
		if _, err := c.Exec(sql); err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
	}
	check(db, "after commit")
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db2, err := engine.Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	check(db2, "after reopen")
}
