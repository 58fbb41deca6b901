package engine

import (
	"strings"
	"testing"
)

func indexDB(t *testing.T) *Database {
	t.Helper()
	db := New()
	err := db.ExecScript(`
		CREATE TABLE t (k INTEGER, v VARCHAR, d DATE);
		INSERT INTO t VALUES
			(1, 'a', DATE '1995-01-01'),
			(2, 'b', DATE '1995-01-02'),
			(2, 'c', DATE '1995-01-02'),
			(3, NULL, NULL);
		CREATE INDEX t_k ON t (k);
	`)
	if err != nil {
		t.Fatal(err)
	}
	return db
}

func TestIndexPointLookup(t *testing.T) {
	db := indexDB(t)
	rows := rowStrings(t, db, "SELECT v FROM t WHERE k = 2 ORDER BY v")
	if strings.Join(rows, ",") != "b,c" {
		t.Fatalf("lookup = %v", rows)
	}
	// Misses return empty, not errors.
	rows = rowStrings(t, db, "SELECT v FROM t WHERE k = 99")
	if len(rows) != 0 {
		t.Fatalf("miss = %v", rows)
	}
	// Float literal matches integer keys (numeric promotion).
	n, err := db.QueryInt("SELECT COUNT(*) FROM t WHERE k = 2.0")
	if err != nil || n != 2 {
		t.Fatalf("promoted lookup = %d (%v)", n, err)
	}
	// Reversed operand order.
	n, err = db.QueryInt("SELECT COUNT(*) FROM t WHERE 1 = k")
	if err != nil || n != 1 {
		t.Fatalf("reversed lookup = %d (%v)", n, err)
	}
}

func TestIndexStaysConsistentAcrossMutations(t *testing.T) {
	db := indexDB(t)
	if err := db.ExecScript("INSERT INTO t VALUES (2, 'z', NULL)"); err != nil {
		t.Fatal(err)
	}
	n, _ := db.QueryInt("SELECT COUNT(*) FROM t WHERE k = 2")
	if n != 3 {
		t.Fatalf("after insert = %d", n)
	}
	if _, err := db.Exec("DELETE FROM t WHERE v = 'b'"); err != nil {
		t.Fatal(err)
	}
	n, _ = db.QueryInt("SELECT COUNT(*) FROM t WHERE k = 2")
	if n != 2 {
		t.Fatalf("after delete = %d", n)
	}
	if _, err := db.Exec("UPDATE t SET k = 5 WHERE v = 'c'"); err != nil {
		t.Fatal(err)
	}
	n, _ = db.QueryInt("SELECT COUNT(*) FROM t WHERE k = 5")
	if n != 1 {
		t.Fatalf("after update = %d", n)
	}
	n, _ = db.QueryInt("SELECT COUNT(*) FROM t WHERE k = 2")
	if n != 1 {
		t.Fatalf("stale index entry after update: %d", n)
	}
}

func TestIndexDateCoercion(t *testing.T) {
	db := indexDB(t)
	if err := db.ExecScript("CREATE INDEX t_d ON t (d)"); err != nil {
		t.Fatal(err)
	}
	n, err := db.QueryInt("SELECT COUNT(*) FROM t WHERE d = '1995-01-02'")
	if err != nil || n != 2 {
		t.Fatalf("date-string lookup = %d (%v)", n, err)
	}
	// NULLs are not indexed and never equal.
	n, _ = db.QueryInt("SELECT COUNT(*) FROM t WHERE d = '1990-01-01'")
	if n != 0 {
		t.Fatalf("null leak = %d", n)
	}
}

func TestIndexEquivalenceWithScan(t *testing.T) {
	// The same query with and without the index must agree.
	plain := New()
	err := plain.ExecScript(`
		CREATE TABLE t (k INTEGER, v VARCHAR, d DATE);
		INSERT INTO t VALUES (1, 'a', NULL), (2, 'b', NULL), (2, 'c', NULL), (3, NULL, NULL);
	`)
	if err != nil {
		t.Fatal(err)
	}
	indexed := indexDB(t)
	for _, q := range []string{
		"SELECT COUNT(*) FROM t WHERE k = 2",
		"SELECT COUNT(*) FROM t WHERE k = 2 AND v = 'b'",
		"SELECT COUNT(*) FROM t WHERE k = 2 OR k = 1",
		"SELECT COUNT(*) FROM t WHERE v = 'x'",
	} {
		a, err1 := plain.QueryInt(q)
		b, err2 := indexed.QueryInt(q)
		if err1 != nil || err2 != nil || a != b {
			t.Errorf("%s: plain %d (%v) vs indexed %d (%v)", q, a, err1, b, err2)
		}
	}
}

func TestIndexInJoinQuery(t *testing.T) {
	db := indexDB(t)
	if err := db.ExecScript("CREATE TABLE u (k INTEGER); INSERT INTO u VALUES (2), (3)"); err != nil {
		t.Fatal(err)
	}
	// The indexed conjunct narrows t before the join.
	n, err := db.QueryInt("SELECT COUNT(*) FROM t, u WHERE t.k = 2 AND t.k = u.k")
	if err != nil || n != 2 {
		t.Fatalf("join with index = %d (%v)", n, err)
	}
}

func TestIndexCatalogRules(t *testing.T) {
	db := indexDB(t)
	if err := db.ExecScript("CREATE INDEX t_k ON t (k)"); err == nil {
		t.Error("duplicate index accepted")
	}
	if err := db.ExecScript("CREATE INDEX t ON t (k)"); err == nil {
		t.Error("index named like a table accepted")
	}
	if err := db.ExecScript("CREATE INDEX i2 ON missing (k)"); err == nil {
		t.Error("index on missing table accepted")
	}
	if err := db.ExecScript("CREATE INDEX i2 ON t (missing)"); err == nil {
		t.Error("index on missing column accepted")
	}
	if err := db.ExecScript("DROP INDEX t_k"); err != nil {
		t.Fatal(err)
	}
	if err := db.ExecScript("DROP INDEX t_k"); err == nil {
		t.Error("double drop accepted")
	}
	// Dropping a table drops its indexes from the namespace.
	if err := db.ExecScript("CREATE INDEX t_k2 ON t (k); DROP TABLE t; CREATE SEQUENCE t_k2"); err != nil {
		t.Fatalf("index name not released on DROP TABLE: %v", err)
	}
}

func TestExplainSQL(t *testing.T) {
	db := indexDB(t)
	if err := db.ExecScript("CREATE TABLE u (k INTEGER); INSERT INTO u VALUES (1), (2)"); err != nil {
		t.Fatal(err)
	}
	out, err := db.ExplainSQL("SELECT COUNT(*) FROM t, u WHERE t.k = 2 AND t.k = u.k")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"index lookup t.k", "hash join", "result: 1 row(s)"} {
		if !strings.Contains(out, want) {
			t.Errorf("explain missing %q:\n%s", want, out)
		}
	}
	// Non-equi join shows the cartesian fallback.
	out, err = db.ExplainSQL("SELECT COUNT(*) FROM u a, u b WHERE a.k < b.k")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "cartesian product") || !strings.Contains(out, "filter") {
		t.Errorf("explain missing plan detail:\n%s", out)
	}
	// Tracing is off again after ExplainSQL.
	if _, err := db.Query("SELECT k FROM u"); err != nil {
		t.Fatal(err)
	}
	out2, err := db.ExplainSQL("SELECT k FROM u WHERE k = 1")
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(out2, "hash join") {
		t.Errorf("stale trace lines leaked:\n%s", out2)
	}
}
