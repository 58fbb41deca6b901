package engine

import (
	"context"
	"math"
	"strings"
	"testing"

	"minerule/internal/sql/schema"
	"minerule/internal/sql/value"
)

func paramDB(t *testing.T) *Database {
	t.Helper()
	db := New()
	if err := db.ExecScript("CREATE TABLE t (a INTEGER, b VARCHAR, c VARCHAR, f FLOAT)"); err != nil {
		t.Fatal(err)
	}
	c := db.Conn()
	for _, row := range [][]value.Value{
		{value.NewInt(7), value.NewString("it's"), value.Null, value.NewFloat(math.NaN())},
		{value.NewInt(math.MinInt64), value.NewString("?--/*"), value.NewString("x"), value.NewFloat(math.Copysign(0, -1))},
		{value.NewInt(2), value.NewString("y"), value.NewString("z"), value.NewFloat(math.Inf(1))},
	} {
		if _, err := c.ExecContext(context.Background(), "INSERT INTO t VALUES (?, ?, ?, ?)", row...); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

// query runs one SELECT with bound arguments and returns its rows.
func query(t *testing.T, db *Database, sql string, args ...value.Value) []schema.Row {
	t.Helper()
	res, err := db.Conn().ExecContext(context.Background(), sql, args...)
	if err != nil {
		t.Fatalf("%s: %v", sql, err)
	}
	return res.Rows
}

// TestBindArgs: arguments bind as values, so no value needs a literal
// spelling (NaN, -0.0, MinInt64, quotes), a NULL argument compares as
// UNKNOWN, and a ? inside a string or comment is not a parameter.
func TestBindArgs(t *testing.T) {
	db := paramDB(t)
	if rows := query(t, db, "SELECT b FROM t WHERE a = ? AND b = ? AND c = ?",
		value.NewInt(7), value.NewString("it's"), value.Null); len(rows) != 0 {
		t.Fatalf("c = NULL matched %v", rows)
	}
	if rows := query(t, db, "SELECT b FROM t WHERE a = ? AND b = ? AND c IS NULL",
		value.NewInt(7), value.NewString("it's")); len(rows) != 1 || rows[0][0].Str() != "it's" {
		t.Fatalf("got %v", rows)
	}
	rows := query(t, db, "SELECT f, b FROM t WHERE a = ?", value.NewInt(math.MinInt64))
	if len(rows) != 1 || rows[0][0].Float() != 0 || !math.Signbit(rows[0][0].Float()) || rows[0][1].Str() != "?--/*" {
		t.Fatalf("MinInt64 key: %v", rows)
	}
	if rows := query(t, db, "SELECT a FROM t WHERE f = ?", value.NewFloat(math.NaN())); len(rows) != 1 || rows[0][0].Int() != 7 {
		t.Fatalf("NaN key: %v", rows)
	}
	if rows := query(t, db, "SELECT '?', a /* ? */ FROM t WHERE b = '?--/*' -- ?"); len(rows) != 1 || rows[0][0].Str() != "?" {
		t.Fatalf("quoted ?: %v", rows)
	}
}

// TestBindArity: an execution must bind exactly the text's parameters,
// in both directions, on the statement and the script path.
func TestBindArity(t *testing.T) {
	db := paramDB(t)
	c := db.Conn()
	ctx := context.Background()
	for _, tc := range []struct {
		sql  string
		args []value.Value
		want string
	}{
		{"SELECT a FROM t WHERE a = ? AND b = ?", []value.Value{value.NewInt(1)}, "has 2 parameter(s), got 1 argument(s)"},
		{"SELECT a FROM t WHERE a = ?", []value.Value{value.NewInt(1), value.NewInt(2)}, "has 1 parameter(s), got 2 argument(s)"},
		{"SELECT a FROM t", []value.Value{value.NewInt(1)}, "has 0 parameter(s), got 1 argument(s)"},
	} {
		if _, err := c.ExecContext(ctx, tc.sql, tc.args...); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s with %d args: %v, want %q", tc.sql, len(tc.args), err, tc.want)
		}
	}
	err := c.ExecScriptContext(ctx, "INSERT INTO t (a) VALUES (?); INSERT INTO t (a) VALUES (?)", value.NewInt(1))
	if err == nil || !strings.Contains(err.Error(), "has 2 parameter(s), got 1 argument(s)") {
		t.Errorf("script arity: %v", err)
	}
	if n, err := db.Prepare("SELECT a FROM t WHERE a = ? OR a = ?"); n != 2 || err != nil {
		t.Errorf("Prepare = %d, %v; want 2 parameters", n, err)
	}
}

// TestBindScript: a script numbers its parameters across statements, so
// one argument list binds them all in order.
func TestBindScript(t *testing.T) {
	db := paramDB(t)
	script := "INSERT INTO t (a, b) VALUES (?, 'first'); INSERT INTO t (a, b) VALUES (?, 'second')"
	if n, err := db.Prepare(script); n != 2 || err != nil {
		t.Fatalf("Prepare(script) = %d, %v; want 2 parameters", n, err)
	}
	if err := db.Conn().ExecScriptContext(context.Background(), script, value.NewInt(10), value.NewInt(20)); err != nil {
		t.Fatal(err)
	}
	rows := query(t, db, "SELECT a, b FROM t WHERE a >= ? ORDER BY a", value.NewInt(10))
	if len(rows) != 2 || rows[0][1].Str() != "first" || rows[1][0].Int() != 20 {
		t.Fatalf("got %v", rows)
	}
}

// TestParamTextCheckedOnce: one ? text run with 100 distinct arguments
// is one statement-cache miss and one full semantic check.
func TestParamTextCheckedOnce(t *testing.T) {
	db := paramDB(t)
	met := db.Metrics()
	_, m0 := db.StatementCacheStats()
	c0 := met.SemckChecks.Load()
	for i := 0; i < 100; i++ {
		query(t, db, "SELECT b FROM t WHERE a = ?", value.NewInt(int64(i)))
	}
	if _, m := db.StatementCacheStats(); m-m0 != 1 {
		t.Errorf("100 executions: %d statement-cache misses, want 1", m-m0)
	}
	if c := met.SemckChecks.Load(); c-c0 != 1 {
		t.Errorf("100 executions: %d full semantic checks, want 1", c-c0)
	}
}

// TestParamIndexLookup: "k = ?" on an indexed column takes the index
// path, either orientation; a mistyped argument fails in the executor.
func TestParamIndexLookup(t *testing.T) {
	db := indexDB(t)
	for _, sql := range []string{"SELECT v FROM t WHERE k = ?", "SELECT v FROM t WHERE ? = k"} {
		plan, err := db.ExplainSQL(sql, value.NewInt(2))
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(plan, "index lookup t.k = 2") || !strings.Contains(plan, "result: 2 row(s)") {
			t.Errorf("%s: plan lacks the index lookup:\n%s", sql, plan)
		}
	}
	_, err := db.Conn().ExecContext(context.Background(), "SELECT v FROM t WHERE k = ?", value.NewString("x"))
	if err == nil || !strings.Contains(err.Error(), "cannot compare") || strings.Contains(err.Error(), "semck") {
		t.Errorf("mistyped argument: %v, want the executor's comparison error", err)
	}
}
