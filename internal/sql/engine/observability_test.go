package engine

import (
	"fmt"
	"strings"
	"testing"
	"time"
)

func obsDB(t *testing.T) *Database {
	t.Helper()
	db := New()
	if err := db.ExecScript(`
		CREATE TABLE s (tid INTEGER, item VARCHAR, price FLOAT);
		INSERT INTO s VALUES (1, 'ski_pants', 120.0);
		INSERT INTO s VALUES (1, 'hiking_boots', 180.0);
		INSERT INTO s VALUES (2, 'col_shirts', 25.0);
		INSERT INTO s VALUES (2, 'brown_boots', 150.0);
		INSERT INTO s VALUES (2, 'jackets', 300.0);
		INSERT INTO s VALUES (3, 'jackets', 300.0);
	`); err != nil {
		t.Fatal(err)
	}
	return db
}

// TestExplainStatement proves EXPLAIN returns the resolved operator tree
// with per-node row counts instead of the query rows.
func TestExplainStatement(t *testing.T) {
	db := obsDB(t)
	res, err := db.Query("EXPLAIN SELECT item, COUNT(*) FROM s WHERE price > 100 GROUP BY item")
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Schema.Col(0).Name; got != "QUERY PLAN" {
		t.Fatalf("column = %q, want QUERY PLAN", got)
	}
	var plan strings.Builder
	for _, r := range res.Rows {
		plan.WriteString(r[0].String())
		plan.WriteByte('\n')
	}
	out := plan.String()
	for _, want := range []string{
		"query rows=4",
		"select",
		"scan table=s rows=6",
		"filter",
		"rows_in=6 rows=5",
		"group groups=4 rows=4",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("plan missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "time=") {
		t.Fatalf("plain EXPLAIN should not include timings:\n%s", out)
	}
}

// TestExplainAnalyze proves ANALYZE adds per-node wall time.
func TestExplainAnalyze(t *testing.T) {
	db := obsDB(t)
	res, err := db.Query("EXPLAIN ANALYZE SELECT DISTINCT tid FROM s ORDER BY tid DESC")
	if err != nil {
		t.Fatal(err)
	}
	var plan strings.Builder
	for _, r := range res.Rows {
		plan.WriteString(r[0].String())
		plan.WriteByte('\n')
	}
	out := plan.String()
	for _, want := range []string{"scan table=s", "distinct", "sort", "time="} {
		if !strings.Contains(out, want) {
			t.Fatalf("plan missing %q:\n%s", want, out)
		}
	}
}

// TestExplainJoinStrategy proves the plan reports the join strategy the
// executor actually chose.
func TestExplainJoinStrategy(t *testing.T) {
	db := obsDB(t)
	res, err := db.Query(
		"EXPLAIN SELECT a.item FROM s AS a, s AS b WHERE a.tid = b.tid AND b.item = 'jackets'")
	if err != nil {
		t.Fatal(err)
	}
	var plan strings.Builder
	for _, r := range res.Rows {
		plan.WriteString(r[0].String())
		plan.WriteByte('\n')
	}
	if !strings.Contains(plan.String(), "strategy=hash") {
		t.Fatalf("expected hash join in plan:\n%s", plan.String())
	}
}

// TestExplainBatchedAttrs proves the plan carries the batched-pipeline
// telemetry: batch counts on vectorized operators and the planner's
// cardinality estimate on the hash join. The table is sized past the
// planner threshold so statistics are actually consulted.
func TestExplainBatchedAttrs(t *testing.T) {
	db := New()
	var ins strings.Builder
	ins.WriteString("CREATE TABLE big (tid INTEGER, item VARCHAR, price FLOAT);\n")
	for i := 0; i < 3000; i++ {
		fmt.Fprintf(&ins, "INSERT INTO big VALUES (%d, 'item%d', %d.0);\n", i%200, i%7, i%400)
	}
	if err := db.ExecScript(ins.String()); err != nil {
		t.Fatal(err)
	}
	res, err := db.Query(
		"EXPLAIN ANALYZE SELECT a.item FROM big AS a, big AS b WHERE a.tid = b.tid AND b.price > 390.0")
	if err != nil {
		t.Fatal(err)
	}
	var plan strings.Builder
	for _, r := range res.Rows {
		plan.WriteString(r[0].String())
		plan.WriteByte('\n')
	}
	out := plan.String()
	for _, want := range []string{
		"join strategy=hash",
		"est_rows=",
		"build=right",
		"batches=",
		"time=",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("plan missing %q:\n%s", want, out)
		}
	}
	// The grouped query reports batch counts on the aggregate node too.
	res, err = db.Query(
		"EXPLAIN ANALYZE SELECT item, COUNT(*) FROM big WHERE price > 100.0 GROUP BY item")
	if err != nil {
		t.Fatal(err)
	}
	plan.Reset()
	for _, r := range res.Rows {
		plan.WriteString(r[0].String())
		plan.WriteByte('\n')
	}
	var groupLine string
	for _, l := range strings.Split(plan.String(), "\n") {
		if strings.Contains(l, "group ") {
			groupLine = l
		}
	}
	if !strings.Contains(groupLine, "batches=") {
		t.Fatalf("group node missing batches attr:\n%s", plan.String())
	}
}

// TestMetricsCounters proves the engine registry tracks statements,
// cache traffic, and row flow.
func TestMetricsCounters(t *testing.T) {
	db := obsDB(t)
	m := db.Metrics()
	if m == nil {
		t.Fatal("Metrics() = nil")
	}
	base := m.Snapshot()

	const q = "SELECT * FROM s"
	for i := 0; i < 3; i++ {
		if _, err := db.Query(q); err != nil {
			t.Fatal(err)
		}
	}
	if got := m.StmtExecuted.Load() - base["minerule_stmt_executed_total"]; got != 3 {
		t.Errorf("StmtExecuted delta = %d, want 3", got)
	}
	if got := m.StmtCacheHits.Load() - base["minerule_stmtcache_hits_total"]; got != 2 {
		t.Errorf("StmtCacheHits delta = %d, want 2", got)
	}
	if got := m.RowsScanned.Load() - base["minerule_rows_scanned_total"]; got != 18 {
		t.Errorf("RowsScanned delta = %d, want 18 (3 scans of 6 rows)", got)
	}
	if got := m.RowsReturned.Load() - base["minerule_rows_returned_total"]; got != 18 {
		t.Errorf("RowsReturned delta = %d, want 18", got)
	}
	if got := m.ExecBatches.Load() - base["minerule_exec_batches_total"]; got < 3 {
		t.Errorf("ExecBatches delta = %d, want >= 3 (one batch per scan)", got)
	}
	if got := m.ExecBatchRows.Load() - base["minerule_exec_batch_rows_total"]; got < 18 {
		t.Errorf("ExecBatchRows delta = %d, want >= 18", got)
	}
	if m.ExecNanos.Load() == 0 || m.ParseNanos.Load() == 0 {
		t.Errorf("timing counters not advancing: exec=%d parse=%d",
			m.ExecNanos.Load(), m.ParseNanos.Load())
	}

	// View-plan cache traffic.
	if err := db.ExecScript(`CREATE VIEW big AS SELECT * FROM s WHERE price > 100`); err != nil {
		t.Fatal(err)
	}
	// Plans are cached per pooled runtime, and under the race detector
	// sync.Pool drops a random share of Puts (and so the runtime holding
	// the cached plan); enough repeats make two hits certain regardless.
	for i := 0; i < 50; i++ {
		if _, err := db.Query("SELECT COUNT(*) FROM big"); err != nil {
			t.Fatal(err)
		}
	}
	if m.ViewPlanMisses.Load() == 0 {
		t.Error("ViewPlanMisses = 0, want first use to miss")
	}
	if m.ViewPlanHits.Load() < 2 {
		t.Errorf("ViewPlanHits = %d, want >= 2", m.ViewPlanHits.Load())
	}

	// Errors are counted.
	e0 := m.StmtErrors.Load()
	if _, err := db.Query("SELECT nope FROM missing"); err == nil {
		t.Fatal("expected error")
	}
	if m.StmtErrors.Load() != e0+1 {
		t.Errorf("StmtErrors did not advance")
	}
}

// expoValue extracts one metric's value from a Prometheus exposition
// dump, failing the test when the line is missing.
func expoValue(t *testing.T, dump, name string) int64 {
	t.Helper()
	for _, line := range strings.Split(dump, "\n") {
		var v int64
		if n, _ := fmt.Sscanf(line, name+" %d", &v); n == 1 && strings.HasPrefix(line, name+" ") {
			return v
		}
	}
	t.Fatalf("exposition missing %s:\n%s", name, dump)
	return 0
}

// TestTxnMetricsExposition drives the transaction subsystem — an open
// explicit transaction, a contended lock, a durable group commit — and
// asserts the /metrics exposition reports it: txn_active tracks open
// transactions, lock_waits_total counts the contention, and
// group_commit_batch_size is derivable once fsyncs happened.
func TestTxnMetricsExposition(t *testing.T) {
	dir := t.TempDir()
	db := openDurable(t, dir)
	defer db.Close()
	if _, err := db.Exec("CREATE TABLE t (id INTEGER)"); err != nil {
		t.Fatal(err)
	}

	dump := func() string {
		var b strings.Builder
		if err := db.Metrics().WritePrometheus(&b); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}

	conn := db.Conn()
	defer conn.Close()
	if _, err := conn.Exec("BEGIN"); err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Exec("INSERT INTO t VALUES (1)"); err != nil {
		t.Fatal(err)
	}
	d := dump()
	if got := expoValue(t, d, "minerule_txn_active"); got != 1 {
		t.Fatalf("minerule_txn_active = %d with one open transaction, want 1", got)
	}
	if !strings.Contains(d, "# TYPE minerule_txn_active gauge") {
		t.Fatal("minerule_txn_active must be exposed as a gauge")
	}

	// Contention: an autocommit writer on the same table must wait for
	// the explicit transaction's lock.
	// Read the baseline before starting the writer, which may queue at once.
	waitStart := db.Metrics().LockWaits.Load()
	done := make(chan error, 1)
	go func() { _, err := db.Exec("INSERT INTO t VALUES (2)"); done <- err }()
	deadline := time.Now().Add(5 * time.Second)
	for db.Metrics().LockWaits.Load() == waitStart {
		if time.Now().After(deadline) {
			t.Fatal("concurrent writer never queued on the table lock")
		}
		time.Sleep(time.Millisecond)
	}
	if _, err := conn.Exec("COMMIT"); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}

	d = dump()
	if got := expoValue(t, d, "minerule_txn_active"); got != 0 {
		t.Fatalf("minerule_txn_active = %d after commit, want 0", got)
	}
	if got := expoValue(t, d, "minerule_lock_waits_total"); got < 1 {
		t.Fatalf("minerule_lock_waits_total = %d, want >=1", got)
	}
	fsyncs := expoValue(t, d, "minerule_group_commit_fsyncs_total")
	if fsyncs < 1 {
		t.Fatalf("minerule_group_commit_fsyncs_total = %d on a durable store, want >=1", fsyncs)
	}
	commits := expoValue(t, d, "minerule_group_commit_commits_total")
	batch := expoValue(t, d, "minerule_group_commit_batch_size")
	if want := commits / fsyncs; batch != want {
		t.Fatalf("minerule_group_commit_batch_size = %d, want commits/fsyncs = %d", batch, want)
	}
}
