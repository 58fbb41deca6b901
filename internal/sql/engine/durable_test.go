package engine

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"minerule/internal/resource"
)

const durableSeed = `
CREATE TABLE Purchase (tr INTEGER, item VARCHAR(20), price FLOAT);
INSERT INTO Purchase VALUES (1, 'ski_pants', 140.0);
INSERT INTO Purchase VALUES (1, 'hiking_boots', 180.0);
INSERT INTO Purchase VALUES (2, 'col_shirts', 25.0);
CREATE INDEX purchase_item ON Purchase(item);
CREATE SEQUENCE rid;
CREATE VIEW cheap AS SELECT item FROM Purchase WHERE price < 100.0;
`

func openDurable(t *testing.T, dir string) *Database {
	t.Helper()
	db, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	return db
}

func countRows(t *testing.T, db *Database, table string) int64 {
	t.Helper()
	n, err := db.QueryInt("SELECT COUNT(*) FROM " + table)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func TestDurableRoundTrip(t *testing.T) {
	dir := t.TempDir()
	db := openDurable(t, dir)
	if !db.Durable() {
		t.Fatal("Open returned a non-durable database")
	}
	if err := db.ExecScript(durableSeed); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec("UPDATE Purchase SET price = 30.0 WHERE item = 'col_shirts'"); err != nil {
		t.Fatal(err)
	}
	seq, _ := db.Catalog().Sequence("rid")
	first := seq.NextVal()
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db2 := openDurable(t, dir)
	defer db2.Close()
	if got := countRows(t, db2, "Purchase"); got != 3 {
		t.Fatalf("recovered %d rows, want 3", got)
	}
	n, err := db2.QueryInt("SELECT COUNT(*) FROM Purchase WHERE price = 30.0")
	if err != nil || n != 1 {
		t.Fatalf("UPDATE lost in recovery: n=%d err=%v", n, err)
	}
	if _, ok := db2.Catalog().View("cheap"); !ok {
		t.Fatal("view lost in recovery")
	}
	if !db2.Catalog().HasIndex("purchase_item") {
		t.Fatal("index lost in recovery")
	}
	seq2, ok := db2.Catalog().Sequence("rid")
	if !ok {
		t.Fatal("sequence lost in recovery")
	}
	// The recovered sequence must never repeat a handed-out value; gaps
	// (up to the bump cache) are the accepted trade.
	if got := seq2.NextVal(); got <= first {
		t.Fatalf("sequence repeated a value: %d after %d", got, first)
	}
	if db2.Metrics().RecoveryRecords.Load() == 0 {
		t.Fatal("recovery replayed no records")
	}
}

func TestDurableCheckpointAndRetire(t *testing.T) {
	dir := t.TempDir()
	db := openDurable(t, dir)
	if err := db.ExecScript(durableSeed); err != nil {
		t.Fatal(err)
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if db.Metrics().Checkpoints.Load() != 1 {
		t.Fatal("checkpoint counter silent")
	}
	// Post-checkpoint mutations land in the new generation's log.
	if _, err := db.Exec("INSERT INTO Purchase VALUES (3, 'jackets', 300.0)"); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	if _, err := os.Stat(filepath.Join(dir, "gen-1")); !os.IsNotExist(err) {
		t.Fatal("old generation not retired after checkpoint")
	}
	if _, err := os.Stat(filepath.Join(dir, "wal-1.log")); !os.IsNotExist(err) {
		t.Fatal("old WAL not retired after checkpoint")
	}

	db2 := openDurable(t, dir)
	defer db2.Close()
	if got := countRows(t, db2, "Purchase"); got != 4 {
		t.Fatalf("recovered %d rows after checkpoint, want 4", got)
	}
	if !db2.Catalog().HasIndex("purchase_item") {
		t.Fatal("index lost across checkpoint")
	}
}

// TestReplayIdempotent replays the recovered log a second time over the
// live catalog: the applied-LSN guard must skip every record.
func TestReplayIdempotent(t *testing.T) {
	dir := t.TempDir()
	db := openDurable(t, dir)
	if err := db.ExecScript(durableSeed); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db2 := openDurable(t, dir)
	defer db2.Close()
	before := countRows(t, db2, "Purchase")
	verBefore := db2.Catalog().Version()

	db2.cat.SetJournal(nil) // a second replay must not re-log either
	if _, _, err := db2.store.replayLog(); err != nil {
		t.Fatal(err)
	}
	db2.cat.SetJournal(db2.store)

	if got := countRows(t, db2, "Purchase"); got != before {
		t.Fatalf("second replay changed row count: %d -> %d", before, got)
	}
	if db2.Catalog().Version() != verBefore {
		t.Fatal("second replay bumped the catalog version")
	}
}

func TestDurableDropAndRecreate(t *testing.T) {
	dir := t.TempDir()
	db := openDurable(t, dir)
	if err := db.ExecScript(durableSeed); err != nil {
		t.Fatal(err)
	}
	script := `
DROP VIEW cheap;
DROP INDEX purchase_item;
DROP TABLE Purchase;
CREATE TABLE Purchase (tr INTEGER, item VARCHAR(20));
INSERT INTO Purchase VALUES (9, 'brown_boots');
DELETE FROM Purchase WHERE tr = 9;
INSERT INTO Purchase VALUES (10, 'jackets');
`
	if err := db.ExecScript(script); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db2 := openDurable(t, dir)
	defer db2.Close()
	if got := countRows(t, db2, "Purchase"); got != 1 {
		t.Fatalf("recovered %d rows, want 1", got)
	}
	n, err := db2.QueryInt("SELECT COUNT(*) FROM Purchase WHERE item = 'jackets'")
	if err != nil || n != 1 {
		t.Fatalf("recreated table content wrong: n=%d err=%v", n, err)
	}
	if _, ok := db2.Catalog().View("cheap"); ok {
		t.Fatal("dropped view resurrected by recovery")
	}
	if db2.Catalog().HasIndex("purchase_item") {
		t.Fatal("dropped index resurrected by recovery")
	}
}

func TestPageIOBudget(t *testing.T) {
	dir := t.TempDir()
	db := openDurable(t, dir)
	defer db.Close()
	if err := db.ExecScript(durableSeed); err != nil {
		t.Fatal(err)
	}
	db.SetLimits(resource.Limits{MaxPageIO: 1})
	// A page-sized row cannot fit the 1-page budget alongside its frame.
	big := make([]byte, 8000)
	for i := range big {
		big[i] = 'x'
	}
	_, err := db.Exec("INSERT INTO Purchase VALUES (4, '" + string(big) + "', 1.0)")
	if err == nil {
		t.Fatal("page-I/O budget did not trip")
	}
	if !errors.Is(err, resource.ErrBudgetExceeded) {
		t.Fatalf("budget trip is not ErrBudgetExceeded: %v", err)
	}
	var be *resource.BudgetError
	if !errors.As(err, &be) || be.Resource != "pageio" {
		t.Fatalf("budget error does not name pageio: %v", err)
	}
	// The vetoed insert must not have reached memory or the log.
	db.SetLimits(resource.Limits{})
	if got := countRows(t, db, "Purchase"); got != 3 {
		t.Fatalf("vetoed insert applied anyway: %d rows", got)
	}
}

// TestImportCSVContextLimits: a CSV import runs under the context's
// limits, not just the engine default — a session's MaxPageIO bounds
// the import's commit frame, and the vetoed rows never land.
func TestImportCSVContextLimits(t *testing.T) {
	db := openDurable(t, t.TempDir())
	defer db.Close()
	var csv strings.Builder
	for i := 0; i < 500; i++ { // ~10 KiB of rows: a 3-page frame
		fmt.Fprintf(&csv, "%d,item-%d\n", i, i)
	}
	ctx := resource.WithLimits(context.Background(), resource.Limits{MaxPageIO: 1})
	_, err := db.ImportCSVContext(ctx, "T", []string{"gid:int", "item:string"}, strings.NewReader(csv.String()))
	if !errors.Is(err, resource.ErrBudgetExceeded) {
		t.Fatalf("import under MaxPageIO 1 = %v, want ErrBudgetExceeded", err)
	}
	if got := countRows(t, db, "T"); got != 0 {
		t.Fatalf("vetoed import left %d rows", got)
	}
}

func TestDurableMetricsFlow(t *testing.T) {
	dir := t.TempDir()
	db := openDurable(t, dir)
	defer db.Close()
	if err := db.ExecScript(durableSeed); err != nil {
		t.Fatal(err)
	}
	m := db.Metrics()
	if m.WalAppends.Load() == 0 || m.WalBytes.Load() == 0 || m.WalFsyncs.Load() == 0 {
		t.Fatalf("WAL counters silent: appends=%d bytes=%d fsyncs=%d",
			m.WalAppends.Load(), m.WalBytes.Load(), m.WalFsyncs.Load())
	}
	// Group commit: each of the 7 script statements gets at most one
	// fsync, and the read-only ones none.
	if m.WalFsyncs.Load() > m.StmtExecuted.Load() {
		t.Fatalf("more fsyncs (%d) than statements (%d)", m.WalFsyncs.Load(), m.StmtExecuted.Load())
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if m.PageWrites.Load() == 0 {
		t.Fatal("checkpoint wrote no pages")
	}
}
