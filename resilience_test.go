package minerule_test

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"minerule"
	"minerule/internal/resource"
	"minerule/internal/sql/value"
)

const simpleMine = `
MINE RULE ConcAssoc AS
SELECT DISTINCT 1..n item AS BODY, 1..1 item AS HEAD, SUPPORT, CONFIDENCE
FROM Purchase
GROUP BY tr
EXTRACTING RULES WITH SUPPORT: 0.5, CONFIDENCE: 0.8`

// TestConcurrentQueryAndMine runs independent Systems in parallel —
// queries against one, mining against the other — under the race
// detector (the CI satellite runs go test -race). Each System is
// single-user, but separate Systems must never share mutable state.
func TestConcurrentQueryAndMine(t *testing.T) {
	querySystems := make([]*minerule.System, 4)
	for i := range querySystems {
		querySystems[i] = newSystem(t)
	}
	sysM := newSystem(t)
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for w := 0; w < 4; w++ {
		wg.Add(2)
		go func(sysQ *minerule.System) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				if _, err := sysQ.QueryInt("SELECT COUNT(*) FROM Purchase"); err != nil {
					errs <- err
					return
				}
			}
		}(querySystems[w])
		go func(w int) {
			defer wg.Done()
			sys, _ := minerule.Open()
			if err := sys.ExecScript(`
				CREATE TABLE Purchase (tr INTEGER, cust VARCHAR, item VARCHAR, dt DATE, price FLOAT, qty INTEGER);
				INSERT INTO Purchase VALUES
					(1, 'c1', 'a', DATE '1995-12-17', 10, 1),
					(1, 'c1', 'b', DATE '1995-12-17', 10, 1),
					(2, 'c2', 'a', DATE '1995-12-18', 10, 1),
					(2, 'c2', 'b', DATE '1995-12-18', 10, 1);
			`); err != nil {
				errs <- err
				return
			}
			if _, err := sys.Mine(simpleMine); err != nil {
				errs <- err
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		if _, err := sysM.Mine(simpleMine, minerule.WithAlgorithm(minerule.Apriori)); err != nil {
			errs <- err
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestNoPanicFromSQLTypeMismatch drives value accessor mismatches
// through the executor: scalar functions applied to the wrong type must
// come back as errors, never as panics escaping Exec.
func TestNoPanicFromSQLTypeMismatch(t *testing.T) {
	sys := newSystem(t)
	for _, q := range []string{
		"SELECT UPPER(tr) FROM Purchase",
		"SELECT LOWER(price) FROM Purchase",
		"SELECT LENGTH(dt) FROM Purchase",
		"SELECT TRIM(qty) FROM Purchase",
		"SELECT SUBSTR(tr, 1, 2) FROM Purchase",
		"SELECT ABS(item) FROM Purchase",
		"SELECT MOD(item, 2) FROM Purchase",
		"SELECT item FROM Purchase WHERE item LIKE 5",
	} {
		if _, err := sys.Query(q); err == nil {
			t.Errorf("%s: expected a type error", q)
		}
	}
}

// TestAccessorPanicIsTyped pins the contract the executor's recover
// boundary relies on: a mismatched accessor panics with *value.TypeError.
func TestAccessorPanicIsTyped(t *testing.T) {
	defer func() {
		p := recover()
		if p == nil {
			t.Fatal("expected a panic")
		}
		te, ok := p.(*value.TypeError)
		if !ok {
			t.Fatalf("panic value is %T, want *value.TypeError", p)
		}
		if te.Op != "Int" {
			t.Errorf("TypeError.Op = %q, want Int", te.Op)
		}
	}()
	_ = value.NewString("x").Int()
}

// TestPublicCancellation exercises the exported context API and error
// taxonomy end to end.
func TestPublicCancellation(t *testing.T) {
	sys := newSystem(t)
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	start := time.Now()
	if _, err := sys.MineContext(ctx, simpleMine); !errors.Is(err, minerule.ErrCanceled) {
		t.Fatalf("MineContext error = %v, want ErrCanceled", err)
	}
	if elapsed := time.Since(start); elapsed > 100*time.Millisecond {
		t.Errorf("expired deadline surfaced after %v, want <100ms", elapsed)
	}
	if err := sys.ExecContext(ctx, "SELECT * FROM Purchase"); !errors.Is(err, minerule.ErrCanceled) {
		t.Fatalf("ExecContext error = %v, want ErrCanceled", err)
	}
	if _, err := sys.QueryContext(ctx, "SELECT * FROM Purchase"); !errors.Is(err, minerule.ErrCanceled) {
		t.Fatalf("QueryContext error = %v, want ErrCanceled", err)
	}
	// The canceled attempts must not have left partial outputs behind.
	if _, err := sys.Query("SELECT * FROM ConcAssoc"); err == nil {
		t.Error("output table exists after canceled mine")
	}
	// And the system still works afterwards.
	if _, err := sys.Mine(simpleMine); err != nil {
		t.Fatalf("mine after cancellation: %v", err)
	}
}

// TestPublicLimits exercises WithLimits and the budget taxonomy through
// the public API.
func TestPublicLimits(t *testing.T) {
	sys := newSystem(t)
	_, err := sys.Mine(simpleMine, minerule.WithLimits(minerule.Limits{MaxCandidates: 1}))
	if !errors.Is(err, minerule.ErrBudgetExceeded) {
		t.Fatalf("Mine error = %v, want ErrBudgetExceeded", err)
	}
	_, err = sys.Mine(simpleMine, minerule.WithLimits(minerule.Limits{MaxRows: 1}))
	if !errors.Is(err, minerule.ErrBudgetExceeded) {
		t.Fatalf("Mine error = %v, want ErrBudgetExceeded", err)
	}
	// System-wide statement limits, removable again.
	sys.SetLimits(minerule.Limits{MaxRows: 2})
	if _, err := sys.Query("SELECT * FROM Purchase"); !errors.Is(err, minerule.ErrBudgetExceeded) {
		t.Fatalf("Query under MaxRows=2 = %v, want ErrBudgetExceeded", err)
	}
	sys.SetLimits(minerule.Limits{})
	if _, err := sys.Query("SELECT * FROM Purchase"); err != nil {
		t.Fatalf("Query after limits removed: %v", err)
	}
	// After the failed budget runs the statement still works.
	if res, err := sys.Mine(simpleMine); err != nil || res.RuleCount == 0 {
		t.Fatalf("mine after budget failures: res=%v err=%v", res, err)
	}
}

// TestMinePageIOPerCommitFrame pins how MaxPageIO bounds a durable mine.
// The cap applies per commit frame, and the postprocessor writes all of
// a mine's output rows in one frame. Here every preprocessing frame
// takes at most 4 pages and the 1016-rule output frame about 15. Under
// a cap of 8 the mine must fail in the postprocessor with a typed budget
// error and leave no output behind, before or after a reopen. Under a
// cap of 32 the mine succeeds and its rules survive a reopen.
func TestMinePageIOPerCommitFrame(t *testing.T) {
	dir := t.TempDir()
	sys, err := minerule.Open(minerule.WithStorage(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer func() { sys.Close() }()
	var script strings.Builder
	script.WriteString("CREATE TABLE Basket (tr INTEGER, item VARCHAR);\nINSERT INTO Basket VALUES ")
	for tr := 1; tr <= 12; tr++ {
		for _, it := range "abcdefgh" {
			if tr > 1 || it != 'a' {
				script.WriteString(", ")
			}
			fmt.Fprintf(&script, "(%d, '%c')", tr, it)
		}
	}
	if err := sys.ExecScript(script.String()); err != nil {
		t.Fatal(err)
	}
	// Every group holds all 8 items, so every itemset is frequent with
	// confidence 1: sum over k=2..8 of k*C(8,k) = 1016 rules.
	const mine = `MINE RULE Wide AS
		SELECT DISTINCT 1..n item AS BODY, 1..1 item AS HEAD, SUPPORT, CONFIDENCE
		FROM Basket GROUP BY tr
		EXTRACTING RULES WITH SUPPORT: 0.5, CONFIDENCE: 0.8`
	const wantRules = 1016

	_, err = sys.Mine(mine, minerule.WithLimits(minerule.Limits{MaxPageIO: 8}))
	var be *resource.BudgetError
	if !errors.As(err, &be) || be.Resource != "pageio" {
		t.Fatalf("mine under MaxPageIO 8 = %v, want a pageio budget error", err)
	}
	if !strings.Contains(err.Error(), "postproc") {
		t.Fatalf("mine under MaxPageIO 8 failed outside the postprocessor: %v", err)
	}
	reopen := func() {
		t.Helper()
		if err := sys.Close(); err != nil {
			t.Fatal(err)
		}
		if sys, err = minerule.Open(minerule.WithStorage(dir)); err != nil {
			t.Fatal(err)
		}
	}
	for pass := 0; pass < 2; pass++ {
		if _, err := sys.Query("SELECT * FROM Wide"); err == nil {
			t.Fatalf("pass %d: output table exists after the vetoed mine", pass)
		}
		reopen()
	}

	res, err := sys.Mine(mine, minerule.WithLimits(minerule.Limits{MaxPageIO: 32}))
	if err != nil {
		t.Fatalf("mine under MaxPageIO 32: %v", err)
	}
	if res.RuleCount != wantRules {
		t.Fatalf("RuleCount = %d, want %d", res.RuleCount, wantRules)
	}
	reopen()
	if n, err := sys.QueryInt("SELECT COUNT(*) FROM Wide"); err != nil || n != wantRules {
		t.Fatalf("recovered rules = %d, err %v; want %d", n, err, wantRules)
	}
}

// TestInternalErrorString sanity-checks the re-exported error type.
func TestInternalErrorString(t *testing.T) {
	ie := &minerule.InternalError{Op: "core", Recovered: "boom"}
	if !strings.Contains(ie.Error(), "internal error") || !strings.Contains(ie.Error(), "boom") {
		t.Errorf("InternalError.Error() = %q", ie.Error())
	}
}

// TestStorageStatsFaultCounters drives the torn-tail recovery path
// through the public API: a garbage tail on the log must be truncated,
// counted in StorageStats, and exported on /metrics — with the store
// healthy, not degraded.
func TestStorageStatsFaultCounters(t *testing.T) {
	dir := t.TempDir()
	sys, err := minerule.Open(minerule.WithStorage(dir))
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.ExecScript(`
		CREATE TABLE t (id INTEGER);
		INSERT INTO t VALUES (1);
	`); err != nil {
		t.Fatal(err)
	}
	if err := sys.Close(); err != nil {
		t.Fatal(err)
	}
	appendGarbage(t, dir, "wal-1.log", []byte{7, 0, 0, 0, 0xba, 0xad})

	sys, err = minerule.Open(minerule.WithStorage(dir))
	if err != nil {
		t.Fatalf("reopen over torn tail: %v", err)
	}
	defer sys.Close()
	st := sys.StorageStats()
	if st.TornTailTruncations != 1 {
		t.Fatalf("TornTailTruncations = %d, want 1", st.TornTailTruncations)
	}
	if st.Degraded || st.DegradedCause != "" {
		t.Fatalf("torn tail wrongly degraded the store: %+v", st)
	}
	if err := sys.DegradedErr(); err != nil {
		t.Fatalf("DegradedErr = %v, want nil", err)
	}
	if n, err := sys.QueryInt("SELECT COUNT(*) FROM t"); err != nil || n != 1 {
		t.Fatalf("recovered rows = %d, err %v; want 1", n, err)
	}
	var buf strings.Builder
	if err := sys.WriteMetrics(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "minerule_wal_torn_tail_truncations_total 1") {
		t.Fatalf("/metrics missing torn-tail counter:\n%s", buf.String())
	}
}

// appendGarbage tacks raw bytes onto a file in the database directory,
// simulating a torn tail left by a crash.
func appendGarbage(t *testing.T, dir, name string, b []byte) {
	t.Helper()
	f, err := os.OpenFile(filepath.Join(dir, name), os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(b); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}
