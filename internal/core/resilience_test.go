package core

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"testing"
	"time"

	"minerule/internal/fault"
	"minerule/internal/resource"
	"minerule/internal/sql/engine"
)

// simpleStatement exercises the simple core processing (itemset pool).
const simpleStatement = `
MINE RULE SimpleAssoc AS
SELECT DISTINCT 1..n item AS BODY, 1..1 item AS HEAD, SUPPORT, CONFIDENCE
FROM Purchase
GROUP BY tr
EXTRACTING RULES WITH SUPPORT: 0.5, CONFIDENCE: 0.8`

// catalogSnapshot captures every named object (tables, views, sequences)
// for before/after comparison.
func catalogSnapshot(db *engine.Database) []string {
	var out []string
	out = append(out, db.Catalog().TableNames()...)
	for _, v := range db.Catalog().ViewNames() {
		out = append(out, "view:"+v)
	}
	for _, s := range db.Catalog().SequenceNames() {
		out = append(out, "seq:"+s)
	}
	sort.Strings(out)
	return out
}

func diffSnapshots(pre, post []string) (added, removed []string) {
	preSet := make(map[string]bool, len(pre))
	for _, n := range pre {
		preSet[n] = true
	}
	postSet := make(map[string]bool, len(post))
	for _, n := range post {
		postSet[n] = true
		if !preSet[n] {
			added = append(added, n)
		}
	}
	for _, n := range pre {
		if !postSet[n] {
			removed = append(removed, n)
		}
	}
	return added, removed
}

// countStatements runs the statement cleanly with a counting hook and
// returns how many SQL statements the kernel issued.
func countStatements(t *testing.T, stmt string) int {
	t.Helper()
	db := purchaseDB(t)
	in := fault.New() // inert: counts without firing
	db.SetExecHook(in.Hook())
	if _, err := Mine(db, stmt, Options{}); err != nil {
		t.Fatalf("clean run failed: %v", err)
	}
	return in.Seen()
}

// TestUnknownAlgorithmRejected: a name outside the pool fails the run
// before it issues any SQL, for both statement classes, so even under
// ReplaceOutput the existing outputs stay and nothing new is created.
func TestUnknownAlgorithmRejected(t *testing.T) {
	for _, stmt := range []string{simpleStatement, paperStatement} {
		for _, algo := range []Algorithm{"apriory", "sampling"} {
			db := purchaseDB(t)
			if _, err := Mine(db, stmt, Options{}); err != nil {
				t.Fatal(err)
			}
			pre := catalogSnapshot(db)
			in := fault.New() // inert: counts without firing
			db.SetExecHook(in.Hook())
			_, err := Mine(db, stmt, Options{Algorithm: algo, ReplaceOutput: true})
			db.SetExecHook(nil)
			want := fmt.Sprintf("core: unknown algorithm %q (the pool is apriori, bitmap)", algo)
			if err == nil || err.Error() != want {
				t.Fatalf("%s: err = %v, want %s", algo, err, want)
			}
			if n := in.Seen(); n != 0 {
				t.Errorf("%s: %d SQL statements ran before the rejection", algo, n)
			}
			if added, removed := diffSnapshots(pre, catalogSnapshot(db)); len(added)+len(removed) > 0 {
				t.Errorf("%s: catalog changed: added %v, removed %v", algo, added, removed)
			}
		}
	}
}

// TestFaultInjectionRollback is the failure-hygiene sweep: for every SQL
// statement position the kernel reaches, inject a failure there and
// verify the catalog afterwards holds exactly the pre-run objects — or,
// when the run survives (the injected statement was an ignored-error
// cleanup drop), exactly the pre-run objects plus the three outputs.
func TestFaultInjectionRollback(t *testing.T) {
	cases := []struct {
		name, stmt string
		outputs    []string
	}{
		{"simple", simpleStatement, []string{"SimpleAssoc", "SimpleAssoc_Bodies", "SimpleAssoc_Heads"}},
		{"general", paperStatement, []string{"FilteredOrderedSets", "FilteredOrderedSets_Bodies", "FilteredOrderedSets_Heads"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			total := countStatements(t, tc.stmt)
			if total < 5 {
				t.Fatalf("suspiciously few statements: %d", total)
			}
			for n := 1; n <= total; n++ {
				db := purchaseDB(t)
				pre := catalogSnapshot(db)
				in := fault.New()
				in.FailNth(n)
				db.SetExecHook(in.Hook())
				_, err := Mine(db, tc.stmt, Options{})
				db.SetExecHook(nil)
				if !in.Fired() {
					t.Fatalf("fault %d/%d never fired", n, total)
				}
				added, removed := diffSnapshots(pre, catalogSnapshot(db))
				if len(removed) > 0 {
					t.Errorf("fault at statement %d: pre-run objects removed: %v", n, removed)
				}
				if err != nil {
					if !errors.Is(err, fault.ErrInjected) {
						t.Errorf("fault at statement %d: error does not wrap ErrInjected: %v", n, err)
					}
					if len(added) > 0 {
						t.Errorf("fault at statement %d: orphaned objects after failed run: %v", n, added)
					}
				} else {
					// The injected statement was an ignored-error cleanup
					// drop; the run completed and must have stored its
					// outputs. When the fault hit an end-of-run working
					// table drop, that one mr_ object legitimately
					// survives — anything else is an orphan.
					wantSet := make(map[string]bool, len(tc.outputs))
					for _, o := range tc.outputs {
						wantSet[o] = true
					}
					got := 0
					for _, a := range added {
						switch {
						case wantSet[a]:
							got++
						case strings.Contains(strings.ToLower(a), "mr_"):
							// failed ignored-error drop of a working object
						default:
							t.Errorf("fault at statement %d: survived run orphaned %q", n, a)
						}
					}
					if got != len(tc.outputs) {
						t.Errorf("fault at statement %d: survived run stored %d/%d outputs (added %v)", n, got, len(tc.outputs), added)
					}
				}
			}
		})
	}
}

// TestPanicInjectionContained proves the recover boundary: a panic in
// the middle of the SQL pipeline becomes a *resource.InternalError and
// the working tables still roll back.
func TestPanicInjectionContained(t *testing.T) {
	total := countStatements(t, simpleStatement)
	for _, n := range []int{2, total / 2, total} {
		if n < 1 {
			n = 1
		}
		db := purchaseDB(t)
		pre := catalogSnapshot(db)
		in := fault.New()
		in.PanicNth(n)
		db.SetExecHook(in.Hook())
		_, err := Mine(db, simpleStatement, Options{})
		db.SetExecHook(nil)
		if err == nil {
			t.Fatalf("panic at statement %d: expected an error", n)
		}
		var ie *resource.InternalError
		if !errors.As(err, &ie) {
			t.Fatalf("panic at statement %d: error is not an InternalError: %v", n, err)
		}
		if len(ie.Stack) == 0 {
			t.Errorf("panic at statement %d: InternalError carries no stack", n)
		}
		added, removed := diffSnapshots(pre, catalogSnapshot(db))
		if len(added) > 0 || len(removed) > 0 {
			t.Errorf("panic at statement %d: catalog changed: added %v removed %v", n, added, removed)
		}
	}
}

// TestExpiredDeadline: a MineContext whose deadline has already passed
// must fail promptly (well under 100ms) with ErrCanceled and leave the
// catalog untouched.
func TestExpiredDeadline(t *testing.T) {
	for _, stmt := range []string{simpleStatement, paperStatement} {
		db := purchaseDB(t)
		pre := catalogSnapshot(db)
		ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
		defer cancel()
		start := time.Now()
		_, err := MineContext(ctx, db, stmt, Options{})
		elapsed := time.Since(start)
		if err == nil {
			t.Fatal("expected cancellation error")
		}
		if !errors.Is(err, resource.ErrCanceled) {
			t.Fatalf("error does not match ErrCanceled: %v", err)
		}
		if elapsed > 100*time.Millisecond {
			t.Errorf("expired deadline took %v to surface, want <100ms", elapsed)
		}
		added, removed := diffSnapshots(pre, catalogSnapshot(db))
		if len(added) > 0 || len(removed) > 0 {
			t.Errorf("catalog changed after canceled run: added %v removed %v", added, removed)
		}
	}
}

// TestCancellationMidRun cancels after the run starts and checks both
// the error classification and the rollback.
func TestCancellationMidRun(t *testing.T) {
	db := purchaseDB(t)
	pre := catalogSnapshot(db)
	ctx, cancel := context.WithCancel(context.Background())
	// Cancel from inside the pipeline: the hook fires on a mid-run
	// statement, then the executor's next poll sees the done context.
	n := 0
	db.SetExecHook(func(sql string) error {
		n++
		if n == 5 {
			cancel()
		}
		return nil
	})
	_, err := MineContext(ctx, db, simpleStatement, Options{})
	db.SetExecHook(nil)
	cancel()
	if err == nil {
		t.Fatal("expected cancellation error")
	}
	if !errors.Is(err, resource.ErrCanceled) {
		t.Fatalf("error does not match ErrCanceled: %v", err)
	}
	added, removed := diffSnapshots(pre, catalogSnapshot(db))
	if len(added) > 0 || len(removed) > 0 {
		t.Errorf("catalog changed after canceled run: added %v removed %v", added, removed)
	}
}

// TestMaxRuntimeLimit drives the deadline through Options.Limits rather
// than an explicit context.
func TestMaxRuntimeLimit(t *testing.T) {
	db := purchaseDB(t)
	_, err := Mine(db, simpleStatement, Options{Limits: resource.Limits{MaxRuntime: time.Nanosecond}})
	if err == nil {
		t.Fatal("expected deadline error")
	}
	if !errors.Is(err, resource.ErrCanceled) {
		t.Fatalf("error does not match ErrCanceled: %v", err)
	}
}

// TestMaxRowsBudget: a tiny row budget must abort preprocessing with a
// typed budget error and roll back.
func TestMaxRowsBudget(t *testing.T) {
	db := purchaseDB(t)
	pre := catalogSnapshot(db)
	_, err := Mine(db, simpleStatement, Options{Limits: resource.Limits{MaxRows: 2}})
	if err == nil {
		t.Fatal("expected budget error")
	}
	if !errors.Is(err, resource.ErrBudgetExceeded) {
		t.Fatalf("error does not match ErrBudgetExceeded: %v", err)
	}
	var be *resource.BudgetError
	if !errors.As(err, &be) || be.Resource != "rows" {
		t.Fatalf("want a rows BudgetError, got %v", err)
	}
	added, removed := diffSnapshots(pre, catalogSnapshot(db))
	if len(added) > 0 || len(removed) > 0 {
		t.Errorf("catalog changed after budget-failed run: added %v removed %v", added, removed)
	}
	// The per-run limit must not stick to the database.
	if l := db.Limits(); l != (resource.Limits{}) {
		t.Errorf("database limits not restored after run: %+v", l)
	}
}

// TestReuseHonoursContextMaxRows: a reused run skips preprocessing, so
// the core's read of CodedSource is its only data-sized step. A MaxRows
// carried on the context alone (no Options.Limits) must bound that read
// like the SELECT it replaces: a budget of exactly the row count passes,
// one row less fails with a rows BudgetError.
func TestReuseHonoursContextMaxRows(t *testing.T) {
	db := engine.New()
	var b strings.Builder
	b.WriteString("CREATE TABLE Basket (tr INTEGER, item VARCHAR); INSERT INTO Basket VALUES ")
	for g := 1; g <= 100; g++ {
		for i, it := range []string{"a", "b", "c", "d"} {
			if g > 1 || i > 0 {
				b.WriteString(", ")
			}
			fmt.Fprintf(&b, "(%d, '%s')", g, it)
		}
	}
	if err := db.ExecScript(b.String()); err != nil {
		t.Fatal(err)
	}
	const coded = 400 // every (tr, item) pair is frequent, so all reach CodedSource
	stmt := `MINE RULE Reused AS
		SELECT DISTINCT 1..n item AS BODY, 1..1 item AS HEAD, SUPPORT, CONFIDENCE
		FROM Basket GROUP BY tr
		EXTRACTING RULES WITH SUPPORT: 0.5, CONFIDENCE: 0.5`
	if _, err := Mine(db, stmt, Options{KeepEncoded: true}); err != nil {
		t.Fatal(err)
	}
	reuse := func(maxRows int) (*Result, error) {
		ctx := resource.WithLimits(context.Background(), resource.Limits{MaxRows: maxRows})
		return MineContext(ctx, db, stmt, Options{KeepEncoded: true, ReuseEncoded: true, ReplaceOutput: true})
	}
	res, err := reuse(coded)
	if err != nil {
		t.Fatalf("reuse under MaxRows=%d: %v", coded, err)
	}
	if !res.Reused {
		t.Fatal("second run did not reuse the kept encoded tables")
	}
	_, err = reuse(coded - 1)
	if !errors.Is(err, resource.ErrBudgetExceeded) {
		t.Fatalf("reuse under MaxRows=%d: err = %v, want ErrBudgetExceeded", coded-1, err)
	}
	var be *resource.BudgetError
	if !errors.As(err, &be) || be.Resource != "rows" || be.Limit != coded-1 {
		t.Fatalf("want a rows BudgetError with limit %d, got %v", coded-1, err)
	}
}

// TestMaxCandidatesBudget trips the mining-phase candidate ceiling.
func TestMaxCandidatesBudget(t *testing.T) {
	for _, tc := range []struct{ name, stmt string }{
		{"simple", simpleStatement},
		{"general", paperStatement},
	} {
		t.Run(tc.name, func(t *testing.T) {
			db := purchaseDB(t)
			pre := catalogSnapshot(db)
			_, err := Mine(db, tc.stmt, Options{Limits: resource.Limits{MaxCandidates: 1}})
			if err == nil {
				t.Fatal("expected budget error")
			}
			if !errors.Is(err, resource.ErrBudgetExceeded) {
				t.Fatalf("error does not match ErrBudgetExceeded: %v", err)
			}
			var be *resource.BudgetError
			if !errors.As(err, &be) || be.Resource != "candidates" {
				t.Fatalf("want a candidates BudgetError, got %v", err)
			}
			added, removed := diffSnapshots(pre, catalogSnapshot(db))
			if len(added) > 0 || len(removed) > 0 {
				t.Errorf("catalog changed after budget-failed run: added %v removed %v", added, removed)
			}
		})
	}
}

// TestGenerousLimitsSucceed: bounds that are not reached must not change
// the result.
func TestGenerousLimitsSucceed(t *testing.T) {
	db := purchaseDB(t)
	want, err := Mine(db, simpleStatement, Options{})
	if err != nil {
		t.Fatal(err)
	}
	db2 := purchaseDB(t)
	got, err := Mine(db2, simpleStatement, Options{Limits: resource.Limits{
		MaxRows:       1 << 20,
		MaxCandidates: 1 << 20,
		MaxRuntime:    time.Minute,
	}})
	if err != nil {
		t.Fatal(err)
	}
	if got.RuleCount != want.RuleCount {
		t.Fatalf("rule count under generous limits: got %d want %d", got.RuleCount, want.RuleCount)
	}
	g := ruleStrings(t, db2, got)
	w := ruleStrings(t, db, want)
	if fmt.Sprint(g) != fmt.Sprint(w) {
		t.Fatalf("rules differ under generous limits:\n got %v\nwant %v", g, w)
	}
}

// TestPerAlgorithmCandidateBudget checks every pool member honours the
// shared budget: with a one-candidate ceiling each must fail, not hang
// or return silently truncated results as success.
func TestPerAlgorithmCandidateBudget(t *testing.T) {
	for _, algo := range []Algorithm{AlgoApriori, AlgoBitmap} {
		t.Run(string(algo), func(t *testing.T) {
			db := purchaseDB(t)
			_, err := Mine(db, simpleStatement, Options{
				Algorithm: algo,
				Limits:    resource.Limits{MaxCandidates: 1},
			})
			if err == nil {
				t.Fatal("expected budget error")
			}
			if !errors.Is(err, resource.ErrBudgetExceeded) {
				t.Fatalf("error does not match ErrBudgetExceeded: %v", err)
			}
		})
	}
}
