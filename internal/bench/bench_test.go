package bench

import (
	"runtime"
	"strings"
	"testing"

	"minerule/internal/race"
)

// TestE1Exact runs the one experiment that has an exact paper target; it
// doubles as a smoke test of the harness plumbing.
func TestE1Exact(t *testing.T) {
	tab, err := E1()
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 3 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	s := tab.String()
	for _, want := range []string{"brown_boots", "col_shirts", "0.5"} {
		if !strings.Contains(s, want) {
			t.Errorf("rendered table missing %q:\n%s", want, s)
		}
	}
}

// TestE9ReuseSmall runs the reuse experiment at a reduced size so the
// invariant (identical rule counts, reuse engaged) is covered by go
// test, not only by the long-running harness.
func TestE9ReuseSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("harness experiment")
	}
	tab, err := E9()
	if err != nil {
		t.Fatal(err)
	}
	reused := 0
	for _, r := range tab.Rows {
		if r[1] == "reused" {
			reused++
		}
	}
	if reused != 2 {
		t.Fatalf("reused rows = %d:\n%s", reused, tab)
	}
}

func TestTableRendering(t *testing.T) {
	tab := &Table{
		Title:  "t",
		Header: []string{"a", "long-header"},
		Rows:   [][]string{{"xxxxxx", "1"}},
		Notes:  "note",
	}
	s := tab.String()
	if !strings.Contains(s, "== t ==") || !strings.Contains(s, "note") {
		t.Fatalf("render = %s", s)
	}
	lines := strings.Split(strings.TrimSpace(s), "\n")
	// Header and data lines align to the widest cell.
	if len(lines) != 5 {
		t.Fatalf("lines = %d: %s", len(lines), s)
	}
}

// TestE10DurableSmall runs the durability experiment at a reduced size:
// it asserts the WAL-on run reproduces the in-memory rule set and that
// both recovery paths come back with the full dataset.
func TestE10DurableSmall(t *testing.T) {
	tab, err := E10([]int{150})
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 1 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
}

// TestDiffBaseline exercises the -check regression gate's comparison
// logic: within-tolerance drift passes, beyond-tolerance growth of
// ns/op or allocs/op fails, and new/removed workloads are reported
// without failing the gate.
func TestDiffBaseline(t *testing.T) {
	recorded := []BaselineEntry{
		{Name: "steady", NsPerOp: 1000, AllocsPerOp: 1000},
		{Name: "slower", NsPerOp: 1000, AllocsPerOp: 1000},
		{Name: "gone", NsPerOp: 500},
		{Name: "allocs", NsPerOp: 1000, AllocsPerOp: 1000},
	}
	current := []BaselineEntry{
		{Name: "steady", NsPerOp: 1100, AllocsPerOp: 1010}, // +10% ns, +1% allocs: inside both bounds
		{Name: "slower", NsPerOp: 1200, AllocsPerOp: 1000}, // +20% ns/op, regression
		{Name: "fresh", NsPerOp: 42},
		{Name: "allocs", NsPerOp: 900, AllocsPerOp: 1030}, // +3% allocs/op, regression
	}
	var buf strings.Builder
	err := diffBaseline(recorded, current, &buf, 0.15)
	if err == nil {
		t.Fatalf("expected regression error, table:\n%s", buf.String())
	}
	if !strings.Contains(err.Error(), "slower") || !strings.Contains(err.Error(), "allocs: 1000 -> 1030 allocs/op") ||
		strings.Contains(err.Error(), "steady") {
		t.Fatalf("error should name exactly the regressed workloads: %v", err)
	}
	for _, want := range []string{"REGRESSION", "new", "gone"} {
		if !strings.Contains(buf.String(), want) {
			t.Fatalf("table missing %q:\n%s", want, buf.String())
		}
	}
	buf.Reset()
	if err := diffBaseline(recorded[:2], current[:1], &buf, 0.15); err != nil {
		t.Fatalf("within-tolerance run should pass: %v\n%s", err, buf.String())
	}
}

// TestE11ConcurrentMining is the acceptance test for the transaction
// subsystem's headline claim: 4 miners and 2 writers run genuinely
// concurrently (no global statement lock), and on a multicore box the
// aggregate mining throughput is at least 3x the serialized baseline.
// CI runs it under -race at GOMAXPROCS 1 and 4: the single-core run
// checks only correctness (there is no parallelism to win), the
// multicore run enforces the throughput floor (only when the machine
// really has >=4 CPUs — raising GOMAXPROCS past the core count adds
// contention, not parallelism).
func TestE11ConcurrentMining(t *testing.T) {
	groups, runs := 400, 2
	if testing.Short() {
		groups, runs = 150, 1
	}
	st, err := E11Run(groups, runs)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("E11: serial=%v concurrent=%v speedup=%.2fx writerTxns=%d GOMAXPROCS=%d",
		st.Serial, st.Concurrent, st.Speedup, st.WriterCommits, runtime.GOMAXPROCS(0))
	if st.RulesSerial == 0 {
		t.Fatal("serial mining found no rules; workload is degenerate")
	}
	if st.RulesConcurrentOK != st.Miners*st.RunsPerMiner {
		t.Fatalf("only %d of %d concurrent runs produced rules", st.RulesConcurrentOK, st.Miners*st.RunsPerMiner)
	}
	if st.WriterCommits == 0 {
		t.Fatal("writers committed nothing: snapshot reads are blocking writers")
	}
	floor := 3.0
	if race.Enabled {
		// The race detector serializes instrumented memory accesses, so
		// the parallel win shrinks; the run's primary value under -race
		// is the absence of data races, but genuine concurrency must
		// still show.
		floor = 1.5
	}
	if runtime.GOMAXPROCS(0) >= 4 && runtime.NumCPU() >= 4 && st.Speedup < floor {
		t.Fatalf("aggregate mining throughput %.2fx, want >=%.1fx the serialized baseline", st.Speedup, floor)
	}
}
