package main

import (
	"encoding/json"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"
)

func TestTailPercentile(t *testing.T) {
	// The highest percentile with at least ten samples beyond it.
	for _, c := range []struct {
		n    int
		want float64
	}{{5, 50}, {19, 50}, {99, 50}, {100, 90}, {199, 90}, {200, 95}, {999, 95}, {1000, 99}, {9999, 99}, {10000, 99.9}} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %g, want %g", c.n, got, c.want)
		}
	}
}

func TestPercentileAndMedian(t *testing.T) {
	var s []float64
	for i := 1; i <= 200; i++ {
		s = append(s, float64(i))
	}
	for _, c := range []struct{ p, want float64 }{{50, 100}, {95, 190}, {99, 198}, {100, 200}} {
		if got := percentile(s, c.p); got != c.want {
			t.Errorf("percentile(1..200, %g) = %g, want %g", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 95); got != 0 {
		t.Errorf("percentile of nothing = %g", got)
	}
	if got := median([]float64{9, 1, 5}); got != 5 {
		t.Errorf("median odd = %g", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %g", got)
	}
}

// fakeClock is a clock the test advances: sleeping and working both
// just move it.
type fakeClock struct{ now time.Time }

func (c *fakeClock) Now() time.Time        { return c.now }
func (c *fakeClock) Sleep(d time.Duration) { c.now = c.now.Add(d) }

func TestOpenLoopScheduleAndLateness(t *testing.T) {
	start := time.Unix(1000, 0)
	clk := &fakeClock{now: start}
	ol := openLoop{start: start, interval: 10 * time.Millisecond, now: clk.Now, sleep: clk.Sleep}
	var sentAt, fromDue []time.Duration
	// Op 3 stalls for 35 ms; every other op takes 2 ms.
	sent, maxLate := ol.run(start.Add(100*time.Millisecond), func(i int, due time.Time) {
		if want := start.Add(time.Duration(i) * 10 * time.Millisecond); !due.Equal(want) {
			t.Errorf("op %d due %v, want %v", i, due.Sub(start), want.Sub(start))
		}
		sentAt = append(sentAt, clk.now.Sub(start))
		work := 2 * time.Millisecond
		if i == 3 {
			work = 35 * time.Millisecond
		}
		clk.Sleep(work)
		fromDue = append(fromDue, clk.now.Sub(due))
	})
	if sent != 10 {
		t.Fatalf("sent %d ops, want 10 (one per 10 ms before 100 ms)", sent)
	}
	ms := time.Millisecond
	// 0..3 go out on time; 3 returns at 65, so 4, 5 and 6 go out back to
	// back at 65, 67, 69 and 71 — 25, 17, 9 and 1 ms late — and 8 is on time.
	wantSent := []time.Duration{0, 10 * ms, 20 * ms, 30 * ms, 65 * ms, 67 * ms, 69 * ms, 71 * ms, 80 * ms, 90 * ms}
	if !reflect.DeepEqual(sentAt, wantSent) {
		t.Errorf("send times %v, want %v", sentAt, wantSent)
	}
	if maxLate != 25*ms {
		t.Errorf("max lateness %v, want 25ms", maxLate)
	}
	// Latency counts from the due time: op 4 took 2 ms of work but its
	// user waited 27 ms.
	if fromDue[4] != 27*ms || fromDue[3] != 35*ms || fromDue[8] != 2*ms {
		t.Errorf("latency from due: op3 %v op4 %v op8 %v, want 35ms 27ms 2ms", fromDue[3], fromDue[4], fromDue[8])
	}
}

func TestPromDelta(t *testing.T) {
	const before = `# HELP minerule_stmt_executed_total SQL statements executed
# TYPE minerule_stmt_executed_total counter
minerule_stmt_executed_total 100
minerule_wal_bytes_total 4096
minerule_txn_active 2
`
	const after = `minerule_stmt_executed_total 162
minerule_wal_bytes_total 8192

minerule_txn_active 1
minerule_checkpoints_total 3
`
	b, err := parseProm(strings.NewReader(before))
	if err != nil {
		t.Fatal(err)
	}
	a, err := parseProm(strings.NewReader(after))
	if err != nil {
		t.Fatal(err)
	}
	d := a.delta(b)
	if d.c("stmt_executed") != 62 || d.c("wal_bytes") != 4096 || d["minerule_txn_active"] != -1 {
		t.Errorf("delta = %v", d)
	}
	if d.c("checkpoints") != 3 {
		t.Errorf("a counter absent from the first scrape must count from zero, got %v", d.c("checkpoints"))
	}
	sum := promSample{}
	sum.add(d)
	sum.add(d)
	if sum.c("stmt_executed") != 124 {
		t.Errorf("add: %v", sum)
	}
	m := counterMetrics(d, 2, 1024)
	if m["engine.stmts_per_op"] != 31 || m["wal.bytes_per_op"] != 2048 || m["wal.bytes_per_user_byte"] != 4 {
		t.Errorf("counterMetrics = %v", m)
	}
	if m["pager.hit_share"] != 0 {
		t.Errorf("a share over nothing must be 0, got %v", m["pager.hit_share"])
	}
	if _, err := parseProm(strings.NewReader("minerule_x_total notanumber\n")); err == nil {
		t.Error("malformed value accepted")
	}
	if _, err := parseProm(strings.NewReader("lonely\n")); err == nil {
		t.Error("line without a value accepted")
	}
}

func TestSpanSelfTime(t *testing.T) {
	spans := []span{
		{ID: 1, Parent: 0, Name: "op", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "b", Start: 20, End: 50},  // overlaps a: counted once
		{ID: 4, Parent: 1, Name: "c", Start: 90, End: 120}, // runs past its parent: clipped
		{ID: 5, Parent: 2, Name: "a.child", Start: 12, End: 18},
	}
	self := selfTimes(spans)
	want := map[int]int64{1: 100 - 40 - 10, 2: 20 - 6, 3: 30, 4: 30, 5: 6}
	if !reflect.DeepEqual(self, want) {
		t.Errorf("self times %v, want %v", self, want)
	}

	tr := newTracer()
	op := tr.begin("op", 0, 7)
	q := tr.begin("driver.query", op, 7)
	tr.end(q)
	tr.end(op)
	if len(tr.durations("driver.query")) != 1 || tr.spans[1].Parent != op || tr.spans[1].Op != 7 {
		t.Errorf("tracer recorded %+v", tr.spans)
	}
	if tr.spans[0].End < tr.spans[1].End || tr.spans[1].Start < tr.spans[0].Start {
		t.Errorf("child not nested in parent: %+v", tr.spans)
	}
}

// TestGenerators pins row count and checksum of every workload's data
// for seed 42, so that a change to a generator cannot move a workload
// unnoticed, and shows that another seed gives other data.
func TestGenerators(t *testing.T) {
	golden := map[string]struct {
		rows int
		sum  uint64
	}{
		"paper_small":      {8, 0x6e29465777b38b07},
		"basket_simple":    {40038, 0x12acf74c1e555d38},
		"purchase_general": {5943, 0x80bb8e3bebf58fda},
		"durable_mixed":    {14930, 0xd5e5dd712221110a},
	}
	for _, w := range workloads {
		d := w.data(42)
		g := golden[w.name]
		if len(d.tuples) != g.rows || d.checksum() != g.sum {
			t.Errorf("%s seed 42: %d rows, checksum %#x; golden %d rows, %#x", w.name, len(d.tuples), d.checksum(), g.rows, g.sum)
		}
		if again := w.data(42); again.checksum() != d.checksum() {
			t.Errorf("%s: the same seed gave different data", w.name)
		}
		if other := w.data(43); other.checksum() == d.checksum() {
			t.Errorf("%s: seeds 42 and 43 gave the same data", w.name)
		}
		total := 0
		for _, n := range d.keyRows {
			total += n
		}
		if total != len(d.tuples) || len(d.keys) != len(d.keyRows) {
			t.Errorf("%s: keyRows cover %d of %d rows", w.name, total, len(d.tuples))
		}
	}
}

// TestBenchmarkJSON holds BENCHMARK.json at the repository root to the
// names, units and bounds the program reports.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var doc struct {
		Command   []string
		Paths     []string
		Workloads []struct{ Name, Why string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(doc.Paths, []string{"benchmark"}) {
		t.Errorf("paths = %v", doc.Paths)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("%d workloads listed, %d defined", len(doc.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if doc.Workloads[i].Name != w.name || doc.Workloads[i].Why != w.why {
			t.Errorf("workload %d: listed %q / %q, defined %q / %q", i, doc.Workloads[i].Name, doc.Workloads[i].Why, w.name, w.why)
		}
		if len(w.why) > 200 {
			t.Errorf("%s: why has %d characters, limit 200", w.name, len(w.why))
		}
	}
	same := func(kind string, listed []metric, defs []metricDef, bounded bool) {
		if len(listed) != len(defs) {
			t.Fatalf("%s: %d listed, %d defined", kind, len(listed), len(defs))
		}
		for i, m := range defs {
			l := listed[i]
			if l.Name != m.name || l.Unit != m.unit || l.Better != m.better {
				t.Errorf("%s %d: listed %+v, defined %+v", kind, i, l, m)
			}
			if bounded != (l.Bound != nil) || (bounded && *l.Bound != m.bound) {
				t.Errorf("%s %s: bound listed %v, defined %v", kind, m.name, l.Bound, m.bound)
			}
		}
	}
	same("end_to_end", doc.EndToEnd, endToEnd, true)
	same("per_layer", doc.PerLayer, perLayer, false)
}

// TestEndToEndHarnessImports: only the ladder may call layer packages;
// the end-to-end harness sees the server from outside.
func TestEndToEndHarnessImports(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		if f == "ladder.go" {
			continue
		}
		parsed, err := parser.ParseFile(token.NewFileSet(), f, nil, parser.ImportsOnly)
		if err != nil {
			t.Fatal(err)
		}
		for _, imp := range parsed.Imports {
			if strings.Contains(imp.Path.Value, "minerule/internal") {
				t.Errorf("%s imports %s; only ladder.go may import layer packages", f, imp.Path.Value)
			}
		}
	}
}
