package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"strings"
	"testing"

	"minerule/internal/core"
	"minerule/internal/mining"
	"minerule/internal/sql/engine"
)

// BaselineEntry is one benchmark's recorded cost. The committed
// BENCH_baseline.json holds a list of these; CI and future perf work
// diff fresh runs against it to catch regressions.
type BaselineEntry struct {
	Name        string  `json:"name"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
}

// Baseline measures the regression-tracked workloads — the E1 paper
// example, the E2 pipeline at two sizes, and the pure-algorithm
// large-itemset pass per pool miner — with testing.Benchmark, and
// returns one entry per workload.
func Baseline() ([]BaselineEntry, error) {
	var out []BaselineEntry
	var failed error
	record := func(name string, fn func(b *testing.B)) {
		if failed != nil {
			return
		}
		r := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			fn(b)
		})
		if r.N == 0 {
			failed = fmt.Errorf("bench: %s did not run", name)
			return
		}
		out = append(out, BaselineEntry{
			Name:        name,
			NsPerOp:     float64(r.NsPerOp()),
			AllocsPerOp: r.AllocsPerOp(),
			BytesPerOp:  r.AllocedBytesPerOp(),
		})
	}
	mustMine := func(b *testing.B, db *engine.Database, stmt string, algo core.Algorithm) {
		if _, err := Mine(db, stmt, algo); err != nil {
			b.Fatal(err)
		}
	}

	db, err := PaperDB()
	if err != nil {
		return nil, err
	}
	record("E1PaperExample", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			mustMine(b, db, PaperStatement, "")
		}
	})

	for _, groups := range []int{500, 2000} {
		db, err := BasketDB(groups, 10, 4, 500, 42)
		if err != nil {
			return nil, err
		}
		stmt := BasketStatement("E2", 0.02, 0.2)
		record(fmt.Sprintf("E2PhaseSplit/groups=%d", groups), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				mustMine(b, db, stmt, core.AlgoApriori)
			}
		})
	}

	in := minerBenchInput(2000, 300, 8, 1)
	for _, m := range []mining.ItemsetMiner{mining.Apriori{}, mining.Bitmap{}} {
		m := m
		record("LargeItemsets/"+m.Name(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				m.LargeItemsets(in, 40, nil)
			}
		})
	}
	return out, failed
}

// minerBenchInput mirrors the mining package's benchmark input
// generator (same distribution and seed handling) so the recorded
// LargeItemsets baselines match the in-package benchmarks.
func minerBenchInput(groups, items, avg int, seed int64) *mining.SimpleInput {
	rng := rand.New(rand.NewSource(seed))
	byGroup := make(map[int64][]mining.Item, groups)
	for g := int64(1); g <= int64(groups); g++ {
		n := 1 + rng.Intn(2*avg)
		tx := make([]mining.Item, n)
		for i := range tx {
			tx[i] = mining.Item(rng.Intn(items))
		}
		byGroup[g] = tx
	}
	return mining.NewSimpleInput(byGroup, groups)
}

// AllocTol is the relative allocs/op growth CheckBaseline tolerates.
// Unlike ns/op, allocation counts do not depend on how fast the runner
// is, so the bound is fixed here instead of following -tol; the slack
// covers what does vary between runs (sync.Pool refills after a GC,
// the parallel miners' scheduling).
const AllocTol = 0.02

// CheckBaseline re-measures the regression-tracked workloads and diffs
// them against the committed baseline read from r, writing a per-entry
// comparison table to w. A workload whose ns/op grows by more than tol
// (relative, e.g. 0.15 for +15%), or whose allocs/op grows by more than
// AllocTol, is a regression; the returned error lists every one.
// Workloads added since the baseline was recorded are
// reported but never fail the check — regenerating the baseline picks
// them up.
func CheckBaseline(r io.Reader, w io.Writer, tol float64) error {
	var recorded []BaselineEntry
	if err := json.NewDecoder(r).Decode(&recorded); err != nil {
		return fmt.Errorf("bench: read baseline: %w", err)
	}
	current, err := Baseline()
	if err != nil {
		return err
	}
	return diffBaseline(recorded, current, w, tol)
}

// diffBaseline is CheckBaseline's pure comparison half, split out so
// tests can exercise the gate without re-running the benchmarks.
func diffBaseline(recorded, current []BaselineEntry, w io.Writer, tol float64) error {
	base := make(map[string]BaselineEntry, len(recorded))
	for _, e := range recorded {
		base[e.Name] = e
	}
	var regressed []string
	fmt.Fprintf(w, "%-36s %14s %14s %8s %10s %10s %8s\n",
		"workload", "baseline ns/op", "current ns/op", "delta", "base alloc", "cur alloc", "delta")
	for _, c := range current {
		b, ok := base[c.Name]
		if !ok {
			fmt.Fprintf(w, "%-36s %14s %14.0f %8s %10s %10d %8s\n", c.Name, "-", c.NsPerOp, "new", "-", c.AllocsPerOp, "new")
			continue
		}
		delta := (c.NsPerOp - b.NsPerOp) / b.NsPerOp
		adelta := 0.0
		if b.AllocsPerOp > 0 {
			adelta = float64(c.AllocsPerOp-b.AllocsPerOp) / float64(b.AllocsPerOp)
		} else if c.AllocsPerOp > 0 {
			adelta = 1
		}
		mark := ""
		if delta > tol {
			mark = "  REGRESSION"
			regressed = append(regressed, fmt.Sprintf("%s: %.0f -> %.0f ns/op (%+.1f%%)",
				c.Name, b.NsPerOp, c.NsPerOp, 100*delta))
		}
		if adelta > AllocTol {
			mark = "  REGRESSION"
			regressed = append(regressed, fmt.Sprintf("%s: %d -> %d allocs/op (%+.1f%%)",
				c.Name, b.AllocsPerOp, c.AllocsPerOp, 100*adelta))
		}
		fmt.Fprintf(w, "%-36s %14.0f %14.0f %+7.1f%% %10d %10d %+7.1f%%%s\n",
			c.Name, b.NsPerOp, c.NsPerOp, 100*delta, b.AllocsPerOp, c.AllocsPerOp, 100*adelta, mark)
		delete(base, c.Name)
	}
	for name := range base {
		fmt.Fprintf(w, "%-36s %14.0f %14s %8s %10d %10s %8s\n", name, base[name].NsPerOp, "-", "gone", base[name].AllocsPerOp, "-", "gone")
	}
	if len(regressed) > 0 {
		return fmt.Errorf("bench: %d regression(s) beyond %.0f%% ns/op or %.0f%% allocs/op:\n  %s",
			len(regressed), 100*tol, 100*AllocTol, strings.Join(regressed, "\n  "))
	}
	return nil
}

// WriteBaseline runs Baseline and writes the entries as indented JSON.
func WriteBaseline(w io.Writer) error {
	entries, err := Baseline()
	if err != nil {
		return err
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(entries)
}
