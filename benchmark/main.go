// Command benchmark is the repository's benchmark of record: it boots
// the real minerule-serve binary as a child process, drives it over
// loopback through database/sql and minerule/driver from this one
// process with at most two connections, checks the answers, and prints
// every metric by name with its unit and sample count.
//
//	bash benchmark/run.sh --workload paper_small --seed 42 --seconds 10 --trace 0
//
// prints, as the last line of standard output, one JSON object with the
// end-to-end metrics (--trace 0) or the per-layer ladder (--trace 1).
// Without --workload it runs all four; --repeat N runs the set N times
// and fails when an end-to-end metric moves between repeats by more than
// its own bound. See README.md in this directory.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"syscall"
	"time"
)

// instancesPerRun is harness.instances for every measured run.
const instancesPerRun = 5

// sample is one reported metric value with the number of observations
// behind it.
type sample struct {
	value float64
	n     int
}

// report is everything one run of one workload measured.
type report struct {
	workload          string
	e2e, layer        map[string]sample
	attempted, failed int
	notes             []string
}

func main() {
	var (
		name    = flag.String("workload", "", "workload to run (default: all four)")
		seed    = flag.Int64("seed", 42, "seed of the generated data")
		seconds = flag.Float64("seconds", 10, "length of the timed section")
		trace   = flag.Int("trace", 0, "1: also run the in-process traced ladder and report the per-layer metrics")
		repeat  = flag.Int("repeat", 1, "run the set this many times and compare the repeats")
	)
	flag.Parse()
	code, err := run(*name, *seed, *seconds, *trace == 1, *repeat)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(2)
	}
	os.Exit(code)
}

// run owns the harness lifetime: whatever happens below — error, signal,
// panic — the children are killed and the scratch directory is removed.
func run(name string, seed int64, seconds float64, traced bool, repeat int) (code int, err error) {
	set := workloads
	if name != "" {
		w := workloadByName(name)
		if w == nil {
			return 0, fmt.Errorf("unknown workload %q", name)
		}
		set = []*workload{w}
	}
	if seconds <= 0 || repeat < 1 {
		return 0, fmt.Errorf("--seconds and --repeat must be positive")
	}
	root, err := repoRoot()
	if err != nil {
		return 0, err
	}
	h := &harness{root: root, cl: newCleanup(), instances: instancesPerRun}
	defer h.cl.run() // runs on return and on panic alike
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		h.cl.run()
		os.Exit(130)
	}()

	if h.bin, err = buildServer(root); err != nil {
		return 0, err
	}
	if h.tmp, err = os.MkdirTemp(filepath.Join(root, ".bench_build", "tmp"), "run-"); err != nil {
		return 0, err
	}
	h.cl.addDir(h.tmp)

	dur := time.Duration(seconds * float64(time.Second))
	var runs [][]*report // [repeat][workload]
	for i := 0; i < repeat; i++ {
		var reps []*report
		for _, w := range set {
			rep, err := h.runWorkload(w, seed, dur, traced)
			if err != nil {
				return 0, fmt.Errorf("%s: %w", w.name, err)
			}
			rep.print(os.Stdout)
			reps = append(reps, rep)
		}
		runs = append(runs, reps)
	}

	failed := 0
	for _, reps := range runs {
		for _, rep := range reps {
			failed += rep.failed
		}
	}
	if len(set) == 1 && repeat == 1 {
		fmt.Println(runs[0][0].resultLine(traced))
	} else {
		summary, unsteady := summarize(os.Stdout, runs)
		fmt.Println(summary)
		if len(unsteady) > 0 {
			return 1, nil
		}
	}
	if failed > 0 {
		return 1, nil
	}
	return 0, nil
}

// runWorkload is one run: h.instances times set-up, a slice of the
// timed section and the output checks; with traced, the in-process
// ladder afterwards.
func (h *harness) runWorkload(w *workload, seed int64, dur time.Duration, traced bool) (*report, error) {
	d := w.data(seed)
	ref, err := reference(w, d)
	if err != nil {
		return nil, err
	}
	sec := &section{delta: promSample{}}
	var setups, rss, restarts []float64
	lost := 0
	for i := 0; i < h.instances; i++ {
		in, err := h.setup(w, d, ref, seed)
		if err != nil {
			return nil, err
		}
		setups = append(setups, in.setup.Seconds())
		err = h.timed(sec, w, in, d, ref, seed+int64(i), dur/time.Duration(h.instances))
		if err == nil {
			var mib float64
			mib, err = in.srv.peakRSSMiB()
			rss = append(rss, mib)
		}
		if err == nil && w.durable {
			var restart time.Duration
			var n int
			restart, n, err = h.crashAndReopen(in, d)
			restarts = append(restarts, float64(restart)/float64(time.Millisecond))
			lost += n
		}
		in.close()
		if err != nil {
			return nil, err
		}
	}
	rep := &report{workload: w.name, e2e: map[string]sample{}, layer: map[string]sample{},
		attempted: sec.t.attempted, failed: sec.t.failed + lost}
	if sec.t.firstFailure != "" {
		rep.notes = append(rep.notes, "first failure: "+sec.t.firstFailure)
	}
	if lost > 0 {
		rep.notes = append(rep.notes, fmt.Sprintf("recovery lost %d acknowledged write transactions", lost))
	}

	t := &sec.t
	mine, write, read, scan := t.mine.sorted(), t.write.sorted(), t.read.sorted(), t.scan.sorted()
	rep.e2e["setup_s"] = sample{median(setups), len(setups)}
	rep.e2e["mine_p50_ms"] = sample{percentile(mine, 50), len(mine)}
	rep.e2e["mine_p95_ms"] = sample{percentile(mine, 95), len(mine)}
	rep.e2e["mine_per_s"] = sample{float64(len(mine)) / sec.mineWall.Seconds(), len(mine)}
	rep.e2e["write_p50_ms"] = sample{percentile(write, 50), len(write)}
	rep.e2e["write_p95_ms"] = sample{percentile(write, 95), len(write)}
	rep.e2e["read_p50_ms"] = sample{percentile(read, 50), len(read)}
	rep.e2e["read_p95_ms"] = sample{percentile(read, 95), len(read)}
	rep.e2e["scan_p50_ms"] = sample{percentile(scan, 50), len(scan)}
	rep.e2e["reads_per_s"] = sample{float64(len(read)) / sec.oltpWall.Seconds(), len(read)}
	rep.e2e["server_peak_rss_mb"] = sample{median(rss), len(rss)}
	for _, l := range []struct {
		op string
		s  []float64
	}{{"mine", mine}, {"write", write}, {"read", read}, {"scan", scan}} {
		p := tailPercentile(len(l.s))
		rep.notes = append(rep.notes, fmt.Sprintf("%s: highest supported percentile p%g = %.4f ms over %d samples", l.op, p, percentile(l.s, p), len(l.s)))
	}

	for k, v := range counterMetrics(sec.delta, sec.counted, t.userBytes) {
		rep.layer[k] = sample{v, sec.counted}
	}
	rep.layer["loadgen.max_lateness_ms"] = sample{float64(sec.maxLate) / float64(time.Millisecond), len(write)}
	if sec.maxLate > time.Second {
		rep.notes = append(rep.notes, fmt.Sprintf("INVALID: the open-loop sender ran %v late: the server does not sustain %d write transactions/s and write latencies measure the backlog", sec.maxLate, writeRate))
	}
	if w.durable {
		rep.layer["engine.recovery_ms"] = sample{median(restarts), len(restarts)}
	}
	if traced {
		if err := h.ladder(w, d, seed, dur/10, rep); err != nil {
			return nil, fmt.Errorf("traced run: %w", err)
		}
	}
	return rep, nil
}

// print writes every metric the run measured, by name, with its unit and
// sample count.
func (r *report) print(out *os.File) {
	fmt.Fprintf(out, "== %s: attempted %d, failed %d (failed_share %.6f)\n", r.workload, r.attempted, r.failed, ratio(float64(r.failed), float64(r.attempted)))
	for _, group := range []struct {
		defs []metricDef
		vals map[string]sample
	}{{endToEnd, r.e2e}, {perLayer, r.layer}} {
		for _, m := range group.defs {
			if s, ok := group.vals[m.name]; ok {
				fmt.Fprintf(out, "%-36s %16.4f %-9s n=%d\n", m.name, s.value, m.unit, s.n)
			}
		}
	}
	for _, n := range r.notes {
		fmt.Fprintln(out, "  "+n)
	}
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the one-line JSON result of a single run: the end-to-end
// metrics untraced, the per-layer metrics traced.
func (r *report) resultLine(traced bool) string {
	defs, vals := endToEnd, r.e2e
	if traced {
		defs, vals = perLayer, r.layer
	}
	metrics := map[string]jsonMetric{}
	for _, m := range defs {
		metrics[m.name] = jsonMetric{vals[m.name].value, m.unit}
	}
	b, _ := json.Marshal(struct {
		Correct   bool                  `json:"correct"`
		Attempted int                   `json:"attempted"`
		Failed    int                   `json:"failed"`
		Metrics   map[string]jsonMetric `json:"metrics"`
	}{r.failed == 0, r.attempted, r.failed, metrics})
	return string(b)
}

// summarize handles a multi-workload or repeated run: it prints min,
// median and max of every end-to-end metric over the repeats, and returns
// the JSON summary (medians; it claims no gain) together with the
// workload/metric pairs whose repeats differ by more than the metric's
// bound.
func summarize(out *os.File, runs [][]*report) (summary string, unsteady []string) {
	type wl struct {
		Attempted int                `json:"attempted"`
		Failed    int                `json:"failed"`
		Metrics   map[string]float64 `json:"metrics"`
	}
	per := map[string]wl{}
	fmt.Fprintf(out, "== spread over %d repeats\n", len(runs))
	for wi, first := range runs[0] {
		s := wl{Metrics: map[string]float64{}}
		for _, reps := range runs {
			s.Attempted += reps[wi].attempted
			s.Failed += reps[wi].failed
		}
		for _, m := range endToEnd {
			var v []float64
			for _, reps := range runs {
				v = append(v, reps[wi].e2e[m.name].value)
			}
			sort.Float64s(v)
			lo, med, hi := v[0], median(v), v[len(v)-1]
			s.Metrics[m.name] = med
			spread := ratio(hi-lo, med)
			verdict := "ok"
			if spread > m.bound {
				verdict = "UNSTEADY"
				unsteady = append(unsteady, first.workload+"/"+m.name)
			}
			fmt.Fprintf(out, "%-18s %-20s min %12.4f  median %12.4f  max %12.4f %-5s spread %5.1f%% (bound %4.1f%%) %s\n",
				first.workload, m.name, lo, med, hi, m.unit, 100*spread, 100*m.bound, verdict)
		}
		per[first.workload] = s
	}
	b, _ := json.Marshal(struct {
		Repeats   int           `json:"repeats"`
		Workloads map[string]wl `json:"workloads"`
		Unsteady  []string      `json:"unsteady"`
		Claim     *string       `json:"claim"`
	}{len(runs), per, unsteady, nil})
	return string(b), unsteady
}
