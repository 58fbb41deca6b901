// Command minerule-bench regenerates the experiment tables of
// EXPERIMENTS.md (DESIGN.md §5, experiments E1–E8).
//
//	minerule-bench                  # all experiments
//	minerule-bench -exp E4          # one experiment
//	minerule-bench -json            # write BENCH_baseline.json
//	minerule-bench -json -out FILE  # write the baseline elsewhere
//	minerule-bench -check           # re-measure and gate vs the baseline
//	minerule-bench -check -tol 0.2  # with a custom ns/op tolerance (+20%)
//
// -check gates allocs/op too, at the fixed bound bench.AllocTol (+2%).
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"minerule/internal/bench"
	"minerule/internal/core"
)

func main() {
	exp := flag.String("exp", "all", "experiment to run: E1…E10 or all")
	jsonOut := flag.Bool("json", false, "measure the regression baseline and write it as JSON")
	out := flag.String("out", "BENCH_baseline.json", "baseline path (written by -json, read by -check)")
	trace := flag.Bool("trace", false, "run the paper statement once and print its kernel span tree")
	check := flag.Bool("check", false, "re-measure the baseline workloads and fail on ns/op or allocs/op regressions")
	tol := flag.Float64("tol", 0.15, "relative ns/op growth tolerated by -check (0.15 = +15%)")
	flag.Parse()

	if *check {
		f, err := os.Open(*out)
		if err != nil {
			fatal(err)
		}
		err = bench.CheckBaseline(f, os.Stdout, *tol)
		f.Close()
		if err != nil {
			fatal(err)
		}
		fmt.Println("baseline check passed")
		return
	}

	if *trace {
		if err := traceRun(); err != nil {
			fatal(err)
		}
		return
	}

	if *jsonOut {
		f, err := os.Create(*out)
		if err != nil {
			fatal(err)
		}
		if err := bench.WriteBaseline(f); err != nil {
			f.Close()
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Println("wrote", *out)
		return
	}

	runners := map[string]func() (*bench.Table, error){
		"E1":  bench.E1,
		"E2":  func() (*bench.Table, error) { return bench.E2(nil) },
		"E3":  func() (*bench.Table, error) { return bench.E3(nil) },
		"E4":  func() (*bench.Table, error) { return bench.E4(0, nil) },
		"E5":  bench.E5,
		"E6":  bench.E6,
		"E7":  bench.E7,
		"E8":  func() (*bench.Table, error) { return bench.E8(nil) },
		"E9":  bench.E9,
		"E10": func() (*bench.Table, error) { return bench.E10(nil) },
	}

	if strings.EqualFold(*exp, "all") {
		tables, err := bench.All()
		for _, t := range tables {
			fmt.Println(t)
		}
		if err != nil {
			fatal(err)
		}
		return
	}
	run, ok := runners[strings.ToUpper(*exp)]
	if !ok {
		fatal(fmt.Errorf("unknown experiment %q (want E1…E10 or all)", *exp))
	}
	t, err := run()
	if t != nil {
		fmt.Println(t)
	}
	if err != nil {
		fatal(err)
	}
}

// traceRun evaluates the §2 FilteredOrderedSets statement on the
// Figure 1 table with tracing on and prints the span tree — the
// phase-split view of one kernel run.
func traceRun() error {
	db, err := bench.PaperDB()
	if err != nil {
		return err
	}
	res, err := core.Mine(db, bench.PaperStatement, core.Options{Trace: true})
	if err != nil {
		return err
	}
	fmt.Print(res.Trace.String())
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "minerule-bench:", err)
	os.Exit(1)
}
