package core

import (
	"strings"
	"testing"
)

// The tests reuse resilience_test.go's simpleStatement: the simple
// class, so the levelwise pool runs and records pass statistics.

func TestTraceSpansCoverAllPhases(t *testing.T) {
	db := purchaseDB(t)
	res, err := Mine(db, simpleStatement, Options{Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Trace == nil {
		t.Fatal("Options.Trace set but Result.Trace is nil")
	}
	for _, phase := range []string{"translate", "preprocess", "core", "postprocess"} {
		if res.Trace.Child(phase) == nil {
			t.Errorf("trace is missing the %q phase span", phase)
		}
	}
	pre := res.Trace.Child("preprocess")
	if pre.Int("totg") != int64(res.TotalGroups) {
		t.Errorf("preprocess totg = %d, want %d", pre.Int("totg"), res.TotalGroups)
	}
	// Q1 is a child step only under a group condition; otherwise it
	// folds into Q2.
	if (pre.Child("Q1") != nil) != res.Class.G {
		t.Errorf("preprocess span has Q1 child = %v, want %v", pre.Child("Q1") != nil, res.Class.G)
	}
	if pre.Child("Q2") == nil {
		t.Error("preprocess span has no Q2 child step")
	}
	cs := res.Trace.Child("core")
	if cs.Int("rules") != int64(res.RuleCount) {
		t.Errorf("core rules = %d, want %d", cs.Int("rules"), res.RuleCount)
	}
	if cs.Int("candidates") <= 0 {
		t.Errorf("core candidates = %d, want > 0", cs.Int("candidates"))
	}
	// The levelwise pool must have recorded at least pass 1 with its
	// candidate and large counts.
	var passes int
	for _, c := range cs.Children {
		if c.Name != "pass" {
			continue
		}
		passes++
		if c.Int("level") < 1 || c.Int("candidates") < c.Int("large") {
			t.Errorf("implausible pass: level=%d candidates=%d large=%d",
				c.Int("level"), c.Int("candidates"), c.Int("large"))
		}
	}
	if passes == 0 {
		t.Error("core span has no levelwise pass children")
	}

	// The rendered tree mentions every phase with durations.
	rendered := res.Trace.String()
	for _, want := range []string{"mine", "translate", "preprocess", "core", "postprocess", "rules="} {
		if !strings.Contains(rendered, want) {
			t.Errorf("rendered trace missing %q:\n%s", want, rendered)
		}
	}
}

func TestTraceOffByDefault(t *testing.T) {
	db := purchaseDB(t)
	res, err := Mine(db, simpleStatement, Options{ReplaceOutput: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Trace != nil {
		t.Error("Result.Trace must be nil when Options.Trace is unset")
	}
}

func TestMineMetrics(t *testing.T) {
	db := purchaseDB(t)
	before := db.Metrics().Snapshot()
	if _, err := Mine(db, simpleStatement, Options{}); err != nil {
		t.Fatal(err)
	}
	after := db.Metrics().Snapshot()
	for _, m := range []string{
		"minerule_mine_runs_total",
		"minerule_mine_rules_total",
		"minerule_mine_candidates_total",
		"minerule_phase_translate_nanoseconds_total",
		"minerule_phase_preprocess_nanoseconds_total",
		"minerule_phase_core_nanoseconds_total",
		"minerule_phase_postprocess_nanoseconds_total",
	} {
		if after[m] <= before[m] {
			t.Errorf("%s did not advance (%d -> %d)", m, before[m], after[m])
		}
	}
	if after["minerule_mine_errors_total"] != before["minerule_mine_errors_total"] {
		t.Error("mine_errors advanced on a successful run")
	}
	// A failing run counts an error, not rules.
	if _, err := Mine(db, simpleStatement, Options{}); err == nil {
		t.Fatal("re-running without ReplaceOutput must fail on the existing output table")
	}
	final := db.Metrics().Snapshot()
	if final["minerule_mine_errors_total"] != after["minerule_mine_errors_total"]+1 {
		t.Error("mine_errors did not count the failed run")
	}
}
