package minerule_test

import (
	"strings"
	"testing"

	"minerule"
)

// The tests reuse resilience_test.go's simpleMine statement (simple
// class, so the levelwise pool records pass statistics).

func TestPublicTraceAndStats(t *testing.T) {
	sys := newSystem(t)
	res, err := sys.Mine(simpleMine, minerule.WithTrace())
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Trace == nil {
		t.Fatal("Stats.Trace is nil under WithTrace")
	}
	if res.Stats.Candidates <= 0 {
		t.Errorf("Stats.Candidates = %d, want > 0", res.Stats.Candidates)
	}
	if len(res.Stats.Passes) == 0 {
		t.Error("Stats.Passes is empty for a levelwise run")
	}
	rendered := res.Stats.Trace.String()
	for _, want := range []string{"mine", "translate", "preprocess", "core", "postprocess", "pass", "algorithm=bitmap"} {
		if !strings.Contains(rendered, want) {
			t.Errorf("rendered trace missing %q:\n%s", want, rendered)
		}
	}

	// Without WithTrace the stats stay, the tree goes away.
	res2, err := sys.Mine(simpleMine, minerule.WithReplaceOutput())
	if err != nil {
		t.Fatal(err)
	}
	if res2.Stats.Trace != nil {
		t.Error("Stats.Trace must be nil without WithTrace")
	}
	if res2.Stats.Candidates != res.Stats.Candidates {
		t.Errorf("Candidates differ across identical runs: %d vs %d",
			res2.Stats.Candidates, res.Stats.Candidates)
	}
}

func TestPublicWriteMetrics(t *testing.T) {
	sys := newSystem(t)
	if _, err := sys.Mine(simpleMine); err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := sys.WriteMetrics(&b); err != nil {
		t.Fatal(err)
	}
	body := b.String()
	for _, want := range []string{
		"# TYPE minerule_stmt_executed_total counter",
		"minerule_mine_runs_total 1",
		"minerule_stmtcache_hits_total",
		"minerule_viewplan_misses_total",
		"minerule_phase_core_nanoseconds_total",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics body missing %q", want)
		}
	}
}
