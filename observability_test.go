package minerule_test

import (
	"strconv"
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

// metricValue reads one counter from the system's /metrics rendering.
func metricValue(t *testing.T, sys *minerule.System, name string) int64 {
	t.Helper()
	var b strings.Builder
	if err := sys.WriteMetrics(&b); err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(b.String(), "\n") {
		if v, ok := strings.CutPrefix(line, name+" "); ok {
			n, err := strconv.ParseInt(v, 10, 64)
			if err != nil {
				t.Fatalf("%s: %v", line, err)
			}
			return n
		}
	}
	t.Fatalf("metric %s not exported", name)
	return 0
}

// TestFigure1SteadyStateChecksNothing: the kernel re-creates its working
// tables with the same shapes on every run, so from the third Figure-1
// MINE RULE on one database every generated statement's verdict is
// replayed and the semantic checker never runs. (The second run is not
// yet steady: ReplaceOutput's DROPs of the output tables are new texts.)
func TestFigure1SteadyStateChecksNothing(t *testing.T) {
	sys := newSystem(t)
	const stmt = `MINE RULE FilteredOrderedSets AS
		SELECT DISTINCT 1..n item AS BODY, 1..n item AS HEAD, SUPPORT, CONFIDENCE
		WHERE BODY.price >= 100 AND HEAD.price < 100
		FROM Purchase
		WHERE dt BETWEEN DATE '1995-01-01' AND DATE '1995-12-31'
		GROUP BY cust
		CLUSTER BY dt HAVING BODY.dt < HEAD.dt
		EXTRACTING RULES WITH SUPPORT: 0.2, CONFIDENCE: 0.3`
	for run := 1; run <= 5; run++ {
		checks := metricValue(t, sys, "minerule_semck_checks_total")
		reuse := metricValue(t, sys, "minerule_semck_verdict_reuse_total")
		res, err := sys.Mine(stmt, minerule.WithReplaceOutput())
		if err != nil {
			t.Fatal(err)
		}
		if res.RuleCount != 3 {
			t.Fatalf("run %d: %d rules, want Figure 2.b's 3", run, res.RuleCount)
		}
		dc := metricValue(t, sys, "minerule_semck_checks_total") - checks
		dr := metricValue(t, sys, "minerule_semck_verdict_reuse_total") - reuse
		t.Logf("run %d: %d full checks, %d verdict replays", run, dc, dr)
		if run >= 3 {
			if dc != 0 {
				t.Errorf("run %d: %d full semantic checks, want 0", run, dc)
			}
			if dr == 0 {
				t.Errorf("run %d: no verdict replays", run)
			}
		}
	}
}
