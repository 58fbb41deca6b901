package bench

import (
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	"minerule/internal/core"
	"minerule/internal/gen"
	"minerule/internal/sql/engine"
)

// E1 reproduces the paper's worked example (Figures 1 and 2.b) and
// verifies the output byte for byte.
func E1() (*Table, error) {
	db, err := PaperDB()
	if err != nil {
		return nil, err
	}
	res, err := Mine(db, PaperStatement, "")
	if err != nil {
		return nil, err
	}
	rules, err := core.ReadRules(db, res)
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title:  "E1: paper worked example (Figure 2.b)",
		Header: []string{"BODY", "HEAD", "SUPPORT", "CONFIDENCE"},
		Notes:  "expected: {brown_boots}=>{col_shirts} 0.5/1, {jackets}=>{col_shirts} 0.5/0.5, {brown_boots,jackets}=>{col_shirts} 0.5/1",
	}
	var lines []string
	for _, r := range rules {
		var body, head []string
		for _, e := range r.Body {
			body = append(body, strings.Join(e, "/"))
		}
		for _, e := range r.Head {
			head = append(head, strings.Join(e, "/"))
		}
		sort.Strings(body)
		sort.Strings(head)
		lines = append(lines, fmt.Sprintf("{%s}\x00{%s}\x00%g\x00%g",
			strings.Join(body, ","), strings.Join(head, ","), r.Support, r.Confidence))
	}
	sort.Strings(lines)
	for _, l := range lines {
		t.Rows = append(t.Rows, strings.Split(l, "\x00"))
	}
	want := [][]string{
		{"{brown_boots,jackets}", "{col_shirts}", "0.5", "1"},
		{"{brown_boots}", "{col_shirts}", "0.5", "1"},
		{"{jackets}", "{col_shirts}", "0.5", "0.5"},
	}
	if fmt.Sprint(t.Rows) != fmt.Sprint(want) {
		return t, fmt.Errorf("E1: Figure 2.b mismatch: got %v", t.Rows)
	}
	return t, nil
}

// E2 measures the kernel phase split (translator / preprocessor / core /
// postprocessor) as the group count grows — the process flow of Figure
// 3.a quantified.
func E2(sizes []int) (*Table, error) {
	if len(sizes) == 0 {
		sizes = []int{500, 2000, 8000}
	}
	t := &Table{
		Title:  "E2: kernel phase split vs group count (simple statement, support 0.01)",
		Header: []string{"groups", "rows", "translate ms", "preprocess ms", "core ms", "postprocess ms", "preproc %", "rules"},
		Notes:  "expected shape: preprocessing (SQL side) dominates at high support; core share grows as data grows",
	}
	for _, d := range sizes {
		db, err := BasketDB(d, 10, 4, 500, 42)
		if err != nil {
			return nil, err
		}
		rows, err := db.QueryInt("SELECT COUNT(*) FROM Baskets")
		if err != nil {
			return nil, err
		}
		res, err := Mine(db, BasketStatement("E2", 0.01, 0.2), core.AlgoApriori)
		if err != nil {
			return nil, err
		}
		tm := res.Timings
		pct := 100 * float64(tm.Preprocess) / float64(tm.Total())
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(d), fmt.Sprint(rows),
			ms(tm.Translate), ms(tm.Preprocess), ms(tm.Core), ms(tm.Postprocess),
			fmt.Sprintf("%.0f%%", pct), fmt.Sprint(res.RuleCount),
		})
	}
	return t, nil
}

// E3 compares the simple core against the general core forced onto the
// same statement (an always-true mining condition flips M without
// changing the rule set) — the price of generality (Figure 3.b's two
// classes).
func E3(customers []int) (*Table, error) {
	if len(customers) == 0 {
		customers = []int{200, 600}
	}
	t := &Table{
		Title:  "E3: simple core vs forced-general core, same semantics",
		Header: []string{"customers", "simple core ms", "general core ms", "general/simple", "simple rules", "general rules"},
		Notes:  "expected shape: identical rule sets; the general core strictly slower (context tracking)",
	}
	simpleStmt := `MINE RULE E3S AS
		SELECT DISTINCT 1..n item AS BODY, 1..1 item AS HEAD, SUPPORT, CONFIDENCE
		FROM Purchase GROUP BY cust
		EXTRACTING RULES WITH SUPPORT: 0.05, CONFIDENCE: 0.3`
	generalStmt := `MINE RULE E3G AS
		SELECT DISTINCT 1..n item AS BODY, 1..1 item AS HEAD, SUPPORT, CONFIDENCE
		WHERE BODY.price >= 0 AND HEAD.price >= 0
		FROM Purchase GROUP BY cust
		EXTRACTING RULES WITH SUPPORT: 0.05, CONFIDENCE: 0.3`
	for _, c := range customers {
		db, err := PurchaseDB(c, 3, 5, 80, 7)
		if err != nil {
			return nil, err
		}
		rs, err := Mine(db, simpleStmt, core.AlgoApriori)
		if err != nil {
			return nil, err
		}
		rg, err := Mine(db, generalStmt, "")
		if err != nil {
			return nil, err
		}
		if rs.RuleCount != rg.RuleCount {
			return nil, fmt.Errorf("E3: rule sets diverge: simple %d vs general %d", rs.RuleCount, rg.RuleCount)
		}
		ratio := float64(rg.Timings.Core) / float64(rs.Timings.Core)
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(c), ms(rs.Timings.Core), ms(rg.Timings.Core),
			fmt.Sprintf("%.1fx", ratio),
			fmt.Sprint(rs.RuleCount), fmt.Sprint(rg.RuleCount),
		})
	}
	return t, nil
}

// E4 races the core-operator pool across a support sweep — the paper's
// algorithm-interoperability pool compared on one workload, mirroring
// the evaluations of [3,12].
func E4(groups int, supports []float64) (*Table, error) {
	if groups == 0 {
		groups = 4000
	}
	if len(supports) == 0 {
		supports = []float64{0.02, 0.01, 0.005, 0.0025}
	}
	db, err := BasketDB(groups, 10, 4, 600, 42)
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title:  fmt.Sprintf("E4: algorithm pool, T10.I4 D=%d, core time (ms) per support", groups),
		Header: append([]string{"algorithm"}, supportsHeader(supports)...),
		Notes:  "expected shape: both members agree on rule counts; in memory the vertical bitmap (the default) beats the gid-list apriori at every support",
	}
	counts := make([]string, len(supports))
	algos := []core.Algorithm{core.AlgoApriori, core.AlgoBitmap}
	firstRules := make([]int, len(supports))
	for ai, algo := range algos {
		row := []string{string(algo)}
		for si, s := range supports {
			res, err := Mine(db, BasketStatement("E4", s, 0.2), algo)
			if err != nil {
				return nil, err
			}
			if ai == 0 {
				firstRules[si] = res.RuleCount
				counts[si] = fmt.Sprint(res.RuleCount)
			} else if res.RuleCount != firstRules[si] {
				return nil, fmt.Errorf("E4: %s found %d rules at s=%g, apriori found %d",
					algo, res.RuleCount, s, firstRules[si])
			}
			row = append(row, ms(res.Timings.Core))
		}
		t.Rows = append(t.Rows, row)
	}
	t.Rows = append(t.Rows, append([]string{"(rules)"}, counts...))
	return t, nil
}

func supportsHeader(supports []float64) []string {
	out := make([]string, len(supports))
	for i, s := range supports {
		out[i] = fmt.Sprintf("s=%g", s)
	}
	return out
}

// E5 breaks the simple-rule preprocessing (Figure 4.a) down by query,
// toggling W (join/selection source) and G (group HAVING).
func E5() (*Table, error) {
	t := &Table{
		Title:  "E5: simple-rule preprocessing breakdown (Figure 4.a), ms per query",
		Header: []string{"variant", "Q0", "Q1", "Q2", "Q3", "Q4", "total"},
		Notes:  "expected shape: Q0 materialization only paid when W; Q3/Q4 (encoding joins) dominate",
	}
	variants := []struct {
		name string
		stmt string
	}{
		{"plain", `MINE RULE E5 AS SELECT DISTINCT 1..n item AS BODY, 1..1 item AS HEAD
			FROM Baskets GROUP BY gid
			EXTRACTING RULES WITH SUPPORT: 0.01, CONFIDENCE: 0.2`},
		{"W (source cond)", `MINE RULE E5 AS SELECT DISTINCT 1..n item AS BODY, 1..1 item AS HEAD
			FROM Baskets WHERE gid > 0
			GROUP BY gid
			EXTRACTING RULES WITH SUPPORT: 0.01, CONFIDENCE: 0.2`},
		{"G (group HAVING)", `MINE RULE E5 AS SELECT DISTINCT 1..n item AS BODY, 1..1 item AS HEAD
			FROM Baskets GROUP BY gid HAVING COUNT(*) >= 5
			EXTRACTING RULES WITH SUPPORT: 0.01, CONFIDENCE: 0.2`},
	}
	for _, v := range variants {
		db, err := BasketDB(3000, 10, 4, 500, 42)
		if err != nil {
			return nil, err
		}
		res, err := Mine(db, v.stmt, core.AlgoApriori)
		if err != nil {
			return nil, err
		}
		steps := map[string]string{"Q0": "-", "Q1": "-", "Q2": "-", "Q3": "-", "Q4": "-"}
		for _, s := range res.PreprocSteps {
			if _, ok := steps[s.Name]; ok {
				steps[s.Name] = ms(s.Duration)
			}
		}
		t.Rows = append(t.Rows, []string{
			v.name, steps["Q0"], steps["Q1"], steps["Q2"], steps["Q3"], steps["Q4"],
			ms(res.Timings.Preprocess),
		})
	}
	return t, nil
}

// E6 breaks the general-rule preprocessing (Figure 4.b) down by query,
// toggling C, K, M and H.
func E6() (*Table, error) {
	t := &Table{
		Title:  "E6: general-rule preprocessing breakdown (Figure 4.b), ms per query",
		Header: []string{"variant", "class", "Q5", "Q6", "Q7", "Q4b", "Q8", "total"},
		Notes:  "expected shape: Q4b (MiningSource) and, when M, Q8 (elementary-rule join, streamed into the core) dominate; Q5 only paid when H",
	}
	variants := []struct {
		name string
		stmt string
	}{
		{"C", `MINE RULE E6 AS SELECT DISTINCT 1..1 item AS BODY, 1..1 item AS HEAD
			FROM Purchase GROUP BY cust CLUSTER BY dt
			EXTRACTING RULES WITH SUPPORT: 0.08, CONFIDENCE: 0.2`},
		{"C+K", `MINE RULE E6 AS SELECT DISTINCT 1..1 item AS BODY, 1..1 item AS HEAD
			FROM Purchase GROUP BY cust CLUSTER BY dt HAVING BODY.dt < HEAD.dt
			EXTRACTING RULES WITH SUPPORT: 0.08, CONFIDENCE: 0.2`},
		{"C+K+M", `MINE RULE E6 AS SELECT DISTINCT 1..1 item AS BODY, 1..1 item AS HEAD
			WHERE BODY.price >= 100 AND HEAD.price < 100
			FROM Purchase GROUP BY cust CLUSTER BY dt HAVING BODY.dt < HEAD.dt
			EXTRACTING RULES WITH SUPPORT: 0.08, CONFIDENCE: 0.2`},
		{"H+M", `MINE RULE E6 AS SELECT DISTINCT 1..1 item AS BODY, 1..1 qty AS HEAD
			WHERE BODY.price >= 100 AND HEAD.price < 100
			FROM Purchase GROUP BY cust
			EXTRACTING RULES WITH SUPPORT: 0.08, CONFIDENCE: 0.2`},
	}
	for _, v := range variants {
		db, err := PurchaseDB(400, 3, 5, 80, 7)
		if err != nil {
			return nil, err
		}
		res, err := Mine(db, v.stmt, "")
		if err != nil {
			return nil, err
		}
		steps := map[string]string{"Q5": "-", "Q6": "-", "Q7": "-", "Q4": "-", "Q8": "-"}
		for _, s := range res.PreprocSteps {
			if _, ok := steps[s.Name]; ok {
				steps[s.Name] = ms(s.Duration)
			}
		}
		t.Rows = append(t.Rows, []string{
			v.name, res.Class.String(),
			steps["Q5"], steps["Q6"], steps["Q7"], steps["Q4"], steps["Q8"],
			ms(res.Timings.Preprocess),
		})
	}
	return t, nil
}

// E7 scales the rule-lattice core with cluster count per group and
// mining-condition selectivity (§4.3.2).
func E7() (*Table, error) {
	t := &Table{
		Title:  "E7: rule-lattice core vs clusters per group and condition selectivity",
		Header: []string{"dates/cust", "price threshold", "Q8 rows", "core ms", "rules"},
		Notes:  "expected shape: core time grows with cluster pairs; tighter conditions shrink core input (SQL-side pruning pays)",
	}
	for _, dates := range []int{2, 4, 6} {
		for _, thresh := range []int{50, 150} {
			db, err := PurchaseDB(250, dates, 4, 60, 7)
			if err != nil {
				return nil, err
			}
			stmt := fmt.Sprintf(`MINE RULE E7 AS
				SELECT DISTINCT 1..2 item AS BODY, 1..1 item AS HEAD, SUPPORT, CONFIDENCE
				WHERE BODY.price >= %d AND HEAD.price < %d
				FROM Purchase GROUP BY cust
				CLUSTER BY dt HAVING BODY.dt < HEAD.dt
				EXTRACTING RULES WITH SUPPORT: 0.04, CONFIDENCE: 0.2`, thresh, thresh)
			res, err := core.Mine(db, stmt, core.Options{ReplaceOutput: true})
			if err != nil {
				return nil, err
			}
			// Q8's rows are the core's whole elementary-rule input.
			q8 := 0
			for _, s := range res.PreprocSteps {
				if s.Name == "Q8" {
					q8 = s.Rows
				}
			}
			t.Rows = append(t.Rows, []string{
				fmt.Sprint(dates), fmt.Sprint(thresh), fmt.Sprint(q8),
				ms(res.Timings.Core), fmt.Sprint(res.RuleCount),
			})
		}
	}
	return t, nil
}

// E8 sweeps the support threshold on one dataset: rule count and time
// must grow monotonically as support drops.
func E8(supports []float64) (*Table, error) {
	if len(supports) == 0 {
		supports = []float64{0.05, 0.02, 0.01, 0.005}
	}
	db, err := BasketDB(3000, 10, 4, 500, 42)
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title:  "E8: support sweep (T10.I4 D=3000)",
		Header: []string{"support", "mingroups", "rules", "core ms", "total ms"},
		Notes:  "expected shape: rules and core time monotonically non-decreasing as support drops",
	}
	prevRules := -1
	for _, s := range supports { // supports ordered high → low
		res, err := Mine(db, BasketStatement("E8", s, 0.2), core.AlgoApriori)
		if err != nil {
			return nil, err
		}
		if res.RuleCount < prevRules {
			return nil, fmt.Errorf("E8: rule count not monotone: %d at s=%g after %d", res.RuleCount, s, prevRules)
		}
		prevRules = res.RuleCount
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(s), fmt.Sprint(res.MinGroups), fmt.Sprint(res.RuleCount),
			ms(res.Timings.Core), ms(res.Timings.Total()),
		})
	}
	return t, nil
}

// E9 measures the preprocessing-reuse path of §3: the same statement at
// tightening supports, with and without reuse of the kept encoded
// tables.
func E9() (*Table, error) {
	db, err := BasketDB(3000, 10, 4, 500, 42)
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title:  "E9: preprocessing reuse (§3), same statement at tightening supports",
		Header: []string{"support", "mode", "preprocess ms", "total ms", "rules"},
		Notes:  "expected shape: reused runs drop the preprocessing cost to ~0 with identical rule counts",
	}
	supports := []float64{0.01, 0.02, 0.04}
	for i, s := range supports {
		stmt := BasketStatement("E9", s, 0.2)
		opts := core.Options{KeepEncoded: true, ReplaceOutput: true}
		res, err := core.Mine(db, stmt, opts)
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(s), "fresh", ms(res.Timings.Preprocess), ms(res.Timings.Total()), fmt.Sprint(res.RuleCount),
		})
		if i == 0 {
			continue // nothing to reuse yet at the loosest support
		}
		opts.ReuseEncoded = true
		res2, err := core.Mine(db, stmt, opts)
		if err != nil {
			return nil, err
		}
		if !res2.Reused {
			return nil, fmt.Errorf("E9: run at s=%g did not reuse", s)
		}
		if res2.RuleCount != res.RuleCount {
			return nil, fmt.Errorf("E9: reuse changed the result: %d vs %d rules", res2.RuleCount, res.RuleCount)
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(s), "reused", ms(res2.Timings.Preprocess), ms(res2.Timings.Total()), fmt.Sprint(res2.RuleCount),
		})
	}
	return t, nil
}

// All runs every experiment.
func All() ([]*Table, error) {
	var out []*Table
	for _, run := range []struct {
		name string
		fn   func() (*Table, error)
	}{
		{"E1", E1},
		{"E2", func() (*Table, error) { return E2(nil) }},
		{"E3", func() (*Table, error) { return E3(nil) }},
		{"E4", func() (*Table, error) { return E4(0, nil) }},
		{"E5", E5},
		{"E6", E6},
		{"E7", E7},
		{"E8", func() (*Table, error) { return E8(nil) }},
		{"E9", E9},
		{"E10", func() (*Table, error) { return E10(nil) }},
		{"E11", func() (*Table, error) { return E11(0) }},
	} {
		t, err := run.fn()
		if err != nil {
			return out, fmt.Errorf("%s: %w", run.name, err)
		}
		out = append(out, t)
	}
	return out, nil
}

// E10 measures the durability tax of the storage subsystem: the same
// mining workload with the WAL on versus the in-memory engine, then a
// checkpointed cold open versus a pure-replay crash recovery of the
// resulting database.
func E10(sizes []int) (*Table, error) {
	if len(sizes) == 0 {
		sizes = []int{500, 2000}
	}
	t := &Table{
		Title:  "E10: durability tax — WAL-on load and mining, cold open, crash recovery",
		Header: []string{"groups", "rows", "mem mine ms", "wal mine ms", "recovery ms", "replayed recs", "cold open ms"},
		Notes:  "expected shape: mining is read-heavy so the WAL tax is small; replaying the log costs more than loading a checkpointed snapshot",
	}
	for _, d := range sizes {
		mem, err := BasketDB(d, 10, 4, 500, 42)
		if err != nil {
			return nil, err
		}
		resMem, err := Mine(mem, BasketStatement("E10", 0.01, 0.2), core.AlgoApriori)
		if err != nil {
			return nil, err
		}

		dir, err := os.MkdirTemp("", "minerule-e10-")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(dir)
		db, err := engine.Open(dir, 0)
		if err != nil {
			return nil, err
		}
		rows, err := gen.LoadBaskets(db, "Baskets", gen.BasketConfig{
			Groups: d, AvgSize: 10, AvgPatternLen: 4, Items: 500, Seed: 42,
		})
		if err != nil {
			return nil, err
		}
		resWal, err := Mine(db, BasketStatement("E10", 0.01, 0.2), core.AlgoApriori)
		if err != nil {
			return nil, err
		}
		if resWal.RuleCount != resMem.RuleCount {
			return nil, fmt.Errorf("E10: durable run changed the result: %d vs %d rules",
				resWal.RuleCount, resMem.RuleCount)
		}
		if err := db.Close(); err != nil {
			return nil, err
		}

		// Crash recovery: no checkpoint has run, so the open replays the
		// whole history from the WAL.
		start := time.Now()
		db2, err := engine.Open(dir, 0)
		if err != nil {
			return nil, err
		}
		recoveryMs := time.Since(start)
		replayed := db2.Metrics().RecoveryRecords.Load()
		if err := db2.Checkpoint(); err != nil {
			return nil, err
		}
		if err := db2.Close(); err != nil {
			return nil, err
		}

		// Cold open: the checkpoint moved everything into heap-file
		// snapshots, so this open replays (almost) nothing.
		start = time.Now()
		db3, err := engine.Open(dir, 0)
		if err != nil {
			return nil, err
		}
		coldMs := time.Since(start)
		n, err := db3.QueryInt("SELECT COUNT(*) FROM Baskets")
		if err != nil {
			return nil, err
		}
		if int(n) != rows {
			return nil, fmt.Errorf("E10: cold open lost rows: %d vs %d", n, rows)
		}
		if err := db3.Close(); err != nil {
			return nil, err
		}

		t.Rows = append(t.Rows, []string{
			fmt.Sprint(d), fmt.Sprint(rows),
			ms(resMem.Timings.Total()), ms(resWal.Timings.Total()),
			ms(recoveryMs), fmt.Sprint(replayed), ms(coldMs),
		})
	}
	return t, nil
}
