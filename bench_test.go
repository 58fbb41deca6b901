// Benchmarks regenerating the evaluation of DESIGN.md §5: one target per
// experiment (E1–E8). The experiment harness proper (with the full
// parameter grids and the printed tables of EXPERIMENTS.md) lives in
// internal/bench and runs via cmd/minerule-bench; these targets wrap the
// same workloads at benchmark-friendly sizes.
package minerule_test

import (
	"fmt"
	"testing"

	"minerule/internal/bench"
	"minerule/internal/core"
	"minerule/internal/sql/engine"
)

func mustDB(b *testing.B, mk func() (*engine.Database, error)) *engine.Database {
	b.Helper()
	db, err := mk()
	if err != nil {
		b.Fatal(err)
	}
	return db
}

func runMine(b *testing.B, db *engine.Database, stmt string, algo core.Algorithm) *core.Result {
	b.Helper()
	res, err := bench.Mine(db, stmt, algo)
	if err != nil {
		b.Fatal(err)
	}
	return res
}

// BenchmarkE1PaperExample runs the paper's §2 statement end to end on
// the Figure 1 table (reproducing Figure 2.b each iteration).
func BenchmarkE1PaperExample(b *testing.B) {
	b.ReportAllocs()
	db := mustDB(b, bench.PaperDB)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := runMine(b, db, bench.PaperStatement, "")
		if res.RuleCount != 3 {
			b.Fatalf("Figure 2.b mismatch: %d rules", res.RuleCount)
		}
	}
}

// BenchmarkE2PhaseSplit measures the whole pipeline as group count
// grows (Figure 3.a's process flow).
func BenchmarkE2PhaseSplit(b *testing.B) {
	b.ReportAllocs()
	for _, groups := range []int{500, 2000} {
		b.Run(fmt.Sprintf("groups=%d", groups), func(b *testing.B) {
			b.ReportAllocs()
			db := mustDB(b, func() (*engine.Database, error) { return bench.BasketDB(groups, 10, 4, 500, 42) })
			stmt := bench.BasketStatement("E2", 0.02, 0.2)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				runMine(b, db, stmt, core.AlgoApriori)
			}
		})
	}
}

// BenchmarkE3SimpleVsGeneral compares the two core-processing classes of
// Figure 3.b on identical semantics (an always-true mining condition
// forces the general path).
func BenchmarkE3SimpleVsGeneral(b *testing.B) {
	b.ReportAllocs()
	db := mustDB(b, func() (*engine.Database, error) { return bench.PurchaseDB(200, 3, 5, 80, 7) })
	simple := `MINE RULE E3S AS
		SELECT DISTINCT 1..n item AS BODY, 1..1 item AS HEAD, SUPPORT, CONFIDENCE
		FROM Purchase GROUP BY cust
		EXTRACTING RULES WITH SUPPORT: 0.1, CONFIDENCE: 0.3`
	general := `MINE RULE E3G AS
		SELECT DISTINCT 1..n item AS BODY, 1..1 item AS HEAD, SUPPORT, CONFIDENCE
		WHERE BODY.price >= 0 AND HEAD.price >= 0
		FROM Purchase GROUP BY cust
		EXTRACTING RULES WITH SUPPORT: 0.1, CONFIDENCE: 0.3`
	b.Run("simple", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			runMine(b, db, simple, core.AlgoApriori)
		}
	})
	b.Run("general", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			runMine(b, db, general, "")
		}
	})
}

// BenchmarkE4AlgorithmPool races the simple-core pool at two supports
// (§3 algorithm interoperability).
func BenchmarkE4AlgorithmPool(b *testing.B) {
	b.ReportAllocs()
	db := mustDB(b, func() (*engine.Database, error) { return bench.BasketDB(1500, 10, 4, 600, 42) })
	for _, algo := range []core.Algorithm{core.AlgoApriori, core.AlgoBitmap} {
		for _, s := range []float64{0.02, 0.005} {
			b.Run(fmt.Sprintf("%s/s=%g", algo, s), func(b *testing.B) {
				b.ReportAllocs()
				stmt := bench.BasketStatement("E4", s, 0.2)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					runMine(b, db, stmt, algo)
				}
			})
		}
	}
}

// BenchmarkE5PreprocSimple exercises the Figure 4.a translation
// programs under the W and G toggles.
func BenchmarkE5PreprocSimple(b *testing.B) {
	b.ReportAllocs()
	variants := map[string]string{
		"plain": `MINE RULE E5 AS SELECT DISTINCT 1..n item AS BODY, 1..1 item AS HEAD
			FROM Baskets GROUP BY gid EXTRACTING RULES WITH SUPPORT: 0.02, CONFIDENCE: 0.2`,
		"W": `MINE RULE E5 AS SELECT DISTINCT 1..n item AS BODY, 1..1 item AS HEAD
			FROM Baskets WHERE gid > 0 GROUP BY gid EXTRACTING RULES WITH SUPPORT: 0.02, CONFIDENCE: 0.2`,
		"G": `MINE RULE E5 AS SELECT DISTINCT 1..n item AS BODY, 1..1 item AS HEAD
			FROM Baskets GROUP BY gid HAVING COUNT(*) >= 5 EXTRACTING RULES WITH SUPPORT: 0.02, CONFIDENCE: 0.2`,
	}
	db := mustDB(b, func() (*engine.Database, error) { return bench.BasketDB(1500, 10, 4, 500, 42) })
	for _, name := range []string{"plain", "W", "G"} {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				runMine(b, db, variants[name], core.AlgoApriori)
			}
		})
	}
}

// BenchmarkE6PreprocGeneral exercises the Figure 4.b translation
// programs under the C, K, M and H toggles.
func BenchmarkE6PreprocGeneral(b *testing.B) {
	b.ReportAllocs()
	variants := []struct{ name, stmt string }{
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
	db := mustDB(b, func() (*engine.Database, error) { return bench.PurchaseDB(200, 3, 5, 80, 7) })
	for _, v := range variants {
		b.Run(v.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				runMine(b, db, v.stmt, "")
			}
		})
	}
}

// BenchmarkE7Lattice scales the rule-lattice core with the number of
// clusters per group (§4.3.2).
func BenchmarkE7Lattice(b *testing.B) {
	b.ReportAllocs()
	for _, dates := range []int{2, 4, 6} {
		b.Run(fmt.Sprintf("dates=%d", dates), func(b *testing.B) {
			b.ReportAllocs()
			db := mustDB(b, func() (*engine.Database, error) { return bench.PurchaseDB(150, dates, 4, 60, 7) })
			stmt := `MINE RULE E7 AS
				SELECT DISTINCT 1..2 item AS BODY, 1..1 item AS HEAD, SUPPORT, CONFIDENCE
				WHERE BODY.price >= 100 AND HEAD.price < 100
				FROM Purchase GROUP BY cust
				CLUSTER BY dt HAVING BODY.dt < HEAD.dt
				EXTRACTING RULES WITH SUPPORT: 0.04, CONFIDENCE: 0.2`
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				runMine(b, db, stmt, "")
			}
		})
	}
}

// BenchmarkE8SupportSweep runs the pipeline across the support axis.
func BenchmarkE8SupportSweep(b *testing.B) {
	b.ReportAllocs()
	db := mustDB(b, func() (*engine.Database, error) { return bench.BasketDB(1500, 10, 4, 500, 42) })
	for _, s := range []float64{0.05, 0.02, 0.01} {
		b.Run(fmt.Sprintf("s=%g", s), func(b *testing.B) {
			b.ReportAllocs()
			stmt := bench.BasketStatement("E8", s, 0.2)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				runMine(b, db, stmt, core.AlgoApriori)
			}
		})
	}
}

// BenchmarkE9Reuse compares a fresh pipeline run against one reusing
// the kept encoded tables (§3 preprocessing sharing).
func BenchmarkE9Reuse(b *testing.B) {
	b.ReportAllocs()
	db := mustDB(b, func() (*engine.Database, error) { return bench.BasketDB(1500, 10, 4, 500, 42) })
	stmt := bench.BasketStatement("E9", 0.02, 0.2)
	// Seed the encoded tables once.
	if _, err := core.Mine(db, stmt, core.Options{KeepEncoded: true, ReplaceOutput: true}); err != nil {
		b.Fatal(err)
	}
	b.Run("fresh", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := core.Mine(db, stmt, core.Options{KeepEncoded: true, ReplaceOutput: true}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("reused", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			res, err := core.Mine(db, stmt, core.Options{KeepEncoded: true, ReuseEncoded: true, ReplaceOutput: true})
			if err != nil {
				b.Fatal(err)
			}
			if !res.Reused {
				b.Fatal("reuse did not engage")
			}
		}
	})
}

// BenchmarkE11ConcurrentMining runs the E11 workload (4 concurrent
// miners + 2 OLTP writers over MVCC snapshots) once per iteration; the
// reported speedup metric is concurrent aggregate throughput over the
// serialized baseline.
func BenchmarkE11ConcurrentMining(b *testing.B) {
	b.ReportAllocs()
	var last *bench.E11Stats
	for i := 0; i < b.N; i++ {
		st, err := bench.E11Run(300, 1)
		if err != nil {
			b.Fatal(err)
		}
		last = st
	}
	if last != nil {
		b.ReportMetric(last.Speedup, "speedup")
	}
}
