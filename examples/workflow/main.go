// Workflow walks the full analyst loop the tightly-coupled architecture
// enables: inspect the translation (EXPLAIN), mine keeping the encoded
// tables, re-mine at a tighter threshold reusing them (paper §3), then
// close the durable database and reopen it — mined rule tables
// included.
package main

import (
	"fmt"
	"log"
	"os"

	"minerule"
	"minerule/internal/gen"
)

func main() {
	dir, err := os.MkdirTemp("", "minerule-workflow-demo")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	sys, err := minerule.Open(minerule.WithStorage(dir))
	if err != nil {
		log.Fatal(err)
	}
	if _, err := gen.LoadBaskets(sys.DB(), "Baskets", gen.BasketConfig{
		Groups: 1500, AvgSize: 8, AvgPatternLen: 4, Items: 150, Seed: 11,
	}); err != nil {
		log.Fatal(err)
	}

	stmt := func(support float64) string {
		return fmt.Sprintf(`
			MINE RULE Frequent AS
			SELECT DISTINCT 1..n item AS BODY, 1..1 item AS HEAD, SUPPORT, CONFIDENCE
			FROM Baskets GROUP BY gid
			EXTRACTING RULES WITH SUPPORT: %g, CONFIDENCE: 0.4`, support)
	}

	// 1. What will the kernel do? EXPLAIN shows the classification and
	// the generated SQL programs without running anything.
	ex, err := sys.Explain(stmt(0.02))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("classification %s, simple core: %v, %d preprocessing statements\n\n",
		ex.Class, ex.Simple, len(ex.Steps))

	// 2. Mine, keeping the encoded tables for reuse.
	first, err := sys.Mine(stmt(0.02), minerule.WithKeepEncoded())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("support 0.02: %4d rules, preprocess %8v, total %8v\n",
		first.RuleCount, first.Timings.Preprocess.Round(1000), first.Timings.Total().Round(1000))

	// 3. Tighten the threshold; the preprocessing is skipped entirely.
	second, err := sys.Mine(stmt(0.05),
		minerule.WithKeepEncoded(), minerule.WithReuseEncoded(), minerule.WithReplaceOutput())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("support 0.05: %4d rules, preprocess %8v, total %8v (reused: %v)\n\n",
		second.RuleCount, second.Timings.Preprocess.Round(1000), second.Timings.Total().Round(1000), second.Reused)

	// 4. The rules are tables; inspect how the engine answers a query
	// over them.
	plan, err := sys.ExplainSQL(`
		SELECT COUNT(*) FROM Frequent R, Frequent_Bodies B
		WHERE R.BodyId = B.BodyId AND R.CONFIDENCE >= 0.6`)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("engine plan for a query over the mined rules:")
	fmt.Println(plan)

	// 5. Everything is durable: close, reopen and prove it comes back.
	if err := sys.Close(); err != nil {
		log.Fatal(err)
	}
	reopened, err := minerule.Open(minerule.WithStorage(dir))
	if err != nil {
		log.Fatal(err)
	}
	defer reopened.Close()
	n, err := reopened.QueryInt("SELECT COUNT(*) FROM Frequent")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("closed and reopened %s: %d rules survive\n", dir, n)
}
