// Basket mines simple association rules from a synthetic Quest-style
// market-basket workload (the T·I·D datasets of the algorithm papers the
// architecture builds on) and compares the core-operator pool on it.
package main

import (
	"fmt"
	"log"

	"minerule"
	"minerule/internal/gen"
)

func main() {
	sys, _ := minerule.Open()

	// T8.I4, 2000 groups, 200 items: a small classic basket workload.
	n, err := gen.LoadBaskets(sys.DB(), "Baskets", gen.BasketConfig{
		Groups:        2000,
		AvgSize:       8,
		AvgPatternLen: 4,
		Items:         200,
		Seed:          42,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("loaded %d purchase rows in 2000 baskets\n\n", n)

	stmt := `
		MINE RULE FrequentPairs AS
		SELECT DISTINCT 1..n item AS BODY, 1..1 item AS HEAD, SUPPORT, CONFIDENCE
		FROM Baskets
		GROUP BY gid
		EXTRACTING RULES WITH SUPPORT: 0.03, CONFIDENCE: 0.5`

	// Run the same statement through each pool algorithm; results must
	// coincide (algorithm interoperability), timings differ.
	for _, algo := range []minerule.Algorithm{minerule.Apriori, minerule.Bitmap} {
		res, err := sys.Mine(stmt, minerule.WithAlgorithm(algo), minerule.WithReplaceOutput())
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-20s %4d rules   core %-12v total %v\n",
			res.Algorithm, res.RuleCount, res.Timings.Core.Round(1000), res.Timings.Total().Round(1000))
	}

	res, err := sys.Mine(stmt, minerule.WithReplaceOutput())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nstrongest rules:")
	shown := 0
	for _, r := range res.Rules {
		if r.Confidence >= 0.8 {
			fmt.Println("  " + r.String())
			shown++
			if shown == 10 {
				break
			}
		}
	}
	if shown == 0 {
		fmt.Println("  (none above confidence 0.8; all rules:)")
		for i, r := range res.Rules {
			if i == 10 {
				break
			}
			fmt.Println("  " + r.String())
		}
	}
}
