package mining

import (
	"fmt"
	"math/rand"
	"testing"
)

func benchInput(groups, items, avg int, seed int64) *SimpleInput {
	rng := rand.New(rand.NewSource(seed))
	byGroup := make(map[int64][]Item, groups)
	for g := int64(1); g <= int64(groups); g++ {
		n := 1 + rng.Intn(2*avg)
		tx := make([]Item, n)
		for i := range tx {
			tx[i] = Item(rng.Intn(items))
		}
		byGroup[g] = tx
	}
	return NewSimpleInput(byGroup, groups)
}

// BenchmarkLargeItemsets isolates the core algorithms from the SQL
// pipeline (the pure-algorithm view of experiment E4).
func BenchmarkLargeItemsets(b *testing.B) {
	b.ReportAllocs()
	in := benchInput(2000, 300, 8, 1)
	for _, m := range []ItemsetMiner{Apriori{}, Bitmap{}} {
		b.Run(m.Name(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				m.LargeItemsets(in, 40, nil)
			}
		})
	}
}

// BenchmarkRuleGeneration measures subset enumeration over the large
// itemsets.
func BenchmarkRuleGeneration(b *testing.B) {
	b.ReportAllocs()
	in := benchInput(2000, 120, 10, 2)
	sets := Apriori{}.LargeItemsets(in, 20, nil)
	opts := Options{MinSupport: 0.01, MinConfidence: 0.3,
		BodyCard: Card{Min: 1}, HeadCard: Card{Min: 1, Max: 2}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		GenerateRules(sets, opts, in.TotalGroups)
	}
}

// BenchmarkGeneralLattice measures the m×n descent as clusters per
// group grow.
func BenchmarkGeneralLattice(b *testing.B) {
	b.ReportAllocs()
	for _, clusters := range []int{1, 3, 6} {
		b.Run(fmt.Sprintf("clusters=%d", clusters), func(b *testing.B) {
			b.ReportAllocs()
			rng := rand.New(rand.NewSource(3))
			var groups []GroupData
			for g := int64(1); g <= 300; g++ {
				bc := make(map[int64][]Item)
				for c := int64(0); c < int64(clusters); c++ {
					n := 2 + rng.Intn(4)
					items := make([]Item, n)
					for i := range items {
						items[i] = Item(rng.Intn(40))
					}
					bc[c] = normalizeItems(items)
				}
				groups = append(groups, GroupData{Gid: g, BodyClusters: bc, HeadClusters: bc})
			}
			in := &GeneralInput{TotalGroups: 300, Groups: groups, PairPolicy: AllPairs, SameAttr: true}
			opts := Options{MinSupport: 0.05, MinConfidence: 0.2,
				BodyCard: Card{Min: 1, Max: 3}, HeadCard: Card{Min: 1, Max: 1}}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				MineGeneral(in, opts)
			}
		})
	}
}
