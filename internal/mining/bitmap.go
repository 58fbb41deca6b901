package mining

import (
	"math/bits"
	"sort"
)

// Bitmap is the vertical-bitmap member of the pool: the same levelwise
// lattice search as Apriori, but each itemset's group cover is a packed
// bitset over group indexes instead of a sorted gid slice. The paper's
// "associated list that contains identifiers of groups" (§4.3.1) becomes
// one bit per group, so candidate support is a word-wise AND plus
// popcount — branch-free, cache-dense, and independent of how many
// groups actually contain the parents.
type Bitmap struct{}

// Name implements ItemsetMiner.
func (Bitmap) Name() string { return "bitmap" }

// bitNode is a large itemset with its packed group cover.
type bitNode struct {
	items []Item
	bits  []uint64
	count int
}

// LargeItemsets implements ItemsetMiner. The budget is charged once per
// level with the level's size, exactly like the gid-list Apriori, so the
// two are interchangeable under Limits. Levels at or above
// minParallelLevel fan their prefix runs out over the shared pool.
func (Bitmap) LargeItemsets(in *SimpleInput, minCount int, bud *Budget) []Itemset {
	words := (len(in.Groups) + 63) / 64
	level, cand := firstBitmapLevel(in, words, minCount)
	var out []Itemset
	for k := 1; len(level) > 0; k++ {
		for _, n := range level {
			out = append(out, Itemset{Items: n.items, Count: n.count})
		}
		bud.NotePass(k, cand, len(level))
		if !bud.Charge(len(level)) {
			break
		}
		cand = pairCandidates(level, func(n bitNode) []Item { return n.items })
		level = nextBitmapLevel(level, words, minCount, bud)
	}
	sortItemsets(out)
	return out
}

// firstBitmapLevel packs each item's group cover (bit g set when group
// index g contains the item) and keeps the large singletons in ascending
// item order; it also reports the pass-1 candidate count (distinct items
// examined).
func firstBitmapLevel(in *SimpleInput, words, minCount int) ([]bitNode, int) {
	covers := make(map[Item][]uint64)
	for g, tx := range in.Groups {
		for _, it := range tx {
			bm, ok := covers[it]
			if !ok {
				bm = make([]uint64, words)
				covers[it] = bm
			}
			bm[g>>6] |= 1 << (uint(g) & 63)
		}
	}
	items := make([]Item, 0, len(covers))
	for it, bm := range covers {
		if popcount(bm) >= minCount {
			items = append(items, it)
		}
	}
	sort.Slice(items, func(i, j int) bool { return items[i] < items[j] })
	level := make([]bitNode, 0, len(items))
	for _, it := range items {
		bm := covers[it]
		level = append(level, bitNode{items: []Item{it}, bits: bm, count: popcount(bm)})
	}
	return level, len(covers)
}

// nextBitmapLevel performs the levelwise join over prefix runs: within a
// run every pair shares its first k-1 items, and the candidate cover is
// the word-AND of the parents'. Runs are independent, so large levels
// process them on the worker pool; per-run outputs merge in run order,
// which reproduces the sequential (i, j) candidate order exactly.
func nextBitmapLevel(level []bitNode, words, minCount int, bud *Budget) []bitNode {
	runs := prefixRuns(len(level), func(i int) []Item { return level[i].items })
	mineRun := func(ri int) []bitNode {
		var out []bitNode
		buf := make([]uint64, words)
		s, e := runs[ri][0], runs[ri][1]
		for i := s; i < e; i++ {
			if !bud.Charge(0) { // poll cancellation between rows of the run
				return out
			}
			a := level[i]
			for j := i + 1; j < e; j++ {
				b := level[j]
				cnt := 0
				for w, av := range a.bits {
					x := av & b.bits[w]
					buf[w] = x
					cnt += bits.OnesCount64(x)
				}
				if cnt < minCount {
					continue
				}
				items := make([]Item, len(a.items)+1)
				copy(items, a.items)
				items[len(a.items)] = b.items[len(b.items)-1]
				out = append(out, bitNode{items: items, bits: buf, count: cnt})
				buf = make([]uint64, words)
			}
		}
		return out
	}

	if len(level) < minParallelLevel {
		var next []bitNode
		for ri := range runs {
			if bud.Stop() {
				break
			}
			next = append(next, mineRun(ri)...)
		}
		return next
	}
	results := make([][]bitNode, len(runs))
	parallelFor(len(runs), bud, func(ri int) { results[ri] = mineRun(ri) })
	var next []bitNode
	for _, r := range results {
		next = append(next, r...)
	}
	return next
}

func popcount(bm []uint64) int {
	n := 0
	for _, w := range bm {
		n += bits.OnesCount64(w)
	}
	return n
}
