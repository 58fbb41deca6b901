package mining

import "sort"

// DHP is horizontal-counting Apriori [3] with the DHP refinement [12]:
// each pass scans every group and counts the candidates it contains, and
// during the first pass item pairs are hashed into a bucket table, so a
// 2-candidate is generated only when its bucket reached the threshold —
// typically cutting the dominant C2 candidate set sharply.
type DHP struct {
	// HashBuckets sizes the DHP table (default 1<<16).
	HashBuckets int
}

// Name implements ItemsetMiner.
func (DHP) Name() string { return "apriori-dhp" }

// LargeItemsets implements ItemsetMiner. The budget is charged at every
// pass boundary with the pass's candidate count.
func (h DHP) LargeItemsets(in *SimpleInput, minCount int, bud *Budget) []Itemset {
	buckets := h.HashBuckets
	if buckets <= 0 {
		buckets = 1 << 16
	}

	// Pass 1: count singletons and hash pairs.
	counts := make(map[Item]int)
	bucketCount := make([]int32, buckets)
	for _, tx := range in.Groups {
		for i, it := range tx {
			counts[it]++
			for _, jt := range tx[i+1:] {
				bucketCount[pairBucket(it, jt, buckets)]++
			}
		}
	}
	var large []Item
	for it, c := range counts {
		if c >= minCount {
			large = append(large, it)
		}
	}
	sort.Slice(large, func(i, j int) bool { return large[i] < large[j] })

	var out []Itemset
	supp := make(map[string]int)
	for _, it := range large {
		out = append(out, Itemset{Items: []Item{it}, Count: counts[it]})
		supp[key([]Item{it})] = counts[it]
	}
	bud.NotePass(1, len(counts), len(large))
	if !bud.Charge(len(large)) {
		sortItemsets(out)
		return out
	}

	// Pass 2: bucket-filtered pairs of large items. The scan partitions
	// the groups over the worker pool, each worker counting into a
	// private map; the merged sums are order-independent, so the result
	// is identical to the sequential scan.
	largeSet := make(map[Item]bool, len(large))
	for _, it := range large {
		largeSet[it] = true
	}
	countChunk := func(groups [][]Item, into map[[2]Item]int) {
		for _, tx := range groups {
			for i, a := range tx {
				if !largeSet[a] {
					continue
				}
				for _, b := range tx[i+1:] {
					if !largeSet[b] || bucketCount[pairBucket(a, b, buckets)] < int32(minCount) {
						continue
					}
					into[[2]Item{a, b}]++
				}
			}
		}
	}
	pairCounts := make(map[[2]Item]int)
	if chunks := groupChunks(in.Groups); len(chunks) > 1 {
		partial := make([]map[[2]Item]int, len(chunks))
		parallelFor(len(chunks), bud, func(ci int) {
			partial[ci] = make(map[[2]Item]int)
			countChunk(chunks[ci], partial[ci])
		})
		for _, p := range partial {
			for pair, c := range p {
				pairCounts[pair] += c
			}
		}
	} else {
		countChunk(in.Groups, pairCounts)
	}
	var level []Itemset
	for p, c := range pairCounts {
		if c >= minCount {
			level = append(level, Itemset{Items: []Item{p[0], p[1]}, Count: c})
		}
	}
	sortItemsets(level)
	bud.NotePass(2, len(pairCounts), len(level))
	if !bud.Charge(len(pairCounts)) {
		out = append(out, level...)
		sortItemsets(out)
		return out
	}

	// Passes k ≥ 3: Apriori join over the previous level, subset prune,
	// then one counting scan per level. The scan fans candidate chunks
	// out over the pool: each worker scans every group for its disjoint
	// candidate range, so the shared counts slice needs no locking.
	for k := 3; len(level) > 0; k++ {
		out = append(out, level...)
		for _, s := range level {
			supp[key(s.Items)] = s.Count
		}
		cands := joinCandidates(level, supp, bud)
		if len(cands) == 0 || !bud.Charge(len(cands)) {
			break
		}
		counts := make([]int, len(cands))
		countRange := func(lo, hi int) {
			for _, tx := range in.Groups {
				for ci := lo; ci < hi; ci++ {
					if containsAll(tx, cands[ci]) {
						counts[ci]++
					}
				}
			}
		}
		if len(cands) >= minParallelLevel {
			per := (len(cands) + maxWorkers() - 1) / maxWorkers()
			nchunks := (len(cands) + per - 1) / per
			parallelFor(nchunks, bud, func(ci int) {
				lo := ci * per
				hi := lo + per
				if hi > len(cands) {
					hi = len(cands)
				}
				countRange(lo, hi)
			})
		} else {
			countRange(0, len(cands))
		}
		level = level[:0]
		for ci, c := range cands {
			if counts[ci] >= minCount {
				level = append(level, Itemset{Items: c, Count: counts[ci]})
			}
		}
		sortItemsets(level)
		bud.NotePass(k, len(cands), len(level))
	}
	sortItemsets(out)
	return out
}

// joinCandidates applies the Apriori candidate generation with the
// all-subsets-large prune against supp. Prefix runs are independent and
// supp is only read, so large levels fan out over the worker pool;
// per-run outputs merge in run order, reproducing the sequential
// candidate order.
func joinCandidates(level []Itemset, supp map[string]int, bud *Budget) [][]Item {
	runs := prefixRuns(len(level), func(i int) []Item { return level[i].Items })
	joinRun := func(ri int) [][]Item {
		var cands [][]Item
		s, e := runs[ri][0], runs[ri][1]
		for i := s; i < e; i++ {
			for j := i + 1; j < e; j++ {
				a, b := level[i].Items, level[j].Items
				c := make([]Item, len(a)+1)
				copy(c, a)
				c[len(a)] = b[len(b)-1]
				if allSubsetsLarge(c, supp) {
					cands = append(cands, c)
				}
			}
		}
		return cands
	}
	if len(level) < minParallelLevel {
		var cands [][]Item
		for ri := range runs {
			cands = append(cands, joinRun(ri)...)
		}
		return cands
	}
	results := make([][][]Item, len(runs))
	parallelFor(len(runs), bud, func(ri int) { results[ri] = joinRun(ri) })
	var cands [][]Item
	for _, r := range results {
		cands = append(cands, r...)
	}
	return cands
}

// allSubsetsLarge checks every (k-1)-subset of c against the support map.
func allSubsetsLarge(c []Item, supp map[string]int) bool {
	sub := make([]Item, 0, len(c)-1)
	for skip := range c {
		sub = sub[:0]
		for i, it := range c {
			if i != skip {
				sub = append(sub, it)
			}
		}
		if _, ok := supp[key(sub)]; !ok {
			return false
		}
	}
	return true
}

// pairBucket is the DHP hash: a simple multiplicative mix of both items.
func pairBucket(a, b Item, buckets int) int {
	h := uint64(a)*2654435761 ^ uint64(b)*40503
	return int(h % uint64(buckets))
}
