package mining

import (
	"cmp"
	"slices"
	"sort"
)

// This file implements the general core processing of §4.3.2: rule
// discovery over the m×n rule lattice, starting from elementary (1×1)
// rules and growing bodies and heads by one item at a time.
//
// An elementary rule occurrence is a *context* (group, body cluster,
// head cluster). A composed rule B ⇒ H holds in a context exactly when
// every pair (b, h) ∈ B×H is an elementary rule there, so the context
// list of a grown rule is the intersection of its parent's list with the
// added pairs' lists. Support counts distinct groups among a rule's
// contexts; confidence divides by the number of groups where the whole
// body co-occurs inside one cluster (§2 step 5: "all body clusters are
// used for computing confidence").

// Ctx is one rule occurrence context.
type Ctx struct {
	G  int64 // group
	BC int64 // body cluster
	HC int64 // head cluster
}

// cmpCtx orders contexts by group, then body and head cluster.
func cmpCtx(a, b Ctx) int {
	switch {
	case a.G != b.G:
		return cmp.Compare(a.G, b.G)
	case a.BC != b.BC:
		return cmp.Compare(a.BC, b.BC)
	}
	return cmp.Compare(a.HC, b.HC)
}

// GC is a (group, cluster) occurrence of an item in a role.
type GC struct {
	G int64
	C int64
}

func gcLess(a, b GC) bool {
	if a.G != b.G {
		return a.G < b.G
	}
	return a.C < b.C
}

// PairPolicy selects which (body cluster, head cluster) pairs are valid
// inside a group when the preprocessor did not materialize
// ClusterCouples.
type PairPolicy int

const (
	// SelfPairs: no CLUSTER BY — each group is a single cluster paired
	// with itself.
	SelfPairs PairPolicy = iota
	// AllPairs: CLUSTER BY without HAVING — every ordered pair of
	// clusters in the group, including a cluster with itself.
	AllPairs
	// ExplicitPairs: the cluster HAVING selected pairs (ClusterCouples).
	ExplicitPairs
)

// GroupData is the per-group slice of the encoded source: which items
// appear in which cluster, for each role. When the statement has a
// single item schema (¬H), HeadClusters aliases BodyClusters.
type GroupData struct {
	Gid          int64
	BodyClusters map[int64][]Item
	HeadClusters map[int64][]Item
	// Couples lists the valid (body cid, head cid) pairs; used only
	// under ExplicitPairs.
	Couples [][2]int64
}

// ElemOcc is one elementary rule occurrence: one row of the
// preprocessor's Q8.
type ElemOcc struct {
	Body, Head Item
	Ctx        Ctx
}

// GeneralInput is the encoded input of the general core processing.
type GeneralInput struct {
	TotalGroups int
	Groups      []GroupData
	PairPolicy  PairPolicy
	// SameAttr is true when body and head share one item encoding (¬H);
	// rule bodies and heads are then kept disjoint.
	SameAttr bool
	// Elementary, when non-nil, is the rows of the preprocessor's Q8
	// (M true): the elementary rules with their contexts, possibly
	// repeated and not yet pruned by support. When nil the core
	// derives elementary rules from Groups (the non-materialized
	// cartesian product of §4.3.2).
	Elementary []ElemOcc
}

type pairKey struct{ b, h Item }

// latticeRule is a rule under construction with its context list.
type latticeRule struct {
	body, head []Item
	ctxs       []Ctx
	gcount     int
}

// MineGeneral runs the rule-lattice algorithm.
func MineGeneral(in *GeneralInput, opts Options) []Rule {
	minCount := MinCount(opts.MinSupport, in.TotalGroups)

	elem := elementaryContexts(in, minCount)
	if len(elem) == 0 {
		return nil
	}
	bodyOcc := bodyOccurrences(in)

	// Level 1×1.
	var level []latticeRule
	for pk, ctxs := range elem {
		level = append(level, latticeRule{
			body:   []Item{pk.b},
			head:   []Item{pk.h},
			ctxs:   ctxs,
			gcount: distinctGroups(ctxs),
		})
	}
	sort.Slice(level, func(i, j int) bool {
		if level[i].body[0] != level[j].body[0] {
			return level[i].body[0] < level[j].body[0]
		}
		return level[i].head[0] < level[j].head[0]
	})

	var rules []Rule
	emit := func(r latticeRule) {
		if !opts.BodyCard.contains(len(r.body)) || !opts.HeadCard.contains(len(r.head)) {
			return
		}
		bc := bodyCount(bodyOcc, r.body)
		if bc == 0 {
			return
		}
		conf := float64(r.gcount) / float64(bc)
		if conf < opts.MinConfidence {
			return
		}
		rules = append(rules, Rule{
			Body:         append([]Item(nil), r.body...),
			Head:         append([]Item(nil), r.head...),
			SupportCount: r.gcount,
			BodyCount:    bc,
			Support:      float64(r.gcount) / float64(in.TotalGroups),
			Confidence:   conf,
		})
	}

	// Canonical unique-path descent of the paper's lattice: bodies grow
	// (in increasing item order) while the head is a singleton; heads
	// grow (in increasing item order) at any body. Every m×n rule set is
	// reached exactly once, and since rule contexts shrink monotonically
	// along any path, support pruning is safe on this path too.
	var headItems []Item
	seenHead := make(map[Item]bool)
	for pk := range elem {
		if !seenHead[pk.h] {
			seenHead[pk.h] = true
			headItems = append(headItems, pk.h)
		}
	}
	sort.Slice(headItems, func(i, j int) bool { return headItems[i] < headItems[j] })
	var bodyItems []Item
	seenBody := make(map[Item]bool)
	for pk := range elem {
		if !seenBody[pk.b] {
			seenBody[pk.b] = true
			bodyItems = append(bodyItems, pk.b)
		}
	}
	sort.Slice(bodyItems, func(i, j int) bool { return bodyItems[i] < bodyItems[j] })

	bud := opts.Budget
	queue := level
	for len(queue) > 0 {
		if !bud.Charge(1) {
			break // budget tripped: stop the descent, keep rules so far
		}
		r := queue[0]
		queue = queue[1:]
		emit(r)

		// Body growth, only while the head is still a singleton.
		if len(r.head) == 1 && opts.BodyCard.allows(len(r.body)+1) {
			h := r.head[0]
			maxB := r.body[len(r.body)-1]
			for _, b := range bodyItems {
				if b <= maxB {
					continue
				}
				if in.SameAttr && b == h {
					continue
				}
				pc, ok := elem[pairKey{b, h}]
				if !ok {
					continue
				}
				ctxs := intersectCtx(r.ctxs, pc)
				if g := distinctGroups(ctxs); g >= minCount {
					queue = append(queue, latticeRule{
						body:   appendItem(r.body, b),
						head:   r.head,
						ctxs:   ctxs,
						gcount: g,
					})
				}
			}
		}

		// Head growth.
		if opts.HeadCard.allows(len(r.head) + 1) {
			maxH := r.head[len(r.head)-1]
		nextHead:
			for _, h := range headItems {
				if h <= maxH {
					continue
				}
				if in.SameAttr && itemIn(r.body, h) {
					continue
				}
				ctxs := r.ctxs
				for _, b := range r.body {
					pc, ok := elem[pairKey{b, h}]
					if !ok {
						continue nextHead
					}
					ctxs = intersectCtx(ctxs, pc)
					if len(ctxs) == 0 {
						continue nextHead
					}
				}
				if g := distinctGroups(ctxs); g >= minCount {
					queue = append(queue, latticeRule{
						body:   r.body,
						head:   appendItem(r.head, h),
						ctxs:   ctxs,
						gcount: g,
					})
				}
			}
		}
	}
	SortRules(rules)
	return rules
}

// elementaryContexts produces the pruned map pair → sorted context list,
// either from the preprocessor's Q8 rows or by streaming the per-group
// cluster-pair cartesian product. Deduplicating each pair's contexts is
// the paper's Q8 DISTINCT; dropping pairs in fewer than minCount groups
// is its Q9 and Q10.
func elementaryContexts(in *GeneralInput, minCount int) map[pairKey][]Ctx {
	occ := in.Elementary
	if occ == nil {
		for _, g := range in.Groups {
			for _, pair := range validPairs(in, g) {
				for _, b := range g.BodyClusters[pair[0]] {
					for _, h := range g.HeadClusters[pair[1]] {
						if !in.SameAttr || b != h {
							occ = append(occ, ElemOcc{b, h, Ctx{G: g.Gid, BC: pair[0], HC: pair[1]}})
						}
					}
				}
			}
		}
	}
	// Bucket the occurrences by pair with a counting sort on a dense
	// pair id. A pair with fewer occurrences than minCount cannot hold
	// in minCount groups, and gets no room.
	id := make(map[pairKey]int32)
	var pairs []pairKey
	ids := make([]int32, len(occ))
	for i, e := range occ {
		k, ok := id[pairKey{e.Body, e.Head}]
		if !ok {
			k = int32(len(pairs))
			id[pairKey{e.Body, e.Head}] = k
			pairs = append(pairs, pairKey{e.Body, e.Head})
		}
		ids[i] = k
	}
	end := make([]int32, len(pairs)+1) // occurrence counts, then offsets
	for _, k := range ids {
		end[k+1]++
	}
	for k := range pairs {
		if end[k+1] < int32(minCount) {
			end[k+1] = 0
		}
		end[k+1] += end[k]
	}
	ctxs := make([]Ctx, end[len(pairs)])
	next := slices.Clone(end[:len(pairs)])
	for i, k := range ids {
		if next[k] < end[k+1] {
			ctxs[next[k]] = occ[i].Ctx
			next[k]++
		}
	}
	elem := make(map[pairKey][]Ctx)
	for k, pk := range pairs {
		list := ctxs[end[k]:end[k+1]]
		slices.SortFunc(list, cmpCtx)
		if list = slices.Clip(slices.Compact(list)); distinctGroups(list) >= minCount {
			elem[pk] = list
		}
	}
	return elem
}

// KeptContexts returns the contexts the core keeps for each elementary
// rule (body, head) of in at minCount: deduplicated, sorted, and only
// for rules in at least minCount groups. It is the lattice's first
// level, exposed so a test can hold it to the paper's InputRules.
func KeptContexts(in *GeneralInput, minCount int) map[[2]Item][]Ctx {
	elem := elementaryContexts(in, minCount)
	out := make(map[[2]Item][]Ctx, len(elem))
	for pk, ctxs := range elem {
		out[[2]Item{pk.b, pk.h}] = ctxs
	}
	return out
}

// validPairs expands the pair policy for one group.
func validPairs(in *GeneralInput, g GroupData) [][2]int64 {
	switch in.PairPolicy {
	case ExplicitPairs:
		return g.Couples
	case AllPairs:
		bcids := make([]int64, 0, len(g.BodyClusters))
		for c := range g.BodyClusters {
			bcids = append(bcids, c)
		}
		sort.Slice(bcids, func(i, j int) bool { return bcids[i] < bcids[j] })
		hcids := make([]int64, 0, len(g.HeadClusters))
		for c := range g.HeadClusters {
			hcids = append(hcids, c)
		}
		sort.Slice(hcids, func(i, j int) bool { return hcids[i] < hcids[j] })
		out := make([][2]int64, 0, len(bcids)*len(hcids))
		for _, b := range bcids {
			for _, h := range hcids {
				out = append(out, [2]int64{b, h})
			}
		}
		return out
	default: // SelfPairs: the single implicit cluster is cid 0.
		return [][2]int64{{0, 0}}
	}
}

// bodyOccurrences collects, per body item, the sorted (group, cluster)
// list used for confidence denominators.
func bodyOccurrences(in *GeneralInput) map[Item][]GC {
	occ := make(map[Item][]GC)
	for _, g := range in.Groups {
		for cid, items := range g.BodyClusters {
			for _, it := range items {
				occ[it] = append(occ[it], GC{G: g.Gid, C: cid})
			}
		}
	}
	for it, l := range occ {
		sort.Slice(l, func(i, j int) bool { return gcLess(l[i], l[j]) })
		occ[it] = dedupGC(l)
	}
	return occ
}

// bodyCount counts the groups containing every body item inside a single
// cluster.
func bodyCount(occ map[Item][]GC, body []Item) int {
	cur, ok := occ[body[0]]
	if !ok {
		return 0
	}
	for _, b := range body[1:] {
		next, ok := occ[b]
		if !ok {
			return 0
		}
		cur = intersectGC(cur, next)
		if len(cur) == 0 {
			return 0
		}
	}
	count := 0
	var prev int64 = -1 << 62
	for _, gc := range cur {
		if gc.G != prev {
			count++
			prev = gc.G
		}
	}
	return count
}

func appendItem(items []Item, it Item) []Item {
	out := make([]Item, len(items)+1)
	copy(out, items)
	out[len(items)] = it
	return out
}

func itemIn(items []Item, it Item) bool {
	for _, x := range items {
		if x == it {
			return true
		}
	}
	return false
}

func distinctGroups(ctxs []Ctx) int {
	count := 0
	var prev int64 = -1 << 62
	for _, c := range ctxs {
		if c.G != prev {
			count++
			prev = c.G
		}
	}
	return count
}

func intersectCtx(a, b []Ctx) []Ctx {
	out := make([]Ctx, 0, min(len(a), len(b)))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] == b[j]:
			out = append(out, a[i])
			i++
			j++
		case cmpCtx(a[i], b[j]) < 0:
			i++
		default:
			j++
		}
	}
	return out
}

func intersectGC(a, b []GC) []GC {
	out := make([]GC, 0, min(len(a), len(b)))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] == b[j]:
			out = append(out, a[i])
			i++
			j++
		case gcLess(a[i], b[j]):
			i++
		default:
			j++
		}
	}
	return out
}

func dedupGC(l []GC) []GC {
	out := l[:0]
	for i, gc := range l {
		if i == 0 || gc != l[i-1] {
			out = append(out, gc)
		}
	}
	return out
}
