// Package mining implements the paper's core operator (§4.3): the
// non-SQL component that receives encoded data from the preprocessor and
// discovers association rules. Two processing classes exist, matching
// Figure 3.b:
//
//   - simple rules: a pool of large-itemset algorithms (levelwise
//     gid-list Apriori [1,3] and vertical bitmaps) followed by rule
//     generation from itemsets;
//   - general rules: the m×n rule-lattice algorithm over elementary
//     rules with (group, body cluster, head cluster) contexts.
//
// The core sees only integer identifiers (Gid/Cid/Bid/Hid), never source
// attributes — the paper's algorithm-interoperability requirement.
package mining

import (
	"context"
	"fmt"
	"math"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"minerule/internal/resource"
)

// Item is an encoded item identifier (a Bid or Hid minted by the
// preprocessor's sequences).
type Item int64

// Card bounds the cardinality of a rule element; Max==0 means unbounded
// (the grammar's "n").
type Card struct {
	Min, Max int
}

// contains reports whether k satisfies the bound.
func (c Card) contains(k int) bool { return k >= c.Min && (c.Max == 0 || k <= c.Max) }

// allows reports whether growing to k is still useful.
func (c Card) allows(k int) bool { return c.Max == 0 || k <= c.Max }

// Options carries the EXTRACTING clause thresholds and the cardinality
// specifications into the core.
type Options struct {
	MinSupport    float64
	MinConfidence float64
	BodyCard      Card
	HeadCard      Card
	// Budget, when non-nil, bounds the mining: cancellation and the
	// candidate ceiling are checked between levelwise passes and lattice
	// nodes. Algorithms return their partial result when it trips; the
	// caller reads the trip reason from Budget.Err.
	Budget *Budget
}

// Budget carries cancellation and the candidate ceiling into the mining
// algorithms. A nil *Budget never trips, so every method is nil-safe.
// The state is shared by the workers of a parallel pass (parallelFor),
// so the counters are atomic.
type Budget struct {
	ctx     context.Context
	max     int64
	used    atomic.Int64
	stopped atomic.Bool
	workers atomic.Int64
	mu      sync.Mutex
	err     error      // guarded by mu
	passes  []PassStat // guarded by mu
}

// PassStat records one levelwise pass for observability: the itemset
// size mined, how many candidates the pass generated, and how many
// survived as large. The lattice core, which has no levelwise shape,
// records nothing.
type PassStat struct {
	Level      int
	Candidates int
	Large      int
}

// NewBudget builds a budget from a cancellation context and a candidate
// ceiling (0 = unlimited). Both zero arguments yield a budget that never
// trips.
func NewBudget(ctx context.Context, maxCandidates int) *Budget {
	return &Budget{ctx: ctx, max: int64(maxCandidates)}
}

// Charge accounts n generated candidates and polls the context. It
// returns false once the budget has tripped; the algorithm should then
// stop growing and return what it has.
func (b *Budget) Charge(n int) bool {
	if b == nil {
		return true
	}
	if b.stopped.Load() {
		return false
	}
	if used := b.used.Add(int64(n)); b.max > 0 && used > b.max {
		b.trip(&resource.BudgetError{Resource: "candidates", Limit: int(b.max)})
		return false
	}
	if b.ctx != nil {
		if err := b.ctx.Err(); err != nil {
			b.trip(resource.Canceled(err))
			return false
		}
	}
	return true
}

// Stop reports whether the budget has tripped; inner loops consult it to
// wind down early without charging anything.
func (b *Budget) Stop() bool { return b != nil && b.stopped.Load() }

// Err returns the trip reason (a *resource.BudgetError or CancelError),
// or nil while the budget holds.
func (b *Budget) Err() error {
	if b == nil {
		return nil
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.err
}

// NotePass records one levelwise pass. Nil-safe; called once per pass,
// so the mutex is not on any hot path.
func (b *Budget) NotePass(level, candidates, large int) {
	if b == nil {
		return
	}
	b.mu.Lock()
	b.passes = append(b.passes, PassStat{Level: level, Candidates: candidates, Large: large})
	b.mu.Unlock()
}

// Passes returns a copy of the recorded levelwise passes.
func (b *Budget) Passes() []PassStat {
	if b == nil {
		return nil
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return append([]PassStat(nil), b.passes...)
}

// Used returns the number of candidates charged so far.
func (b *Budget) Used() int64 {
	if b == nil {
		return 0
	}
	return b.used.Load()
}

// noteWorkers records the widest worker fan-out the mining used; the
// trace reports it as the pool utilisation.
func (b *Budget) noteWorkers(n int) {
	if b == nil {
		return
	}
	for {
		cur := b.workers.Load()
		if int64(n) <= cur || b.workers.CompareAndSwap(cur, int64(n)) {
			return
		}
	}
}

// Workers returns the widest worker fan-out recorded (0 when the mining
// never left the sequential path).
func (b *Budget) Workers() int {
	if b == nil {
		return 0
	}
	return int(b.workers.Load())
}

func (b *Budget) trip(err error) {
	b.mu.Lock()
	if b.err == nil {
		b.err = err
	}
	b.mu.Unlock()
	b.stopped.Store(true)
}

// MinCount converts the relative support into the minimum number of
// groups, over the given total, that a rule must reach. It is at least 1:
// a rule must occur somewhere.
func MinCount(minSupport float64, totalGroups int) int {
	c := int(math.Ceil(minSupport*float64(totalGroups) - 1e-9))
	if c < 1 {
		c = 1
	}
	return c
}

// Rule is one association rule over encoded items. Body and Head are
// sorted ascending. SupportCount is the number of groups containing the
// rule, BodyCount the number containing the body.
type Rule struct {
	Body, Head   []Item
	SupportCount int
	BodyCount    int
	Support      float64
	Confidence   float64
}

// String renders the rule for diagnostics: {1,2} => {3} (s=0.5, c=1).
func (r Rule) String() string {
	return fmt.Sprintf("%s => %s (s=%g, c=%g)", itemsString(r.Body), itemsString(r.Head), r.Support, r.Confidence)
}

func itemsString(items []Item) string {
	parts := make([]string, len(items))
	for i, it := range items {
		parts[i] = strconv.FormatInt(int64(it), 10)
	}
	return "{" + strings.Join(parts, ",") + "}"
}

// SortRules orders rules canonically (body, then head, lexicographic),
// giving deterministic output across algorithms.
func SortRules(rules []Rule) {
	sort.Slice(rules, func(i, j int) bool {
		if c := compareItems(rules[i].Body, rules[j].Body); c != 0 {
			return c < 0
		}
		return compareItems(rules[i].Head, rules[j].Head) < 0
	})
}

func compareItems(a, b []Item) int {
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			if a[i] < b[i] {
				return -1
			}
			return 1
		}
	}
	switch {
	case len(a) < len(b):
		return -1
	case len(a) > len(b):
		return 1
	default:
		return 0
	}
}

// Itemset is a sorted set of items with its group-support count.
type Itemset struct {
	Items []Item
	Count int
}

// SimpleInput is the encoded input for the simple core processing: one
// item list per group (from CodedSource), plus the paper's :totg.
type SimpleInput struct {
	// Groups holds each group's distinct items, sorted ascending.
	Groups [][]Item
	// TotalGroups is the support denominator (Q1's count over the whole
	// Source; it may exceed len(Groups) when a group HAVING filtered).
	TotalGroups int
}

// NewSimpleInputFromPairs builds the input from parallel (gid, item)
// slices — the shape the kernel reads straight out of the CodedSource
// snapshot — without the intermediate per-gid map of NewSimpleInput.
//
// The gids must lie in a dense range: the pass allocates one counter per
// value between the smallest and the largest gid. Sequence-minted gids
// (the kernel's 1..totg) qualify; a gid absent from the pairs yields no
// group. One counting pass buckets the items by gid into a shared
// backing array, then each group's few items are sorted and deduplicated
// in place. Groups come out in gid order; the arguments are not
// modified.
func NewSimpleInputFromPairs(gids []int64, items []Item, totalGroups int) *SimpleInput {
	var lo, hi int64
	if len(gids) > 0 {
		lo, hi = slices.Min(gids), slices.Max(gids)
	}
	// end[b+1] counts gid lo+b; the prefix sum turns end[b] into bucket
	// b's start, and the fill advances it to bucket b's end.
	end := make([]int, hi-lo+2)
	for _, g := range gids {
		end[g-lo+1]++
	}
	for b := 1; b < len(end); b++ {
		end[b] += end[b-1]
	}
	backing := make([]Item, len(gids))
	for i, g := range gids {
		b := g - lo
		backing[end[b]] = items[i]
		end[b]++
	}
	in := &SimpleInput{TotalGroups: totalGroups, Groups: make([][]Item, 0, len(end)-1)}
	start := 0
	for _, e := range end[:len(end)-1] {
		if e > start {
			tx := backing[start:e]
			slices.Sort(tx)
			tx = slices.Compact(tx)
			in.Groups = append(in.Groups, tx[:len(tx):len(tx)])
		}
		start = e
	}
	return in
}

// NewSimpleInput normalizes raw (gid → items) data: items are
// deduplicated and sorted, groups orderd by gid for determinism.
func NewSimpleInput(byGroup map[int64][]Item, totalGroups int) *SimpleInput {
	gids := make([]int64, 0, len(byGroup))
	for g := range byGroup {
		gids = append(gids, g)
	}
	sort.Slice(gids, func(i, j int) bool { return gids[i] < gids[j] })
	in := &SimpleInput{TotalGroups: totalGroups, Groups: make([][]Item, 0, len(gids))}
	for _, g := range gids {
		in.Groups = append(in.Groups, normalizeItems(byGroup[g]))
	}
	return in
}

func normalizeItems(items []Item) []Item {
	sort.Slice(items, func(i, j int) bool { return items[i] < items[j] })
	out := items[:0]
	var prev Item = -1 << 62
	for _, it := range items {
		if it != prev {
			out = append(out, it)
			prev = it
		}
	}
	return out
}

// key packs an itemset into a map key.
func key(items []Item) string {
	var b strings.Builder
	for i, it := range items {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(strconv.FormatInt(int64(it), 10))
	}
	return b.String()
}

// ItemsetMiner is one algorithm of the pool. LargeItemsets returns every
// itemset (all cardinalities) whose group count is at least minCount.
type ItemsetMiner interface {
	// Name identifies the algorithm for directives and reporting.
	Name() string
	// LargeItemsets mines in; the result is sorted canonically. A nil
	// bud is unbounded; when it trips the partial result so far is
	// returned and the trip reason is available from bud.Err.
	LargeItemsets(in *SimpleInput, minCount int, bud *Budget) []Itemset
}

// sortItemsets orders itemsets canonically (by size then lexicographic).
func sortItemsets(sets []Itemset) {
	sort.Slice(sets, func(i, j int) bool {
		if len(sets[i].Items) != len(sets[j].Items) {
			return len(sets[i].Items) < len(sets[j].Items)
		}
		return compareItems(sets[i].Items, sets[j].Items) < 0
	})
}
