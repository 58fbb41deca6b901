package mining

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

// ruleKey identifies a rule by its itemsets.
func ruleKey(r Rule) string { return itemsString(r.Body) + ">" + itemsString(r.Head) }

// TestSupportMonotonicityProperty: raising the support threshold must
// produce a subset of the rules (with identical measures on the
// intersection).
func TestSupportMonotonicityProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		byGroup := make(map[int64][]Item)
		for g := int64(1); g <= 40; g++ {
			n := 1 + rng.Intn(6)
			items := make([]Item, n)
			for i := range items {
				items[i] = Item(rng.Intn(10))
			}
			byGroup[g] = items
		}
		in := NewSimpleInput(byGroup, len(byGroup))
		lo := MineSimple(Apriori{}, in, Options{
			MinSupport: 0.1, MinConfidence: 0.2,
			BodyCard: Card{Min: 1}, HeadCard: Card{Min: 1, Max: 1},
		})
		hi := MineSimple(Apriori{}, in, Options{
			MinSupport: 0.3, MinConfidence: 0.2,
			BodyCard: Card{Min: 1}, HeadCard: Card{Min: 1, Max: 1},
		})
		loSet := make(map[string]Rule, len(lo))
		for _, r := range lo {
			loSet[ruleKey(r)] = r
		}
		for _, r := range hi {
			lr, ok := loSet[ruleKey(r)]
			if !ok {
				return false // a high-threshold rule missing at low threshold
			}
			if lr.Support != r.Support || lr.Confidence != r.Confidence {
				return false // measures must not depend on the threshold
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// TestConfidenceMonotonicityProperty: raising the confidence threshold
// filters the same rule set.
func TestConfidenceMonotonicityProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		byGroup := make(map[int64][]Item)
		for g := int64(1); g <= 30; g++ {
			n := 1 + rng.Intn(5)
			items := make([]Item, n)
			for i := range items {
				items[i] = Item(rng.Intn(8))
			}
			byGroup[g] = items
		}
		in := NewSimpleInput(byGroup, len(byGroup))
		base := Options{MinSupport: 0.1, BodyCard: Card{Min: 1}, HeadCard: Card{Min: 1, Max: 1}}
		lo, hi := base, base
		lo.MinConfidence, hi.MinConfidence = 0.2, 0.7
		loRules := MineSimple(Apriori{}, in, lo)
		hiRules := MineSimple(Apriori{}, in, hi)
		loSet := make(map[string]bool, len(loRules))
		for _, r := range loRules {
			loSet[ruleKey(r)] = true
		}
		for _, r := range hiRules {
			if r.Confidence < 0.7 {
				return false
			}
			if !loSet[ruleKey(r)] {
				return false
			}
		}
		// Counting check: hi = lo filtered at 0.7.
		kept := 0
		for _, r := range loRules {
			if r.Confidence >= 0.7 {
				kept++
			}
		}
		return kept == len(hiRules)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// TestRuleMeasuresConsistencyProperty: for every emitted rule,
// support = SupportCount/totg, confidence = SupportCount/BodyCount, and
// confidence ≥ support when the denominator counts are consistent.
func TestRuleMeasuresConsistencyProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		byGroup := make(map[int64][]Item)
		for g := int64(1); g <= 25; g++ {
			n := 1 + rng.Intn(6)
			items := make([]Item, n)
			for i := range items {
				items[i] = Item(rng.Intn(9))
			}
			byGroup[g] = items
		}
		in := NewSimpleInput(byGroup, len(byGroup))
		rules := MineSimple(Apriori{}, in, Options{
			MinSupport: 0.05, MinConfidence: 0,
			BodyCard: Card{Min: 1}, HeadCard: Card{Min: 1, Max: 2},
		})
		for _, r := range rules {
			if r.Support != float64(r.SupportCount)/float64(in.TotalGroups) {
				return false
			}
			if r.Confidence != float64(r.SupportCount)/float64(r.BodyCount) {
				return false
			}
			if r.SupportCount > r.BodyCount {
				return false // body occurs at least wherever the rule does
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// TestGeneralLatticeMonotonicityProperty: in the general core, every
// emitted (B,H) rule's sub-rules (prefix subsets along the canonical
// path) would also satisfy the support threshold — checked indirectly:
// mining at a lower threshold yields a superset.
func TestGeneralLatticeMonotonicityProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var groups []GroupData
		for g := int64(1); g <= 20; g++ {
			nclusters := 1 + rng.Intn(3)
			bc := make(map[int64][]Item)
			for c := int64(0); c < int64(nclusters); c++ {
				n := 1 + rng.Intn(4)
				items := make([]Item, n)
				for i := range items {
					items[i] = Item(rng.Intn(7))
				}
				bc[c] = normalizeItems(items)
			}
			groups = append(groups, GroupData{Gid: g, BodyClusters: bc, HeadClusters: bc})
		}
		mk := func(s float64) []Rule {
			return MineGeneral(&GeneralInput{
				TotalGroups: len(groups),
				Groups:      groups,
				PairPolicy:  AllPairs,
				SameAttr:    true,
			}, Options{MinSupport: s, MinConfidence: 0,
				BodyCard: Card{Min: 1, Max: 2}, HeadCard: Card{Min: 1, Max: 1}})
		}
		lo := mk(0.1)
		hi := mk(0.4)
		loSet := make(map[string]bool, len(lo))
		for _, r := range lo {
			loSet[ruleKey(r)] = true
		}
		for _, r := range hi {
			if !loSet[ruleKey(r)] {
				return false
			}
		}
		return len(hi) <= len(lo)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// TestMineGeneralMatchesEnumerator holds the rule-lattice descent to a
// brute-force reading of its contract on random inputs: every pair
// policy, one and two item schemas, and elementary rules either given
// (a mining condition's survivors, with repeats) or derived from the
// clusters.
func TestMineGeneralMatchesEnumerator(t *testing.T) {
	bodyCards := []Card{{Min: 1, Max: 3}, {Min: 1}, {Min: 2, Max: 2}, {Min: 1, Max: 1}}
	headCards := []Card{{Min: 1, Max: 2}, {Min: 1, Max: 1}, {Min: 2, Max: 2}}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		in := &GeneralInput{
			TotalGroups: 25 + rng.Intn(3), // groups without items still count
			PairPolicy:  PairPolicy(rng.Intn(3)),
			SameAttr:    rng.Intn(2) == 0,
		}
		items := func(n, domain int) []Item {
			out := make([]Item, 1+rng.Intn(n))
			for i := range out {
				out[i] = Item(rng.Intn(domain))
			}
			return normalizeItems(out)
		}
		for g := int64(1); g <= 25; g++ {
			gd := GroupData{Gid: g, BodyClusters: make(map[int64][]Item)}
			gd.HeadClusters = gd.BodyClusters
			if !in.SameAttr {
				gd.HeadClusters = make(map[int64][]Item)
			}
			nclusters := 1 + rng.Intn(3)
			if in.PairPolicy == SelfPairs {
				nclusters = 1
			}
			for c := int64(0); c < int64(nclusters); c++ {
				gd.BodyClusters[c] = items(5, 8)
				if !in.SameAttr {
					gd.HeadClusters[c] = items(4, 6)
				}
			}
			if in.PairPolicy == ExplicitPairs {
				for b := int64(0); b < int64(nclusters); b++ {
					for h := int64(0); h < int64(nclusters); h++ {
						if rng.Intn(2) == 0 {
							gd.Couples = append(gd.Couples, [2]int64{b, h})
						}
					}
				}
			}
			in.Groups = append(in.Groups, gd)
		}
		if rng.Intn(3) == 0 {
			// A mining condition: a random subset of the pairs, each
			// survivor possibly repeated, as Q8's rows arrive.
			in.Elementary = []ElemOcc{}
			for _, e := range cartesianElementary(in) {
				for rng.Intn(3) > 0 {
					in.Elementary = append(in.Elementary, e)
				}
			}
		}
		opts := Options{
			MinSupport:    []float64{0.08, 0.12, 0.2}[rng.Intn(3)],
			MinConfidence: []float64{0, 0.1, 0.5}[rng.Intn(3)],
			BodyCard:      bodyCards[rng.Intn(len(bodyCards))],
			HeadCard:      headCards[rng.Intn(len(headCards))],
		}
		got, want := ruleLines(MineGeneral(in, opts)), ruleLines(enumerateGeneral(in, opts))
		if strings.Join(got, "\n") != strings.Join(want, "\n") {
			t.Logf("seed %d (policy %d, same attr %v, elementary %v, %+v):\n got %v\nwant %v",
				seed, in.PairPolicy, in.SameAttr, in.Elementary != nil, opts, got, want)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// TestLatticeStrategiesAgreeOnPaperExample pins the rule-lattice descent
// and the brute-force enumerator to each other on Figure 2.b, with the
// mining condition's elementary rules and with them derived from the
// clusters.
func TestLatticeStrategiesAgreeOnPaperExample(t *testing.T) {
	opts := Options{
		MinSupport: 0.2, MinConfidence: 0.3,
		BodyCard: Card{Min: 1}, HeadCard: Card{Min: 1},
	}
	for _, condition := range []bool{true, false} {
		in := paperGeneralInput()
		if !condition {
			in.Elementary = nil
		}
		got, want := ruleLines(MineGeneral(in, opts)), ruleLines(enumerateGeneral(in, opts))
		if strings.Join(got, "\n") != strings.Join(want, "\n") {
			t.Errorf("mining condition %v:\n got %v\nwant %v", condition, got, want)
		}
		if condition && len(got) != 3 {
			t.Errorf("mining condition: %d rules, want 3", len(got))
		}
	}
}

// ruleLines renders rules with every measure, sorted.
func ruleLines(rules []Rule) []string {
	out := make([]string, len(rules))
	for i, r := range rules {
		out[i] = fmt.Sprintf("%s %d/%d", r, r.SupportCount, r.BodyCount)
	}
	sort.Strings(out)
	return out
}

// cartesianElementary lists every elementary rule occurrence of in: each
// body item of a valid pair's body cluster with each head item of its
// head cluster (distinct items under one schema).
func cartesianElementary(in *GeneralInput) []ElemOcc {
	var out []ElemOcc
	for _, g := range in.Groups {
		var pairs [][2]int64
		switch in.PairPolicy {
		case SelfPairs:
			pairs = [][2]int64{{0, 0}}
		case AllPairs:
			for b := range g.BodyClusters {
				for h := range g.HeadClusters {
					pairs = append(pairs, [2]int64{b, h})
				}
			}
		case ExplicitPairs:
			pairs = g.Couples
		}
		for _, p := range pairs {
			for _, b := range g.BodyClusters[p[0]] {
				for _, h := range g.HeadClusters[p[1]] {
					if !in.SameAttr || b != h {
						out = append(out, ElemOcc{Body: b, Head: h, Ctx: Ctx{G: g.Gid, BC: p[0], HC: p[1]}})
					}
				}
			}
		}
	}
	return out
}

// enumerateGeneral is the brute-force reference for MineGeneral. In
// every context (group, body cluster, head cluster) it tries every body
// and head subset within the card bounds, over the items of that
// context's elementary rules, and keeps those whose whole B×H is
// elementary there. A rule's support counts the groups with such a
// context; its confidence divides by the groups where one body cluster
// holds all of B.
func enumerateGeneral(in *GeneralInput, opts Options) []Rule {
	occ := in.Elementary
	if occ == nil {
		occ = cartesianElementary(in)
	}
	elem := make(map[Ctx]map[[2]Item]bool)
	for _, e := range occ {
		if elem[e.Ctx] == nil {
			elem[e.Ctx] = make(map[[2]Item]bool)
		}
		elem[e.Ctx][[2]Item{e.Body, e.Head}] = true
	}
	type rule struct{ body, head []Item }
	rules := make(map[string]rule)
	groups := make(map[string]map[int64]bool) // rule → groups where it holds
	for ctx, pairs := range elem {
		var bodies, heads []Item
		for p := range pairs {
			bodies = append(bodies, p[0])
			heads = append(heads, p[1])
		}
		bodies, heads = normalizeItems(bodies), normalizeItems(heads)
		for _, b := range subsets(bodies, opts.BodyCard) {
		nextHead:
			for _, h := range subsets(heads, opts.HeadCard) {
				for _, x := range b {
					for _, y := range h {
						if !pairs[[2]Item{x, y}] {
							continue nextHead
						}
					}
				}
				k := itemsString(b) + itemsString(h)
				rules[k] = rule{b, h}
				if groups[k] == nil {
					groups[k] = make(map[int64]bool)
				}
				groups[k][ctx.G] = true
			}
		}
	}
	var out []Rule
	for k, r := range rules {
		count := len(groups[k])
		if float64(count)/float64(in.TotalGroups) < opts.MinSupport {
			continue
		}
		bodyCount := 0
		for _, g := range in.Groups {
			for _, items := range g.BodyClusters {
				if containsAll(items, r.body) {
					bodyCount++
					break
				}
			}
		}
		conf := float64(count) / float64(bodyCount)
		if conf < opts.MinConfidence {
			continue
		}
		out = append(out, Rule{Body: r.body, Head: r.head, SupportCount: count, BodyCount: bodyCount,
			Support: float64(count) / float64(in.TotalGroups), Confidence: conf})
	}
	return out
}

// subsets lists the non-empty subsets of the sorted items whose size c
// admits, each sorted.
func subsets(items []Item, c Card) [][]Item {
	var out [][]Item
	for mask := 1; mask < 1<<len(items); mask++ {
		var s []Item
		for i, it := range items {
			if mask&(1<<i) != 0 {
				s = append(s, it)
			}
		}
		if c.contains(len(s)) {
			out = append(out, s)
		}
	}
	return out
}

// containsAll reports whether the sorted transaction tx contains every
// element of the sorted candidate items.
func containsAll(tx, items []Item) bool {
	i := 0
	for _, t := range tx {
		if i == len(items) {
			return true
		}
		switch {
		case t == items[i]:
			i++
		case t > items[i]:
			return false
		}
	}
	return i == len(items)
}
