package mining

// GenerateRules builds association rules from large itemsets (§4.3.1):
// for every large itemset L and subset H ⊂ L, the rule (L−H) ⇒ H is
// emitted when it satisfies the confidence threshold and the cardinality
// specifications. Support of a rule is the support of L; confidence
// divides by the support of the body, which is available because every
// subset of a large itemset is large.
func GenerateRules(itemsets []Itemset, opts Options, totalGroups int) []Rule {
	supp := make(map[string]int, len(itemsets))
	for _, s := range itemsets {
		supp[key(s.Items)] = s.Count
	}
	minCount := MinCount(opts.MinSupport, totalGroups)

	var rules []Rule
	body := make([]Item, 0, 16)
	head := make([]Item, 0, 16)
	for _, s := range itemsets {
		if opts.Budget.Stop() {
			break
		}
		l := s.Items
		if len(l) < 2 || s.Count < minCount {
			continue
		}
		if len(l)-maxBound(opts.BodyCard) > maxBound(opts.HeadCard) {
			// No split fits both bounds; skip the subset enumeration.
			continue
		}
		// Enumerate head subsets by bitmask; itemsets beyond 20 items
		// are split via the bounded enumeration below.
		n := len(l)
		if n > 20 {
			continue // beyond any realistic large-itemset size at sane supports
		}
		for mask := 1; mask < (1<<n)-1; mask++ {
			body = body[:0]
			head = head[:0]
			for i := 0; i < n; i++ {
				if mask&(1<<i) != 0 {
					head = append(head, l[i])
				} else {
					body = append(body, l[i])
				}
			}
			if !opts.HeadCard.contains(len(head)) || !opts.BodyCard.contains(len(body)) {
				continue
			}
			bs, ok := supp[key(body)]
			if !ok || bs == 0 {
				continue
			}
			conf := float64(s.Count) / float64(bs)
			if conf < opts.MinConfidence {
				continue
			}
			rules = append(rules, Rule{
				Body:         append([]Item(nil), body...),
				Head:         append([]Item(nil), head...),
				SupportCount: s.Count,
				BodyCount:    bs,
				Support:      float64(s.Count) / float64(totalGroups),
				Confidence:   conf,
			})
		}
	}
	SortRules(rules)
	return rules
}

func maxBound(c Card) int {
	if c.Max == 0 {
		return 1 << 30
	}
	return c.Max
}

// MineSimple runs one pool algorithm end to end: large itemsets, then
// rule generation. When opts.Budget trips mid-run the partial rules are
// returned; the caller must consult opts.Budget.Err.
func MineSimple(m ItemsetMiner, in *SimpleInput, opts Options) []Rule {
	minCount := MinCount(opts.MinSupport, in.TotalGroups)
	sets := m.LargeItemsets(in, minCount, opts.Budget)
	return GenerateRules(sets, opts, in.TotalGroups)
}
