package mining

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// txInput builds a SimpleInput from literal transactions.
func txInput(txs ...[]Item) *SimpleInput {
	byGroup := make(map[int64][]Item, len(txs))
	for i, tx := range txs {
		byGroup[int64(i+1)] = tx
	}
	return NewSimpleInput(byGroup, len(txs))
}

// classicInput is the canonical 4-transaction example from Agrawal &
// Srikant: {1,3,4}, {2,3,5}, {1,2,3,5}, {2,5}.
func classicInput() *SimpleInput {
	return txInput(
		[]Item{1, 3, 4},
		[]Item{2, 3, 5},
		[]Item{1, 2, 3, 5},
		[]Item{2, 5},
	)
}

func setCounts(sets []Itemset) map[string]int {
	out := make(map[string]int, len(sets))
	for _, s := range sets {
		out[key(s.Items)] = s.Count
	}
	return out
}

// uniqueSets fails the test when an algorithm reports an itemset twice
// (a map-based comparison alone would hide that).
func uniqueSets(t *testing.T, name string, sets []Itemset) map[string]int {
	t.Helper()
	out := setCounts(sets)
	if len(out) != len(sets) {
		t.Errorf("%s: %d itemsets but only %d distinct", name, len(sets), len(out))
	}
	return out
}

func TestAprioriClassic(t *testing.T) {
	sets := Apriori{}.LargeItemsets(classicInput(), 2, nil)
	got := setCounts(sets)
	want := map[string]int{
		"1": 2, "2": 3, "3": 3, "5": 3,
		"1,3": 2, "2,3": 2, "2,5": 3, "3,5": 2,
		"2,3,5": 2,
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("got %v\nwant %v", got, want)
	}
}

func TestPoolAlgorithmsAgree(t *testing.T) {
	// All pool members must compute identical large-itemset collections;
	// this is the paper's algorithm-interoperability claim made testable.
	rng := rand.New(rand.NewSource(7))
	var txs [][]Item
	for g := 0; g < 120; g++ {
		n := 2 + rng.Intn(8)
		tx := make([]Item, n)
		for i := range tx {
			tx[i] = Item(rng.Intn(25))
		}
		txs = append(txs, tx)
	}
	in := txInput(txs...)
	miners := []ItemsetMiner{Apriori{}, Bitmap{}}
	for _, minCount := range []int{2, 5, 12, 30} {
		ref := uniqueSets(t, miners[0].Name(), miners[0].LargeItemsets(in, minCount, nil))
		for _, m := range miners[1:] {
			got := uniqueSets(t, m.Name(), m.LargeItemsets(in, minCount, nil))
			if !reflect.DeepEqual(got, ref) {
				t.Errorf("minCount=%d: %s disagrees with apriori: %d vs %d sets",
					minCount, m.Name(), len(got), len(ref))
			}
		}
	}
}

func TestPoolAgreementProperty(t *testing.T) {
	// Property: for random small inputs, bitmap matches the reference
	// algorithm exactly.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var txs [][]Item
		for g := 0; g < 20+rng.Intn(30); g++ {
			n := 1 + rng.Intn(6)
			tx := make([]Item, n)
			for i := range tx {
				tx[i] = Item(rng.Intn(12))
			}
			txs = append(txs, tx)
		}
		in := txInput(txs...)
		minCount := 1 + rng.Intn(6)
		ref := setCounts(Apriori{}.LargeItemsets(in, minCount, nil))
		return reflect.DeepEqual(ref, setCounts(Bitmap{}.LargeItemsets(in, minCount, nil)))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestGenerateRulesClassic(t *testing.T) {
	in := classicInput()
	sets := Apriori{}.LargeItemsets(in, 2, nil)
	rules := GenerateRules(sets, Options{
		MinSupport:    0.5,
		MinConfidence: 0.9,
		BodyCard:      Card{Min: 1},
		HeadCard:      Card{Min: 1, Max: 1},
	}, in.TotalGroups)
	// Expected confident rules at s>=0.5, c>=0.9, |head|=1:
	// {2}=>{5} (3/3), {5}=>{2} (3/3), {1}=>{3} (2/2),
	// {2,3}=>{5} (2/2), {3,5}=>{2} (2/2).
	want := map[string]bool{
		"{2} => {5}": true, "{5} => {2}": true, "{1} => {3}": true,
		"{2,3} => {5}": true, "{3,5} => {2}": true,
	}
	if len(rules) != len(want) {
		t.Fatalf("got %d rules: %v", len(rules), rules)
	}
	for _, r := range rules {
		k := itemsString(r.Body) + " => " + itemsString(r.Head)
		if !want[k] {
			t.Errorf("unexpected rule %s", r)
		}
		if r.Confidence < 0.9 {
			t.Errorf("rule %s below confidence", r)
		}
	}
}

func TestCardinalityBounds(t *testing.T) {
	in := classicInput()
	sets := Apriori{}.LargeItemsets(in, 2, nil)
	// Bodies of exactly 2, heads of exactly 1.
	rules := GenerateRules(sets, Options{
		MinSupport: 0.5, MinConfidence: 0,
		BodyCard: Card{Min: 2, Max: 2},
		HeadCard: Card{Min: 1, Max: 1},
	}, in.TotalGroups)
	for _, r := range rules {
		if len(r.Body) != 2 || len(r.Head) != 1 {
			t.Errorf("rule %s violates cardinality bounds", r)
		}
	}
	if len(rules) != 3 { // the three splits of {2,3,5} with 2-item bodies
		t.Errorf("got %d rules: %v", len(rules), rules)
	}
}

func TestMinCount(t *testing.T) {
	cases := []struct {
		s    float64
		totg int
		want int
	}{
		{0.2, 2, 1},
		{0.5, 4, 2},
		{0.5, 5, 3},
		{0, 100, 1},
		{1, 7, 7},
		{0.01, 1000, 10},
	}
	for _, c := range cases {
		if got := MinCount(c.s, c.totg); got != c.want {
			t.Errorf("MinCount(%g, %d) = %d, want %d", c.s, c.totg, got, c.want)
		}
	}
}

// paperGeneralInput encodes the paper's Figure 2.a state: groups cust1
// (gid 1) and cust2 (gid 2), clusters by date, items encoded as
// 1=ski_pants 2=hiking_boots 3=jackets 4=col_shirts 5=brown_boots.
// The mining condition (body price >= 100, head price < 100) and the
// cluster condition (body date < head date) have already produced the
// elementary rules, as the preprocessor would.
func paperGeneralInput() *GeneralInput {
	return &GeneralInput{
		TotalGroups: 2,
		SameAttr:    true,
		PairPolicy:  ExplicitPairs,
		Groups: []GroupData{
			{
				Gid: 1,
				BodyClusters: map[int64][]Item{
					17: {1, 2}, // 12/17: ski_pants, hiking_boots
					18: {3},    // 12/18: jackets
				},
				HeadClusters: map[int64][]Item{17: {1, 2}, 18: {3}},
				Couples:      [][2]int64{{17, 18}},
			},
			{
				Gid: 2,
				BodyClusters: map[int64][]Item{
					18: {3, 4, 5}, // col_shirts, brown_boots, jackets
					19: {3, 4},
				},
				HeadClusters: map[int64][]Item{18: {3, 4, 5}, 19: {3, 4}},
				Couples:      [][2]int64{{18, 19}},
			},
		},
		// Elementary rules after the mining condition: only
		// brown_boots(5)→col_shirts(4) and jackets(3)→col_shirts(4) in
		// cust2's (18, 19) pair.
		Elementary: []ElemOcc{
			{Body: 5, Head: 4, Ctx: Ctx{G: 2, BC: 18, HC: 19}},
			{Body: 3, Head: 4, Ctx: Ctx{G: 2, BC: 18, HC: 19}},
		},
	}
}

func TestGeneralPaperExample(t *testing.T) {
	rules := MineGeneral(paperGeneralInput(), Options{
		MinSupport:    0.2,
		MinConfidence: 0.3,
		BodyCard:      Card{Min: 1},
		HeadCard:      Card{Min: 1},
	})
	// Figure 2.b: exactly three rules.
	type expect struct {
		s, c float64
	}
	want := map[string]expect{
		"{5} => {4}":   {0.5, 1},   // {brown_boots} => {col_shirts}
		"{3} => {4}":   {0.5, 0.5}, // {jackets} => {col_shirts}
		"{3,5} => {4}": {0.5, 1},   // {brown_boots, jackets} => {col_shirts}
	}
	if len(rules) != len(want) {
		t.Fatalf("got %d rules: %v", len(rules), rules)
	}
	for _, r := range rules {
		k := itemsString(r.Body) + " => " + itemsString(r.Head)
		w, ok := want[k]
		if !ok {
			t.Errorf("unexpected rule %s", r)
			continue
		}
		if r.Support != w.s || r.Confidence != w.c {
			t.Errorf("rule %s: s=%g c=%g, want s=%g c=%g", k, r.Support, r.Confidence, w.s, w.c)
		}
	}
}

func TestGeneralDerivesElementaryWithoutPreprocessor(t *testing.T) {
	// Same data but without the preprocessor's elementary rules and
	// without a mining condition: the core streams the cluster-pair
	// cartesian product itself. All pairs (b,h) in the valid couples.
	in := paperGeneralInput()
	in.Elementary = nil
	rules := MineGeneral(in, Options{
		MinSupport:    0.5,
		MinConfidence: 0,
		BodyCard:      Card{Min: 1, Max: 1},
		HeadCard:      Card{Min: 1, Max: 1},
	})
	// cust1's couple (17,18): bodies {1,2} heads {3};
	// cust2's couple (18,19): bodies {3,4,5} heads {3,4}.
	// At support 0.5 (1 group), elementary rules (b≠h):
	// 1→3, 2→3, 3→4, 4→3, 5→3, 5→4.
	want := map[string]bool{
		"{1} => {3}": true, "{2} => {3}": true, "{3} => {4}": true,
		"{4} => {3}": true, "{5} => {3}": true, "{5} => {4}": true,
	}
	if len(rules) != len(want) {
		t.Fatalf("got %d rules: %v", len(rules), rules)
	}
	for _, r := range rules {
		k := itemsString(r.Body) + " => " + itemsString(r.Head)
		if !want[k] {
			t.Errorf("unexpected rule %s", r)
		}
	}
}

func TestGeneralMatchesSimpleOnPlainStatements(t *testing.T) {
	// On a statement with no clusters and no mining condition, the
	// general algorithm must reproduce the simple one exactly (Figure
	// 3.b's two classes share semantics on the intersection).
	rng := rand.New(rand.NewSource(11))
	byGroup := make(map[int64][]Item)
	var groups []GroupData
	for g := int64(1); g <= 60; g++ {
		n := 1 + rng.Intn(7)
		items := make([]Item, n)
		for i := range items {
			items[i] = Item(rng.Intn(15))
		}
		items = normalizeItems(items)
		byGroup[g] = items
		groups = append(groups, GroupData{
			Gid:          g,
			BodyClusters: map[int64][]Item{0: items},
			HeadClusters: map[int64][]Item{0: items},
		})
	}
	opts := Options{
		MinSupport:    0.08,
		MinConfidence: 0.4,
		BodyCard:      Card{Min: 1},
		HeadCard:      Card{Min: 1, Max: 2},
	}
	simple := MineSimple(Apriori{}, NewSimpleInput(byGroup, len(byGroup)), opts)
	general := MineGeneral(&GeneralInput{
		TotalGroups: len(byGroup),
		Groups:      groups,
		PairPolicy:  SelfPairs,
		SameAttr:    true,
	}, opts)

	toMap := func(rules []Rule) map[string][2]float64 {
		out := make(map[string][2]float64, len(rules))
		for _, r := range rules {
			out[itemsString(r.Body)+"=>"+itemsString(r.Head)] = [2]float64{r.Support, r.Confidence}
		}
		return out
	}
	sm, gm := toMap(simple), toMap(general)
	if len(sm) == 0 {
		t.Fatal("test vacuous: no rules found")
	}
	if !reflect.DeepEqual(sm, gm) {
		for k, v := range sm {
			if gv, ok := gm[k]; !ok || gv != v {
				t.Errorf("simple has %s %v, general has %v (ok=%v)", k, v, gv, ok)
			}
		}
		for k := range gm {
			if _, ok := sm[k]; !ok {
				t.Errorf("general-only rule %s", k)
			}
		}
	}
}

func TestGeneralHeterogeneousSchemas(t *testing.T) {
	// H true: body items and head items come from different encodings;
	// identical ids on the two sides are distinct objects and must
	// combine freely (SameAttr=false).
	in := &GeneralInput{
		TotalGroups: 2,
		SameAttr:    false,
		PairPolicy:  SelfPairs,
		Groups: []GroupData{
			{Gid: 1,
				BodyClusters: map[int64][]Item{0: {1, 2}},
				HeadClusters: map[int64][]Item{0: {1}}},
			{Gid: 2,
				BodyClusters: map[int64][]Item{0: {1}},
				HeadClusters: map[int64][]Item{0: {1}}},
		},
	}
	rules := MineGeneral(in, Options{
		MinSupport: 0.5, MinConfidence: 0,
		BodyCard: Card{Min: 1}, HeadCard: Card{Min: 1},
	})
	// Body item 1 with head item 1 must appear (different attribute
	// spaces), support 2/2.
	found := false
	for _, r := range rules {
		if len(r.Body) == 1 && r.Body[0] == 1 && len(r.Head) == 1 && r.Head[0] == 1 {
			found = true
			if r.Support != 1.0 {
				t.Errorf("support = %g, want 1", r.Support)
			}
		}
	}
	if !found {
		t.Fatalf("body-1 => head-1 missing; got %v", rules)
	}
}

func TestGeneralConfidenceRequiresBodyInOneCluster(t *testing.T) {
	// Body {1,2} occurs split across two clusters in group 1 and
	// together in group 2: BodyCount must be 1, not 2.
	in := &GeneralInput{
		TotalGroups: 2,
		SameAttr:    true,
		PairPolicy:  AllPairs,
		Groups: []GroupData{
			{Gid: 1,
				BodyClusters: map[int64][]Item{10: {1}, 11: {2}},
				HeadClusters: map[int64][]Item{10: {1}, 11: {2}}},
			{Gid: 2,
				BodyClusters: map[int64][]Item{20: {1, 2}, 21: {9}},
				HeadClusters: map[int64][]Item{20: {1, 2}, 21: {9}}},
		},
	}
	rules := MineGeneral(in, Options{
		MinSupport: 0.4, MinConfidence: 0,
		BodyCard: Card{Min: 2, Max: 2}, HeadCard: Card{Min: 1, Max: 1},
	})
	for _, r := range rules {
		if itemsString(r.Body) == "{1,2}" && itemsString(r.Head) == "{9}" {
			if r.BodyCount != 1 {
				t.Errorf("BodyCount = %d, want 1 (%v)", r.BodyCount, r)
			}
			if r.Confidence != 1 {
				t.Errorf("Confidence = %g, want 1", r.Confidence)
			}
			return
		}
	}
	t.Fatalf("{1,2} => {9} missing; got %v", rules)
}

func TestNormalizeItems(t *testing.T) {
	got := normalizeItems([]Item{5, 3, 5, 1, 3})
	if !reflect.DeepEqual(got, []Item{1, 3, 5}) {
		t.Fatalf("got %v", got)
	}
}

func TestContainsAll(t *testing.T) {
	tx := []Item{1, 3, 5, 9}
	cases := []struct {
		items []Item
		want  bool
	}{
		{[]Item{1}, true},
		{[]Item{1, 9}, true},
		{[]Item{3, 5, 9}, true},
		{[]Item{2}, false},
		{[]Item{1, 4}, false},
		{nil, true},
	}
	for _, c := range cases {
		if got := containsAll(tx, c.items); got != c.want {
			t.Errorf("containsAll(%v) = %v", c.items, got)
		}
	}
}

func TestSortRulesDeterminism(t *testing.T) {
	rules := []Rule{
		{Body: []Item{2}, Head: []Item{1}},
		{Body: []Item{1, 2}, Head: []Item{3}},
		{Body: []Item{1}, Head: []Item{3}},
		{Body: []Item{1}, Head: []Item{2}},
	}
	SortRules(rules)
	order := make([]string, len(rules))
	for i, r := range rules {
		order[i] = itemsString(r.Body) + "=>" + itemsString(r.Head)
	}
	want := []string{"{1}=>{2}", "{1}=>{3}", "{1,2}=>{3}", "{2}=>{1}"}
	if !reflect.DeepEqual(order, want) {
		t.Fatalf("order = %v", order)
	}
}

func TestIntersect32(t *testing.T) {
	got := intersect32([]int32{1, 3, 5, 7}, []int32{2, 3, 7, 9})
	if !reflect.DeepEqual(got, []int32{3, 7}) {
		t.Fatalf("got %v", got)
	}
	if len(intersect32(nil, []int32{1})) != 0 {
		t.Fatal("nil intersection")
	}
}

// TestSimpleInputFromPairsMatchesMap: the counting-pass hand-off builds
// exactly the groups of the map-based constructor on shuffled pairs with
// duplicate items, gids absent from the range, and ranges starting at 0
// and at 1 — and leaves its arguments untouched.
func TestSimpleInputFromPairsMatchesMap(t *testing.T) {
	for seed := int64(1); seed <= 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		base := int64(seed % 2)
		span := 1 + rng.Intn(80)
		byGroup := make(map[int64][]Item)
		var gids []int64
		var items []Item
		for g := base; g < base+int64(span); g++ {
			if rng.Intn(4) == 0 {
				continue // absent gid
			}
			for n := 1 + rng.Intn(12); n > 0; n-- {
				it := Item(rng.Intn(25)) // small alphabet: duplicates within a group
				byGroup[g] = append(byGroup[g], it)
				gids, items = append(gids, g), append(items, it)
			}
		}
		rng.Shuffle(len(gids), func(i, j int) {
			gids[i], gids[j] = gids[j], gids[i]
			items[i], items[j] = items[j], items[i]
		})
		gidsIn, itemsIn := append([]int64(nil), gids...), append([]Item(nil), items...)

		got := NewSimpleInputFromPairs(gids, items, span)
		want := NewSimpleInput(byGroup, span)
		if got.TotalGroups != want.TotalGroups || !reflect.DeepEqual(got.Groups, want.Groups) {
			t.Fatalf("seed %d: groups differ\n got %v\nwant %v", seed, got.Groups, want.Groups)
		}
		if !reflect.DeepEqual(gids, gidsIn) || !reflect.DeepEqual(items, itemsIn) {
			t.Fatalf("seed %d: arguments modified", seed)
		}
	}
}
