package exec

// plan.go is the cost-based FROM-list planner. After every FROM element
// has been scanned (and local predicates applied), planFromOrder picks
// the join order: table statistics supply per-key NDVs, the classic
// |A ⋈ B| ≈ |A|·|B| / max(ndv(a), ndv(b)) estimate scores each step,
// and a greedy chain from the smallest element wins — but is adopted
// only when it beats the written order by a clear margin, so a rough
// estimate never trades a good written order for a guess. Decisions
// are cached per statement and invalidated by catalog version or stats
// epoch.

import (
	"minerule/internal/sql/parse"
	"minerule/internal/sql/storage"
)

// fromElem is one scanned FROM-list element awaiting join planning.
type fromElem struct {
	rel *relation
	// tab is the owning base table when the relation is a full-table
	// scan; nil for derived tables, views, and index-narrowed scans.
	tab *storage.Table
	// stats is the table's statistics snapshot, fetched only when the
	// input is big enough for cost-based planning to matter.
	stats *storage.TableStats
}

// planRowsMin is the combined input size below which join planning (and
// the statistics fetches it needs) is skipped: on inputs this small the
// planning overhead outweighs any join-order win, so the written order
// stands. The same floor gates the index-path NDV check per table.
const planRowsMin = 2048

// fromPlan is one cached join-order decision.
type fromPlan struct {
	version uint64 // catalog version the order was planned under
	epoch   uint64 // stats epoch the order was planned under
	order   []int
}

// maxFromPlans bounds the per-runtime plan cache; statement caches are
// bounded upstream, this is a backstop against unbounded ad-hoc SQL.
const maxFromPlans = 256

// planFromOrder returns the order in which the FROM elements should
// join, as indices into elems. Two-element lists stay in written order
// (the hash join already builds on the smaller side).
func (rt *Runtime) planFromOrder(s *parse.Select, elems []fromElem, conjuncts []parse.Expr, used []bool) []int {
	n := len(elems)
	identity := make([]int, n)
	for i := range identity {
		identity[i] = i
	}
	if n < 3 {
		return identity
	}
	total := 0
	for _, e := range elems {
		total += len(e.rel.rows)
	}
	if total < planRowsMin {
		return identity
	}
	ver, epoch := rt.Txn.CatalogVersion(), rt.Txn.StatsEpoch()
	if p, ok := rt.fromPlans[s]; ok && p.version == ver && p.epoch == epoch {
		return p.order
	}
	order := costOrder(elems, conjuncts, used, identity)
	if rt.fromPlans == nil {
		rt.fromPlans = make(map[*parse.Select]fromPlan)
	} else if len(rt.fromPlans) >= maxFromPlans {
		rt.fromPlans = make(map[*parse.Select]fromPlan, maxFromPlans)
	}
	rt.fromPlans[s] = fromPlan{version: ver, epoch: epoch, order: order}
	return order
}

// joinEdge is one equi-join conjunct resolved to its two elements, with
// the per-side key NDVs (0 = unknown: no base-table statistics).
type joinEdge struct {
	a, b       int
	ndvA, ndvB float64
}

// costOrder scores a greedy small-first join chain against the written
// order and returns whichever is cheaper by a clear margin.
func costOrder(elems []fromElem, conjuncts []parse.Expr, used []bool, identity []int) []int {
	n := len(elems)
	edges := joinEdges(elems, conjuncts, used)
	if len(edges) == 0 {
		// All-cartesian FROM lists gain nothing from reordering.
		return identity
	}
	size := make([]float64, n)
	for i, e := range elems {
		size[i] = float64(len(e.rel.rows))
		if size[i] < 1 {
			size[i] = 1
		}
	}

	// stepEst estimates joining the current intermediate (cur rows, the
	// inSet elements) with element j; -1 when no edge connects them.
	stepEst := func(inSet []bool, cur float64, j int) float64 {
		est := cur * size[j]
		connected := false
		for _, e := range edges {
			if !((e.a == j && inSet[e.b]) || (e.b == j && inSet[e.a])) {
				continue
			}
			connected = true
			ndv := e.ndvA
			if e.ndvB > ndv {
				ndv = e.ndvB
			}
			if ndv <= 0 {
				// Unknown NDV: assume a key-foreign-key join (every
				// probe row matches about once).
				ndv = size[e.a]
				if size[e.b] > ndv {
					ndv = size[e.b]
				}
			}
			if ndv < 1 {
				ndv = 1
			}
			est /= ndv
		}
		if !connected {
			return -1
		}
		if est < 1 {
			est = 1
		}
		return est
	}

	// Greedy chain: start from the smallest element, then repeatedly
	// join the cheapest equi-connected element (cartesian only when
	// nothing connects). Cost is the sum of intermediate sizes — what
	// the executor must materialize and the next join must consume.
	start := 0
	for i := 1; i < n; i++ {
		if size[i] < size[start] {
			start = i
		}
	}
	inSet := make([]bool, n)
	inSet[start] = true
	order := make([]int, 1, n)
	order[0] = start
	cur := size[start]
	greedyCost := 0.0
	for len(order) < n {
		bestJ, bestEst, bestConn := -1, 0.0, false
		for j := 0; j < n; j++ {
			if inSet[j] {
				continue
			}
			est := stepEst(inSet, cur, j)
			conn := est >= 0
			if !conn {
				est = cur * size[j]
			}
			switch {
			case bestJ < 0,
				conn && !bestConn,
				conn == bestConn && est < bestEst:
				bestJ, bestEst, bestConn = j, est, conn
			}
		}
		inSet[bestJ] = true
		order = append(order, bestJ)
		greedyCost += bestEst
		cur = bestEst
	}

	// Written-order cost under the same model.
	for i := range inSet {
		inSet[i] = false
	}
	inSet[identity[0]] = true
	cur = size[identity[0]]
	identityCost := 0.0
	for _, j := range identity[1:] {
		est := stepEst(inSet, cur, j)
		if est < 0 {
			est = cur * size[j]
		}
		identityCost += est
		cur = est
		inSet[j] = true
	}

	// Adopt the reorder only when the predicted win is clear: the
	// estimates are rough.
	if !isIdentity(order) && greedyCost < 0.7*identityCost {
		return order
	}
	return identity
}

// joinEdges resolves unused "col = col" conjuncts into element-pair
// edges. A side that resolves in no element or in more than one
// (ambiguous without its qualifier) contributes no edge; the join
// itself still applies the predicate.
func joinEdges(elems []fromElem, conjuncts []parse.Expr, used []bool) []joinEdge {
	resolve := func(cr *parse.ColumnRef) (int, int, bool) {
		elem, ord := -1, -1
		for i, e := range elems {
			if o := e.rel.schema.Lookup(cr.Qual, cr.Name); o >= 0 {
				if elem >= 0 {
					return -1, -1, false
				}
				elem, ord = i, o
			}
		}
		return elem, ord, elem >= 0
	}
	var edges []joinEdge
	for i, c := range conjuncts {
		if used[i] {
			continue
		}
		be, ok := c.(*parse.BinaryExpr)
		if !ok || be.Op != parse.OpEq {
			continue
		}
		lc, lok := be.L.(*parse.ColumnRef)
		rc, rok := be.R.(*parse.ColumnRef)
		if !lok || !rok {
			continue
		}
		la, lo, ok := resolve(lc)
		if !ok {
			continue
		}
		ra, ro, ok := resolve(rc)
		if !ok || la == ra {
			continue
		}
		edges = append(edges, joinEdge{a: la, b: ra, ndvA: ndvOf(elems[la], lo), ndvB: ndvOf(elems[ra], ro)})
	}
	return edges
}

func ndvOf(e fromElem, ord int) float64 {
	if e.stats == nil || ord >= len(e.stats.Cols) {
		return 0
	}
	return float64(e.stats.Cols[ord].NDV)
}

func isIdentity(order []int) bool {
	for i, v := range order {
		if v != i {
			return false
		}
	}
	return true
}
