package exec

import (
	"fmt"
	"math/bits"
	"sort"
	"strings"

	"minerule/internal/sql/parse"
	"minerule/internal/sql/schema"
	"minerule/internal/sql/storage"
	"minerule/internal/sql/value"
)

// relation is an intermediate result: a schema plus materialized rows.
type relation struct {
	schema *schema.Schema
	rows   []schema.Row
}

// execSelect evaluates a full query: the core specification, any set
// operations, then ORDER BY over the combined result.
func (rt *Runtime) execSelect(s *parse.Select) (*relation, error) {
	// A query without set operations may satisfy ORDER BY by sorting the
	// input before projection, which lets sort keys reference columns
	// the projection drops (standard SQL). With set operations the sort
	// must happen on the combined output instead.
	allowPreSort := len(s.SetOps) == 0
	out, preSorted, err := rt.execSelectCore(s, allowPreSort)
	if err != nil {
		return nil, err
	}
	for _, op := range s.SetOps {
		sp, parent := rt.pushOp(strings.ToLower(op.Kind.String()))
		right, _, err := rt.execSelectCore(op.Sel, false)
		if err != nil {
			rt.popOp(sp, parent)
			return nil, err
		}
		if right.schema.Len() != out.schema.Len() {
			rt.popOp(sp, parent)
			return nil, fmt.Errorf("exec: %s operands have %d and %d columns",
				op.Kind, out.schema.Len(), right.schema.Len())
		}
		out, err = combineSetOp(op, out, right)
		if err != nil {
			rt.popOp(sp, parent)
			return nil, err
		}
		sp.SetInt("rows", int64(len(out.rows)))
		rt.popOp(sp, parent)
	}
	if len(s.OrderBy) > 0 && !preSorted {
		sp, parent := rt.pushOp("sort")
		if err := rt.orderBy(out, s.OrderBy); err != nil {
			rt.popOp(sp, parent)
			return nil, err
		}
		sp.SetInt("rows", int64(len(out.rows)))
		rt.popOp(sp, parent)
	}
	if s.Offset > 0 {
		if s.Offset >= int64(len(out.rows)) {
			out.rows = nil
		} else {
			out.rows = out.rows[s.Offset:]
		}
	}
	if s.Limit >= 0 && s.Limit < int64(len(out.rows)) {
		out.rows = out.rows[:s.Limit]
	}
	return out, nil
}

// combineSetOp applies one UNION/EXCEPT/INTERSECT step. The non-ALL
// forms produce distinct rows, per SQL92, in first-seen order. All
// variants stream over the operands with one reused key buffer instead
// of materializing a concatenated copy first.
func combineSetOp(op parse.SetOp, left, right *relation) (*relation, error) {
	if op.Kind == parse.Union && op.All {
		rows := make([]schema.Row, 0, len(left.rows)+len(right.rows))
		rows = append(rows, left.rows...)
		rows = append(rows, right.rows...)
		return &relation{schema: left.schema, rows: rows}, nil
	}
	var (
		buf           []byte
		seen, inRight keyTable
		rows          []schema.Row
	)
	sides := [][]schema.Row{left.rows, right.rows}
	if op.Kind != parse.Union {
		for _, r := range right.rows {
			buf = r.AppendKey(buf[:0])
			if _, _, err := inRight.insert(buf); err != nil {
				return nil, err
			}
		}
		sides = sides[:1]
	}
	for _, side := range sides {
		for _, r := range side {
			buf = r.AppendKey(buf[:0])
			switch op.Kind {
			case parse.Except:
				if inRight.find(buf) >= 0 {
					continue
				}
			case parse.Intersect:
				if inRight.find(buf) < 0 {
					continue
				}
			}
			_, added, err := seen.insert(buf)
			if err != nil {
				return nil, err
			}
			if added {
				rows = append(rows, r)
			}
		}
	}
	return &relation{schema: left.schema, rows: rows}, nil
}

// execSelectCore evaluates one query specification (no set operations):
// rows flow from the joined FROM relation through filter, then grouping
// or projection, in batches (see batch.go). When allowPreSort is set and
// every ORDER BY key compiles against the *input* schema of a plain
// (non-grouped, non-DISTINCT) query, the input is sorted before
// projection and the second result reports true — sort keys may then
// reference columns the projection drops.
func (rt *Runtime) execSelectCore(s *parse.Select, allowPreSort bool) (*relation, bool, error) {
	csp, cparent := rt.pushOp("select")
	defer rt.popOp(csp, cparent)
	src, remaining, err := rt.buildFrom(s)
	if err != nil {
		return nil, false, err
	}
	// Residual WHERE conjuncts not consumed by scans or joins.
	if len(remaining) > 0 {
		fs, err := rt.newFilterSource(src, conjoin(remaining))
		if err != nil {
			return nil, false, err
		}
		src = fs
	}

	grouped := len(s.GroupBy) > 0 || selectHasAggregate(s)

	// SQL resolves ORDER BY names against the output columns first; only
	// keys that cannot resolve there fall back to the input relation, so
	// pre-sorting is attempted only when the output cannot satisfy the
	// sort. It needs a materialized relation, re-sourced afterwards.
	preSorted := false
	if allowPreSort && !grouped && !s.Distinct && len(s.OrderBy) > 0 &&
		!rt.canOrderByOutput(s, src.Schema()) && rt.canOrder(src.Schema(), s.OrderBy) {
		rel, err := materialize(src)
		if err != nil {
			return nil, false, err
		}
		ssp, sparent := rt.pushOp("sort")
		if err := rt.orderBy(rel, s.OrderBy); err != nil {
			rt.popOp(ssp, sparent)
			return nil, false, err
		}
		ssp.SetInt("rows", int64(len(rel.rows)))
		rt.popOp(ssp, sparent)
		src = rt.newSliceSource(rel)
		preSorted = true
	}

	var out *relation
	if grouped {
		out, err = rt.group(s, src)
		if err != nil {
			return nil, false, err
		}
		if s.Distinct {
			dsp, dparent := rt.pushOp("distinct")
			n := len(out.rows)
			out.rows = distinctRows(out.rows)
			if dsp != nil {
				dsp.SetInt("rows_in", int64(n))
				dsp.SetInt("rows", int64(len(out.rows)))
			}
			rt.popOp(dsp, dparent)
		}
	} else {
		if s.Having != nil {
			return nil, false, fmt.Errorf("exec: HAVING without GROUP BY or aggregates")
		}
		// project dedups inline when DISTINCT.
		out, err = rt.project(s, src, s.Distinct)
		if err != nil {
			return nil, false, err
		}
	}
	csp.SetInt("rows", int64(len(out.rows)))
	return out, preSorted, nil
}

// canOrder reports whether every ORDER BY key compiles against the
// schema (ordinals are excluded — they address output positions).
func (rt *Runtime) canOrder(s *schema.Schema, order []parse.OrderItem) bool {
	b := rt.bind(s)
	for _, o := range order {
		if lit, ok := o.Expr.(*parse.Literal); ok && lit.Val.Type() == value.TypeInt {
			return false
		}
		if _, err := b.compile(o.Expr); err != nil {
			return false
		}
	}
	return true
}

// canOrderByOutput reports whether the ORDER BY would resolve against
// the projection's column names (built without evaluating anything).
func (rt *Runtime) canOrderByOutput(s *parse.Select, in *schema.Schema) bool {
	items, err := expandItems(s, in)
	if err != nil {
		return false
	}
	cols := make([]schema.Column, len(items))
	for i, it := range items {
		cols[i] = it.col
	}
	return rt.canOrder(schema.New("", cols...), s.OrderBy)
}

func selectHasAggregate(s *parse.Select) bool {
	for _, it := range s.Items {
		if it.Expr != nil && parse.HasAggregate(it.Expr) {
			return true
		}
	}
	return s.Having != nil && parse.HasAggregate(s.Having)
}

// buildFrom evaluates the FROM list and performs the joins, consuming
// WHERE conjuncts as scan filters and equi-join predicates where
// possible. It returns the joined input as a batch source plus the
// unconsumed conjuncts. A last join on hash keys streams (its output is
// never materialized); everything else materializes and is served
// through a sliceSource. Either way the rows come out in canonical
// (FROM-list) column order, whatever order the planner joined in.
func (rt *Runtime) buildFrom(s *parse.Select) (batchSource, []parse.Expr, error) {
	if len(s.From) == 0 {
		// Table-less SELECT: one empty row.
		r := &relation{schema: schema.New(""), rows: []schema.Row{{}}}
		var rest []parse.Expr
		if s.Where != nil {
			rest = splitConjuncts(s.Where)
		}
		return rt.newSliceSource(r), rest, nil
	}

	conjuncts := splitConjuncts(s.Where)
	used := make([]bool, len(conjuncts))
	unused := func() []parse.Expr {
		var rest []parse.Expr
		for i, c := range conjuncts {
			if !used[i] {
				rest = append(rest, c)
			}
		}
		return rest
	}

	// Scan every FROM element first (consuming index and local
	// predicates), so the planner sees all cardinalities before any
	// join runs.
	elems := make([]fromElem, len(s.From))
	for i, tr := range s.From {
		rel, t, err := rt.scanFor(tr, conjuncts, used)
		if err != nil {
			return nil, nil, err
		}
		rel, err = rt.applyLocal(rel, conjuncts, used)
		if err != nil {
			return nil, nil, err
		}
		elems[i] = fromElem{rel: rel, tab: t}
	}

	// Fetch statistics only when cost-based planning will actually run:
	// three or more inputs whose combined size clears the planning floor.
	if len(elems) >= 3 {
		total := 0
		for _, e := range elems {
			total += len(e.rel.rows)
		}
		if total >= planRowsMin {
			for i := range elems {
				if elems[i].tab != nil {
					elems[i].stats = rt.tableStats(elems[i].tab)
				}
			}
		}
	}

	order := rt.planFromOrder(s, elems, conjuncts, used)
	// Only the last join restores canonical order; the joins before it
	// keep the executed order, which every conjunct resolves against
	// by name.
	var lastPlace placement
	if !isIdentity(order) {
		lastPlace = finalPlacement(elems, order)
	}

	cur := elems[order[0]].rel
	var err error
	for n, idx := range order[1:] {
		right := elems[idx].rel
		keys := equiJoinKeys(cur, right, conjuncts, used)
		var place placement
		last := n == len(order)-2
		if last {
			place = lastPlace
		}
		// Streaming hash join for the last pair: nothing joins
		// afterwards, so the combined rows can flow straight into the
		// downstream operators out of a recycled scratch block instead
		// of materializing. Conjuncts over the joined schema stay
		// unconsumed and become the residual filter, exactly as
		// applyLocal would have filtered them.
		if last && len(keys) > 0 {
			src, err := rt.newHashJoinSource(cur, right, keys, place, false)
			if err != nil {
				return nil, nil, err
			}
			return src, unused(), nil
		}
		cur, err = rt.joinKeys(cur, right, keys, place)
		if err != nil {
			return nil, nil, err
		}
		// Conjuncts that became evaluable over the widened schema.
		cur, err = rt.applyLocal(cur, conjuncts, used)
		if err != nil {
			return nil, nil, err
		}
	}
	return rt.newSliceSource(cur), unused(), nil
}

// scanFor materializes one FROM element, first trying to satisfy an
// equality conjunct through a hash index (point lookup instead of a
// full snapshot); the consumed conjunct is marked used. For a full
// base-table scan it also returns the owning table, so the caller can
// fetch statistics for the join-order planner when planning is worth
// it; index-narrowed results and non-table sources return nil.
func (rt *Runtime) scanFor(tr parse.TableRef, conjuncts []parse.Expr, used []bool) (*relation, *storage.Table, error) {
	if tr.Sub == nil && len(tr.Joins) == 0 {
		if t, ok := rt.Txn.Table(tr.Name); ok {
			qual := tr.Alias
			if qual == "" {
				qual = tr.Name
			}
			qualified := t.Schema().WithQualifier(qual)
			for i, c := range conjuncts {
				if used[i] {
					continue
				}
				ord, lit, ok := rt.indexableEquality(c, qualified)
				if !ok {
					continue
				}
				ix := rt.Txn.IndexOn(t, ord)
				if ix == nil {
					continue
				}
				// Only take the index when the comparison is well typed,
				// so indexed and unindexed runs fail identically on type
				// mismatches. String literals coerce against DATE
				// columns, as in compareTri.
				colType := qualified.Col(ord).Type
				switch {
				case colType == value.TypeDate && lit.Type() == value.TypeString:
					cv, err := value.Coerce(lit, value.TypeDate)
					if err != nil {
						continue
					}
					lit = cv
				case colType.Numeric() && lit.Type().Numeric():
				case colType == lit.Type():
				default:
					continue
				}
				// Cost gate: a one-distinct-value index
				// cannot narrow the scan, so skip it. Everything with
				// NDV >= 2 keeps the point lookup — on equality it is
				// never worse than the full scan. Small tables skip the
				// statistics consult entirely: the lookup is cheap either
				// way and sketch maintenance would dominate.
				var estRows int64 = -1
				if rt.Txn.Len(t) >= planRowsMin {
					st := rt.tableStats(t)
					if st.Rows > 0 && st.Cols[ord].NDV <= 1 {
						continue
					}
					if ndv := st.Cols[ord].NDV; ndv > 0 {
						estRows = st.Rows / ndv
					}
					if m := rt.Met; m != nil {
						m.PlannerIndexPaths.Inc()
					}
				}
				used[i] = true
				sp, parent := rt.pushOp("index lookup")
				rows := rt.Txn.Lookup(t, ix, lit.Key())
				if m := rt.Met; m != nil {
					m.RowsScanned.Add(int64(len(rows)))
				}
				if sp != nil {
					sp.SetStr("table", tr.Name)
					sp.SetStr("index", ix.Name())
					sp.SetInt("rows", int64(len(rows)))
					if estRows >= 0 {
						sp.SetInt("est_rows", estRows)
					}
				}
				rt.popOp(sp, parent)
				rt.tracef("index lookup %s.%s = %s via %s: %d row(s)",
					tr.Name, qualified.Col(ord).Name, lit, ix.Name(), len(rows))
				return &relation{schema: qualified, rows: rows}, nil, nil
			}
			rel, err := rt.scan(tr)
			if err != nil {
				return nil, nil, err
			}
			return rel, t, nil
		}
	}
	rel, err := rt.scan(tr)
	return rel, nil, err
}

// tableStats fetches a table's statistics, counting refreshes.
func (rt *Runtime) tableStats(t *storage.Table) *storage.TableStats {
	st, refreshed := t.Stats()
	if refreshed {
		if m := rt.Met; m != nil {
			m.StatsRefreshes.Inc()
		}
	}
	return st
}

// indexableEquality matches "col = literal" or "col = ?" (either
// orientation) where col resolves in the given schema, returning the
// column ordinal and the compared value.
func (rt *Runtime) indexableEquality(c parse.Expr, s *schema.Schema) (int, value.Value, bool) {
	be, ok := c.(*parse.BinaryExpr)
	if !ok || be.Op != parse.OpEq {
		return 0, value.Null, false
	}
	try := func(refSide, valSide parse.Expr) (int, value.Value, bool) {
		cr, ok := refSide.(*parse.ColumnRef)
		if !ok {
			return 0, value.Null, false
		}
		var v value.Value
		switch x := valSide.(type) {
		case *parse.Literal:
			v = x.Val
		case *parse.Param:
			v = rt.Args[x.N-1]
		default:
			return 0, value.Null, false
		}
		if v.IsNull() {
			return 0, value.Null, false
		}
		ord, err := s.Resolve(cr.Qual, cr.Name)
		if err != nil {
			return 0, value.Null, false
		}
		return ord, v, true
	}
	if ord, v, ok := try(be.L, be.R); ok {
		return ord, v, true
	}
	return try(be.R, be.L)
}

// scan materializes one FROM element, including any explicit JOIN
// clauses attached to it.
func (rt *Runtime) scan(tr parse.TableRef) (*relation, error) {
	rel, err := rt.scanBase(tr)
	if err != nil {
		return nil, err
	}
	for _, j := range tr.Joins {
		right, err := rt.scanBase(j.Right)
		if err != nil {
			return nil, err
		}
		rel, err = rt.explicitJoin(rel, right, j)
		if err != nil {
			return nil, err
		}
	}
	return rel, nil
}

// explicitJoin evaluates "left [LEFT] JOIN right ON cond". Equi-join
// conjuncts of the ON condition drive a hash join; the residual
// condition evaluates per candidate pair. LEFT JOIN pads unmatched left
// rows with NULLs.
func (rt *Runtime) explicitJoin(left, right *relation, j parse.JoinClause) (*relation, error) {
	sp, parent := rt.pushOp("join")
	defer rt.popOp(sp, parent)
	outSchema := left.schema.Append(right.schema)
	conjuncts := splitConjuncts(j.On)

	// Find hashable equi-key pairs.
	var keys []keyPair
	var residual []parse.Expr
	for _, c := range conjuncts {
		be, ok := c.(*parse.BinaryExpr)
		if ok && be.Op == parse.OpEq {
			lc, lok := be.L.(*parse.ColumnRef)
			rc, rok := be.R.(*parse.ColumnRef)
			if lok && rok {
				if li := left.schema.Lookup(lc.Qual, lc.Name); li >= 0 {
					if ri := right.schema.Lookup(rc.Qual, rc.Name); ri >= 0 &&
						!right.schema.Has(lc.Qual, lc.Name) && !left.schema.Has(rc.Qual, rc.Name) {
						keys = append(keys, keyPair{li, ri})
						continue
					}
				}
				if li := left.schema.Lookup(rc.Qual, rc.Name); li >= 0 {
					if ri := right.schema.Lookup(lc.Qual, lc.Name); ri >= 0 &&
						!right.schema.Has(rc.Qual, rc.Name) && !left.schema.Has(lc.Qual, lc.Name) {
						keys = append(keys, keyPair{li, ri})
						continue
					}
				}
			}
		}
		residual = append(residual, c)
	}

	var residualFn evalFunc
	if len(residual) > 0 {
		b := rt.bind(outSchema)
		f, err := b.compile(conjoin(residual))
		if err != nil {
			return nil, err
		}
		residualFn = f
	}

	// Bucket the build side by the equi keys (single bucket when none).
	// LEFT JOIN must probe from the left (unmatched left rows pad with
	// NULLs); inner joins build on the smaller input.
	buildRel, probeRel := right, left
	buildIsLeft := false
	if j.Kind != parse.LeftJoin && len(left.rows) < len(right.rows) {
		buildRel, probeRel = left, right
		buildIsLeft = true
	}
	// Key bytes build into one reused buffer; the string materializes only
	// when a new bucket is created (map lookups on string(buf) are
	// allocation-free).
	buckets := make(map[string][]schema.Row)
	var kb []byte
	keyOf := func(dst []byte, row schema.Row, left bool) ([]byte, bool) {
		for _, k := range keys {
			c := k.r
			if left {
				c = k.l
			}
			v := row[c]
			if v.IsNull() {
				return dst, false
			}
			dst = schema.AppendValueKey(dst, v)
		}
		return dst, true
	}
	for _, r := range buildRel.rows {
		var ok bool
		kb, ok = keyOf(kb[:0], r, buildIsLeft)
		if !ok {
			continue
		}
		buckets[string(kb)] = append(buckets[string(kb)], r)
	}

	rt.tracef("%s: %d x %d row(s), %d hash key(s), residual=%v",
		j.Kind, len(left.rows), len(right.rows), len(keys), residualFn != nil)
	if sp != nil {
		sp.SetStr("kind", j.Kind.String())
		sp.SetInt("keys", int64(len(keys)))
		sp.SetInt("rows_left", int64(len(left.rows)))
		sp.SetInt("rows_right", int64(len(right.rows)))
		if buildIsLeft {
			sp.SetStr("build", "left")
		}
	}
	nullRight := make(schema.Row, right.schema.Len())
	var out []schema.Row
	combined := make(schema.Row, outSchema.Len())
	lw := left.schema.Len()
	for _, p := range probeRel.rows {
		matched := false
		var ok bool
		kb, ok = keyOf(kb[:0], p, !buildIsLeft)
		if ok {
			for _, b := range buckets[string(kb)] {
				l, r := p, b
				if buildIsLeft {
					l, r = b, p
				}
				copy(combined, l)
				copy(combined[lw:], r)
				if residualFn != nil {
					v, err := residualFn(combined)
					if err != nil {
						return nil, err
					}
					t, err := value.TristateFromValue(v)
					if err != nil {
						return nil, err
					}
					if t != value.True {
						continue
					}
				}
				if err := rt.charge(1); err != nil {
					return nil, err
				}
				matched = true
				out = append(out, append(append(make(schema.Row, 0, len(combined)), l...), r...))
			}
		}
		if !matched && j.Kind == parse.LeftJoin {
			if err := rt.charge(1); err != nil {
				return nil, err
			}
			out = append(out, append(append(make(schema.Row, 0, len(combined)), p...), nullRight...))
		}
	}
	sp.SetInt("rows", int64(len(out)))
	return &relation{schema: outSchema, rows: out}, nil
}

// scanBase materializes a base table, a view (re-planned), or a derived
// table, applying the alias as qualifier.
func (rt *Runtime) scanBase(tr parse.TableRef) (*relation, error) {
	var rel *relation
	qual := tr.Alias
	switch {
	case tr.Sub != nil:
		sp, parent := rt.pushOp("derived")
		sub, err := rt.execSelect(tr.Sub)
		if err != nil {
			rt.popOp(sp, parent)
			return nil, err
		}
		sp.SetInt("rows", int64(len(sub.rows)))
		rt.popOp(sp, parent)
		rt.tracef("derived table: %d row(s)", len(sub.rows))
		rel = sub
	default:
		if t, ok := rt.Txn.Table(tr.Name); ok {
			rel = &relation{schema: t.Schema(), rows: rt.Txn.Rows(t)}
			if err := rt.poll(); err != nil {
				return nil, err
			}
			if m := rt.Met; m != nil {
				m.RowsScanned.Add(int64(len(rel.rows)))
			}
			if sp, parent := rt.pushOp("scan"); sp != nil {
				sp.SetStr("table", tr.Name)
				sp.SetInt("rows", int64(len(rel.rows)))
				if st := t.CachedStats(); st != nil {
					sp.SetInt("est_rows", st.Rows)
				}
				rt.popOp(sp, parent)
			}
			rt.tracef("scan table %s: %d row(s)", tr.Name, len(rel.rows))
			if qual == "" {
				qual = tr.Name
			}
			break
		}
		if v, ok := rt.Txn.View(tr.Name); ok {
			sp, parent := rt.pushOp("view")
			sel, err := rt.planView(v)
			if err != nil {
				rt.popOp(sp, parent)
				return nil, err
			}
			sub, err := rt.execSelect(sel)
			if err != nil {
				rt.popOp(sp, parent)
				return nil, fmt.Errorf("exec: view %s: %w", v.Name, err)
			}
			if sp != nil {
				sp.SetStr("name", v.Name)
				sp.SetInt("rows", int64(len(sub.rows)))
			}
			rt.popOp(sp, parent)
			rt.tracef("expand view %s: %d row(s)", v.Name, len(sub.rows))
			rel = sub
			if qual == "" {
				qual = tr.Name
			}
			break
		}
		return nil, &PosError{Err: fmt.Errorf("exec: unknown table or view %q", tr.Name), Off: tr.Pos}
	}
	if qual != "" {
		rel = &relation{schema: rel.schema.WithQualifier(qual), rows: rel.rows}
	}
	return rel, nil
}

// splitConjuncts flattens a WHERE tree over AND into its conjuncts.
func splitConjuncts(e parse.Expr) []parse.Expr {
	if e == nil {
		return nil
	}
	if b, ok := e.(*parse.BinaryExpr); ok && b.Op == parse.OpAnd {
		return append(splitConjuncts(b.L), splitConjuncts(b.R)...)
	}
	return []parse.Expr{e}
}

func conjoin(es []parse.Expr) parse.Expr {
	e := es[0]
	for _, n := range es[1:] {
		e = &parse.BinaryExpr{Op: parse.OpAnd, L: e, R: n}
	}
	return e
}

// applyLocal applies every unconsumed conjunct that compiles against the
// relation's schema, marking it used.
func (rt *Runtime) applyLocal(rel *relation, conjuncts []parse.Expr, used []bool) (*relation, error) {
	var applicable []parse.Expr
	for i, c := range conjuncts {
		if used[i] {
			continue
		}
		b := rt.bind(rel.schema)
		if _, err := b.compile(c); err == nil {
			applicable = append(applicable, c)
			used[i] = true
		}
	}
	if len(applicable) == 0 {
		return rel, nil
	}
	return rt.filter(rel, conjoin(applicable))
}

// filter keeps the rows for which cond is TRUE.
func (rt *Runtime) filter(rel *relation, cond parse.Expr) (*relation, error) {
	sp, parent := rt.pushOp("filter")
	defer rt.popOp(sp, parent)
	b := rt.bind(rel.schema)
	f, err := b.compile(cond)
	if err != nil {
		return nil, err
	}
	// Mark the matches in a bitset, then copy them into an exactly sized
	// slice: a selective filter over a big table, such as a point read,
	// would otherwise allocate a row slice as long as its input.
	match := make([]uint64, (len(rel.rows)+63)/64)
	n := 0
	for i, row := range rel.rows {
		if err := rt.poll(); err != nil {
			return nil, err
		}
		v, err := f(row)
		if err != nil {
			return nil, err
		}
		t, err := value.TristateFromValue(v)
		if err != nil {
			return nil, err
		}
		if t == value.True {
			match[i/64] |= 1 << (i % 64)
			n++
		}
	}
	out := make([]schema.Row, 0, n)
	for w, m := range match {
		for ; m != 0; m &= m - 1 {
			out = append(out, rel.rows[w*64+bits.TrailingZeros64(m)])
		}
	}
	rt.tracef("filter %s: %d -> %d row(s)", cond.SQL(), len(rel.rows), len(out))
	if sp != nil {
		sp.SetStr("cond", cond.SQL())
		sp.SetInt("rows_in", int64(len(rel.rows)))
		sp.SetInt("rows", int64(len(out)))
	}
	return &relation{schema: rel.schema, rows: out}, nil
}

// equiJoinKeys collects the unconsumed equality conjuncts that link cur
// and right ("cur.col = right.col" in either orientation, each side
// resolving unambiguously) as hash-join key pairs, marking them used.
func equiJoinKeys(cur, right *relation, conjuncts []parse.Expr, used []bool) []keyPair {
	var keys []keyPair
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
		li := cur.schema.Lookup(lc.Qual, lc.Name)
		ri := right.schema.Lookup(rc.Qual, rc.Name)
		if li >= 0 && ri >= 0 && !right.schema.Has(lc.Qual, lc.Name) && !cur.schema.Has(rc.Qual, rc.Name) {
			keys = append(keys, keyPair{li, ri})
			used[i] = true
			continue
		}
		// Try the flipped orientation.
		li2 := cur.schema.Lookup(rc.Qual, rc.Name)
		ri2 := right.schema.Lookup(lc.Qual, lc.Name)
		if li2 >= 0 && ri2 >= 0 && !right.schema.Has(rc.Qual, rc.Name) && !cur.schema.Has(lc.Qual, lc.Name) {
			keys = append(keys, keyPair{li2, ri2})
			used[i] = true
		}
	}
	return keys
}

// joinKeys combines cur and right, laying the output out by place.
// With equi-join keys it drains a hash join that keeps its rows;
// otherwise it falls back to the Cartesian product (subsequent
// applyLocal passes filter it).
func (rt *Runtime) joinKeys(cur, right *relation, keys []keyPair, place placement) (*relation, error) {
	if len(keys) > 0 {
		src, err := rt.newHashJoinSource(cur, right, keys, place, true)
		if err != nil {
			return nil, err
		}
		return materialize(src)
	}
	sp, parent := rt.pushOp("join")
	defer rt.popOp(sp, parent)
	sp.SetStr("strategy", "cartesian")
	if sp != nil {
		sp.SetInt("rows_left", int64(len(cur.rows)))
		sp.SetInt("rows_right", int64(len(right.rows)))
		sp.SetInt("est_rows", int64(len(cur.rows))*int64(len(right.rows)))
	}
	rt.tracef("cartesian product: %d x %d row(s)", len(cur.rows), len(right.rows))
	out, err := rt.cartesian(cur, right, place)
	if err != nil {
		return nil, err
	}
	sp.SetInt("rows", int64(len(out)))
	return &relation{schema: place.schema(cur.schema, right.schema), rows: out}, nil
}

// ---------------------------------------------------------------------------
// Projection

// expandItems resolves *, qual.* and expression items against the input
// schema, returning one (outputColumn, expr-or-ordinal) per output column.
type projItem struct {
	col  schema.Column
	expr parse.Expr // nil when ordinal >= 0
	ord  int        // input ordinal for star expansion, else -1
}

func expandItems(s *parse.Select, in *schema.Schema) ([]projItem, error) {
	var items []projItem
	for _, it := range s.Items {
		switch {
		case it.Star:
			for i := 0; i < in.Len(); i++ {
				items = append(items, projItem{col: in.Col(i), ord: i})
			}
		case it.StarQual != "":
			q := strings.ToLower(it.StarQual)
			found := false
			for i := 0; i < in.Len(); i++ {
				if in.Qual(i) == q {
					items = append(items, projItem{col: in.Col(i), ord: i})
					found = true
				}
			}
			if !found {
				return nil, fmt.Errorf("exec: unknown relation %q in %s.*", it.StarQual, it.StarQual)
			}
		default:
			name := it.Alias
			if name == "" {
				switch x := it.Expr.(type) {
				case *parse.ColumnRef:
					name = x.Name
				case *parse.FuncCall:
					name = x.Name
				case *parse.NextVal:
					name = "NEXTVAL"
				default:
					name = fmt.Sprintf("COL%d", len(items)+1)
				}
			}
			items = append(items, projItem{col: schema.Column{Name: name}, expr: it.Expr, ord: -1})
		}
	}
	return items, nil
}

// outputSchema derives column types from the first row when available;
// column types of empty results default to the star-expansion types.
func outputSchema(items []projItem, rows []schema.Row) *schema.Schema {
	cols := make([]schema.Column, len(items))
	for i, it := range items {
		cols[i] = it.col
	}
	if len(rows) > 0 {
		for i := range cols {
			if cols[i].Type == value.TypeNull {
				for _, r := range rows {
					if !r[i].IsNull() {
						cols[i].Type = r[i].Type()
						break
					}
				}
			}
		}
	}
	return schema.New("", cols...)
}

// ---------------------------------------------------------------------------
// DISTINCT and ORDER BY

func distinctRows(rows []schema.Row) []schema.Row {
	seen := make(map[string]bool, len(rows))
	out := rows[:0:0]
	var buf []byte
	for _, r := range rows {
		buf = r.AppendKey(buf[:0])
		if seen[string(buf)] {
			continue
		}
		seen[string(buf)] = true
		out = append(out, r)
	}
	return out
}

func (rt *Runtime) orderBy(rel *relation, order []parse.OrderItem) error {
	fns := make([]evalFunc, len(order))
	b := rt.bind(rel.schema)
	for i, o := range order {
		// ORDER BY ordinal (1-based) addresses an output column.
		if lit, ok := o.Expr.(*parse.Literal); ok && lit.Val.Type() == value.TypeInt {
			ord := int(lit.Val.Int()) - 1
			if ord < 0 || ord >= rel.schema.Len() {
				return fmt.Errorf("exec: ORDER BY position %d out of range", ord+1)
			}
			fns[i] = func(row schema.Row) (value.Value, error) { return row[ord], nil }
			continue
		}
		f, err := b.compile(o.Expr)
		if err != nil {
			// The projection drops input qualifiers; let "t.a" fall back
			// to "a" when that resolves in the output schema, so that
			// ORDER BY over joined columns keeps working.
			if cr, ok := o.Expr.(*parse.ColumnRef); ok && cr.Qual != "" {
				if f2, err2 := b.compile(&parse.ColumnRef{Name: cr.Name}); err2 == nil {
					fns[i] = f2
					continue
				}
			}
			return err
		}
		fns[i] = f
	}
	var sortErr error
	sort.SliceStable(rel.rows, func(i, j int) bool {
		if sortErr != nil {
			return false
		}
		if err := rt.poll(); err != nil {
			sortErr = err
			return false
		}
		for k, f := range fns {
			vi, err := f(rel.rows[i])
			if err != nil {
				sortErr = err
				return false
			}
			vj, err := f(rel.rows[j])
			if err != nil {
				sortErr = err
				return false
			}
			// NULLs sort first, as a fixed engine-wide rule.
			switch {
			case vi.IsNull() && vj.IsNull():
				continue
			case vi.IsNull():
				return !order[k].Desc
			case vj.IsNull():
				return order[k].Desc
			}
			c, err := value.Compare(vi, vj)
			if err != nil {
				sortErr = err
				return false
			}
			if c == 0 {
				continue
			}
			if order[k].Desc {
				return c > 0
			}
			return c < 0
		}
		return false
	})
	return sortErr
}
