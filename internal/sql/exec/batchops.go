package exec

// batchops.go holds the batch-consuming operators of the vectorized
// path: projection (with streaming DISTINCT), streaming GROUP BY
// aggregation, the build-side-aware batched hash join, and the column
// remap that restores canonical column order after the planner reorders
// a FROM list.

import (
	"encoding/binary"
	"fmt"
	"time"

	"minerule/internal/obsv"
	"minerule/internal/sql/parse"
	"minerule/internal/sql/schema"
	"minerule/internal/sql/value"
)

// collectAggregates walks the projection and HAVING for aggregate calls,
// returning them in first-appearance order with their slot map. Shared
// by the row-mode and batched GROUP BY implementations.
func collectAggregates(s *parse.Select, items []projItem) ([]*parse.FuncCall, map[*parse.FuncCall]int) {
	var aggNodes []*parse.FuncCall
	aggSlots := make(map[*parse.FuncCall]int)
	collect := func(e parse.Expr) {
		parse.WalkExprs(e, func(x parse.Expr) bool {
			if f, ok := x.(*parse.FuncCall); ok && f.IsAggregate() {
				if _, seen := aggSlots[f]; !seen {
					aggSlots[f] = len(aggNodes)
					aggNodes = append(aggNodes, f)
				}
				return false
			}
			return true
		})
	}
	for _, it := range items {
		if it.expr != nil {
			collect(it.expr)
		}
	}
	if s.Having != nil {
		collect(s.Having)
	}
	return aggNodes, aggSlots
}

// ---------------------------------------------------------------------------
// Projection

// projectBatched evaluates the select list over a batched input,
// carving output rows from an arena; with distinct set it deduplicates
// while appending (each candidate row evaluates into a reused scratch
// row and only survivors are committed to the arena, so dropped
// duplicates pin no memory).
func (rt *Runtime) projectBatched(s *parse.Select, src batchSource, distinct bool) (*relation, error) {
	sp, parent := rt.pushOp("project")
	items, err := expandItems(s, src.Schema())
	if err != nil {
		rt.popOp(sp, parent)
		return nil, err
	}
	b := rt.bind(src.Schema())
	fns := make([]evalFunc, len(items))
	for i, it := range items {
		if it.ord >= 0 {
			ord := it.ord
			fns[i] = func(row schema.Row) (value.Value, error) { return row[ord], nil }
			continue
		}
		f, err := b.compile(it.expr)
		if err != nil {
			rt.popOp(sp, parent)
			return nil, err
		}
		fns[i] = f
	}

	w := len(fns)
	var (
		arena   rowArena
		outRows []schema.Row
		batches int64
		rowsIn  int64
		seen    keyTable
		scratch schema.Row
		distBuf []byte
	)
	if hint := src.sizeHint(); hint > 0 {
		outRows = make([]schema.Row, 0, hint)
	}
	if distinct {
		scratch = make(schema.Row, w)
	}
	for {
		in, err := src.NextBatch()
		if err != nil {
			rt.popOp(sp, parent)
			return nil, err
		}
		if in == nil {
			break
		}
		if err := rt.charge(len(in.rows)); err != nil {
			rt.popOp(sp, parent)
			return nil, err
		}
		batches++
		rowsIn += int64(len(in.rows))
		for _, row := range in.rows {
			if distinct {
				for i, f := range fns {
					v, err := f(row)
					if err != nil {
						rt.popOp(sp, parent)
						return nil, err
					}
					scratch[i] = v
				}
				distBuf = scratch.AppendKey(distBuf[:0])
				_, added, err := seen.insert(distBuf)
				if err != nil {
					rt.popOp(sp, parent)
					return nil, err
				}
				if !added {
					continue
				}
				out := arena.alloc(w)
				copy(out, scratch)
				outRows = append(outRows, out)
				continue
			}
			out := arena.alloc(w)
			for i, f := range fns {
				v, err := f(row)
				if err != nil {
					rt.popOp(sp, parent)
					return nil, err
				}
				out[i] = v
			}
			outRows = append(outRows, out)
		}
		rt.noteBatch(len(in.rows))
	}
	if sp != nil {
		sp.SetInt("rows", rowsIn)
		sp.SetInt("batches", batches)
	}
	rt.popOp(sp, parent)
	if distinct {
		// The dedup ran inline, but DISTINCT keeps its own plan node so
		// EXPLAIN shows the same operator chain as the row-mode path.
		dsp, dparent := rt.pushOp("distinct")
		if dsp != nil {
			dsp.SetInt("rows_in", rowsIn)
			dsp.SetInt("rows", int64(len(outRows)))
		}
		rt.popOp(dsp, dparent)
	}
	return &relation{schema: outputSchema(items, outRows), rows: outRows}, nil
}

// ---------------------------------------------------------------------------
// Streaming GROUP BY

// aggAcc is one aggregate's running state within one group. The
// batched GROUP BY accumulates each input row exactly once instead of
// materializing per-group row lists and re-iterating them per
// aggregate (the row-mode computeAggregate approach).
type aggAcc struct {
	count  int64 // non-NULL (post-DISTINCT) values accumulated
	isum   int64
	fsum   float64
	allInt bool
	best   value.Value // MIN/MAX champion
	have   bool
}

// accumulate folds one argument value into the accumulator, mirroring
// computeAggregate's per-group semantics value for value. A DISTINCT
// aggregate's values seen so far are the keys of seen that start with
// the group's id gid.
func (acc *aggAcc) accumulate(a *parse.FuncCall, v value.Value, seen *keyTable, gid int32, keyBuf *[]byte) error {
	if v.IsNull() {
		return nil
	}
	if a.Distinct {
		*keyBuf = v.AppendKey(binary.LittleEndian.AppendUint32((*keyBuf)[:0], uint32(gid)))
		_, added, err := seen.insert(*keyBuf)
		if err != nil || !added {
			return err
		}
	}
	switch a.Name {
	case "COUNT":
		acc.count++
	case "SUM", "AVG":
		if !v.Type().Numeric() {
			return fmt.Errorf("exec: %s over %s", a.Name, v.Type())
		}
		acc.count++
		if v.Type() == value.TypeInt {
			acc.isum += v.Int()
		} else {
			acc.allInt = false
		}
		acc.fsum += v.Float()
	case "MIN", "MAX":
		acc.count++
		if !acc.have {
			acc.best, acc.have = v, true
			return nil
		}
		c, err := value.Compare(v, acc.best)
		if err != nil {
			return err
		}
		if (a.Name == "MIN" && c < 0) || (a.Name == "MAX" && c > 0) {
			acc.best = v
		}
	default:
		return fmt.Errorf("exec: unknown aggregate %s", a.Name)
	}
	return nil
}

// finalize produces the aggregate's value for one finished group; n is
// the group's total row count (COUNT(*)).
func (acc *aggAcc) finalize(a *parse.FuncCall, n int64) value.Value {
	if a.Star {
		return value.NewInt(n)
	}
	switch a.Name {
	case "COUNT":
		return value.NewInt(acc.count)
	case "SUM":
		if acc.count == 0 {
			return value.Null
		}
		if acc.allInt {
			return value.NewInt(acc.isum)
		}
		return value.NewFloat(acc.fsum)
	case "AVG":
		if acc.count == 0 {
			return value.Null
		}
		return value.NewFloat(acc.fsum / float64(acc.count))
	default: // MIN, MAX
		if !acc.have {
			return value.Null
		}
		return acc.best
	}
}

// groupState is one group's accumulated state: its representative row
// (the first seen — non-aggregate projections and HAVING evaluate over
// it, as in row mode) plus one accumulator per aggregate node.
type groupState struct {
	rep  schema.Row
	n    int64
	accs []aggAcc
}

// groupBatched implements GROUP BY / HAVING / aggregate projection over
// a batched input with streaming accumulators. Group keys intern in a
// keyTable, whose ids index the group states; the states are carved
// from pooled blocks so a query with many groups does not allocate per
// group.
func (rt *Runtime) groupBatched(s *parse.Select, src batchSource) (*relation, error) {
	sp, parent := rt.pushOp("group")
	defer rt.popOp(sp, parent)
	in := src.Schema()
	items, err := expandItems(s, in)
	if err != nil {
		return nil, err
	}
	aggNodes, aggSlots := collectAggregates(s, items)

	keyBind := rt.bind(in)
	keyFns := make([]evalFunc, len(s.GroupBy))
	for i, g := range s.GroupBy {
		f, err := keyBind.compile(g)
		if err != nil {
			return nil, err
		}
		keyFns[i] = f
	}
	aggArgFns := make([]evalFunc, len(aggNodes))
	for i, a := range aggNodes {
		if a.Star {
			continue
		}
		if len(a.Args) != 1 {
			return nil, &PosError{Err: fmt.Errorf("exec: %s takes one argument", a.Name), Off: a.Pos}
		}
		f, err := keyBind.compile(a.Args[0])
		if err != nil {
			return nil, err
		}
		aggArgFns[i] = f
	}

	var (
		groups    keyTable
		order     []*groupState // by group id
		distinct  = make([]keyTable, len(aggNodes))
		statePool []groupState
		accPool   []aggAcc
		kr        = make([]value.Value, len(keyFns))
		keyBuf    []byte
		distBuf   []byte
		batches   int64
		repArena  rowArena // backs rep copies from a volatile source
		vol       = src.volatile()
	)
	poolRows := 4
	newState := func() *groupState {
		if len(statePool) == 0 {
			if poolRows < 256 {
				poolRows *= 2
			}
			statePool = make([]groupState, poolRows)
			if len(aggNodes) > 0 {
				accPool = make([]aggAcc, poolRows*len(aggNodes))
			}
		}
		g := &statePool[0]
		statePool = statePool[1:]
		if len(aggNodes) > 0 {
			g.accs = accPool[:len(aggNodes):len(aggNodes)]
			accPool = accPool[len(aggNodes):]
			for i := range g.accs {
				g.accs[i].allInt = true
			}
		}
		return g
	}

	for {
		b, err := src.NextBatch()
		if err != nil {
			return nil, err
		}
		if b == nil {
			break
		}
		if err := rt.charge(len(b.rows)); err != nil {
			return nil, err
		}
		batches++
		for _, row := range b.rows {
			for i, f := range keyFns {
				v, err := f(row)
				if err != nil {
					return nil, err
				}
				kr[i] = v
			}
			keyBuf = schema.Row(kr).AppendKey(keyBuf[:0])
			gid, added, err := groups.insert(keyBuf)
			if err != nil {
				return nil, err
			}
			var g *groupState
			if !added {
				g = order[gid]
			} else {
				g = newState()
				g.rep = row
				if vol {
					// The rep outlives the batch; copy it out of the
					// source's recycled storage.
					cp := repArena.alloc(len(row))
					copy(cp, row)
					g.rep = cp
				}
				order = append(order, g)
			}
			g.n++
			for i, a := range aggNodes {
				if a.Star {
					continue
				}
				v, err := aggArgFns[i](row)
				if err != nil {
					return nil, err
				}
				if err := g.accs[i].accumulate(a, v, &distinct[i], gid, &distBuf); err != nil {
					return nil, err
				}
			}
		}
	}
	// Global aggregate over empty input still yields one group.
	if len(s.GroupBy) == 0 && len(order) == 0 {
		g := newState()
		order = append(order, g)
	}

	// Compile projection and HAVING against a binding that resolves
	// aggregate calls through aggRow.
	aggRow := make([]value.Value, len(aggNodes))
	pb := rt.bind(in)
	pb.aggs = aggSlots
	pb.aggRow = &aggRow
	itemFns := make([]evalFunc, len(items))
	for i, it := range items {
		if it.ord >= 0 {
			ord := it.ord
			itemFns[i] = func(row schema.Row) (value.Value, error) { return row[ord], nil }
			continue
		}
		f, err := pb.compile(it.expr)
		if err != nil {
			return nil, err
		}
		itemFns[i] = f
	}
	var havingFn evalFunc
	if s.Having != nil {
		f, err := pb.compile(s.Having)
		if err != nil {
			return nil, err
		}
		havingFn = f
	}

	nullRow := make(schema.Row, in.Len())
	var arena rowArena
	w := len(itemFns)
	outRows := make([]schema.Row, 0, len(order))
	for _, g := range order {
		for i, a := range aggNodes {
			aggRow[i] = g.accs[i].finalize(a, g.n)
		}
		rep := g.rep
		if rep == nil {
			rep = nullRow
		}
		if havingFn != nil {
			hv, err := havingFn(rep)
			if err != nil {
				return nil, err
			}
			t, err := value.TristateFromValue(hv)
			if err != nil {
				return nil, err
			}
			if t != value.True {
				continue
			}
		}
		out := arena.alloc(w)
		for i, f := range itemFns {
			v, err := f(rep)
			if err != nil {
				return nil, err
			}
			out[i] = v
		}
		outRows = append(outRows, out)
	}
	if sp != nil {
		sp.SetInt("groups", int64(len(order)))
		sp.SetInt("rows", int64(len(outRows)))
		sp.SetInt("batches", batches)
	}
	return &relation{schema: outputSchema(items, outRows), rows: outRows}, nil
}

// ---------------------------------------------------------------------------
// Batched hash join and cartesian product

// keyPair is one equi-join key: column ordinals into the left and right
// schemas.
type keyPair struct{ l, r int }

// hashJoinBatched joins left and right on the given equi-key pairs,
// building the hash table on the smaller input (whichever side it is)
// and probing the larger in batches. Output columns stay in
// left-then-right order regardless of build side; output rows carve
// from an arena.
func (rt *Runtime) hashJoinBatched(left, right *relation, keys []keyPair) ([]schema.Row, string, error) {
	buildRel, probeRel := right, left
	buildSide := "right"
	if len(left.rows) < len(right.rows) {
		buildRel, probeRel = left, right
		buildSide = "left"
	}
	buildCols := make([]int, len(keys))
	probeCols := make([]int, len(keys))
	for i, k := range keys {
		if buildSide == "left" {
			buildCols[i], probeCols[i] = k.l, k.r
		} else {
			buildCols[i], probeCols[i] = k.r, k.l
		}
	}

	build, err := rt.buildJoinTable(buildRel.rows, buildCols)
	if err != nil {
		return nil, buildSide, err
	}

	// Probe phase. Presize the output for the key-foreign-key case
	// (about one match per probe row of the smaller input).
	lw := left.schema.Len()
	w := lw + right.schema.Len()
	var arena rowArena
	var kb []byte
	out := make([]schema.Row, 0, len(buildRel.rows))
	for base := 0; base < len(probeRel.rows); base += batchSize {
		end := base + batchSize
		if end > len(probeRel.rows) {
			end = len(probeRel.rows)
		}
		emitted := 0
		for i := base; i < end; i++ {
			probe := probeRel.rows[i]
			var ok bool
			if kb, ok = appendJoinKey(kb[:0], probe, probeCols); !ok {
				continue
			}
			for _, bi := range build.bucket(kb) {
				var l, r schema.Row
				if buildSide == "left" {
					l, r = buildRel.rows[bi], probe
				} else {
					l, r = probe, buildRel.rows[bi]
				}
				o := arena.alloc(w)
				copy(o, l)
				copy(o[lw:], r)
				out = append(out, o)
				emitted++
			}
		}
		if err := rt.charge(emitted); err != nil {
			return nil, buildSide, err
		}
		rt.noteBatch(emitted)
	}
	return out, buildSide, nil
}

// hashJoinSource is the streaming form of the hash join, used when the
// join output feeds straight into the batched pipeline (a single
// two-element FROM list): combined rows build into one scratch block
// that is recycled every NextBatch, so the joined intermediate relation
// is never materialized. The source is volatile — consumers that retain
// rows copy them (see batchSource).
type hashJoinSource struct {
	rt          *Runtime
	sch         *schema.Schema
	buildRows   []schema.Row
	probeRows   []schema.Row
	build       *joinTable
	probeCols   []int
	buildIsLeft bool
	lw, w       int
	pos         int // next probe row
	kb          []byte
	buf         []value.Value // recycled row storage
	out         []schema.Row
	b           batch
	rows        int64
	nb          int64
	spent       time.Duration
	sp          *obsv.Span
	done        bool
}

// newHashJoinSource hashes the smaller input and returns the streaming
// probe source. Span attributes and the trace line match the
// materializing join operator.
func (rt *Runtime) newHashJoinSource(left, right *relation, keys []keyPair) (*hashJoinSource, error) {
	sp, parent := rt.pushOp("join")
	start := time.Now()
	buildRel, probeRel := right, left
	buildSide := "right"
	if len(left.rows) < len(right.rows) {
		buildRel, probeRel = left, right
		buildSide = "left"
	}
	buildCols := make([]int, len(keys))
	probeCols := make([]int, len(keys))
	for i, k := range keys {
		if buildSide == "left" {
			buildCols[i], probeCols[i] = k.l, k.r
		} else {
			buildCols[i], probeCols[i] = k.r, k.l
		}
	}
	s := &hashJoinSource{
		rt:          rt,
		sch:         left.schema.Append(right.schema),
		buildRows:   buildRel.rows,
		probeRows:   probeRel.rows,
		probeCols:   probeCols,
		buildIsLeft: buildSide == "left",
		lw:          left.schema.Len(),
		sp:          sp,
	}
	s.w = s.sch.Len()
	build, err := rt.buildJoinTable(s.buildRows, buildCols)
	if err != nil {
		rt.popOp(sp, parent)
		return nil, err
	}
	s.build = build
	rt.tracef("hash join on %d key(s): %d x %d row(s)", len(keys), len(left.rows), len(right.rows))
	if sp != nil {
		sp.SetStr("strategy", "hash")
		sp.SetInt("keys", int64(len(keys)))
		sp.SetInt("rows_left", int64(len(left.rows)))
		sp.SetInt("rows_right", int64(len(right.rows)))
		est := int64(len(left.rows))
		if r := int64(len(right.rows)); r < est {
			est = r
		}
		sp.SetInt("est_rows", est)
		sp.SetStr("build", buildSide)
	}
	rt.popOp(sp, parent)
	s.spent = time.Since(start)
	return s, nil
}

func (s *hashJoinSource) Schema() *schema.Schema { return s.sch }

// sizeHint assumes the key-foreign-key case: about one match per
// remaining probe row.
func (s *hashJoinSource) sizeHint() int { return len(s.probeRows) - s.pos }

func (s *hashJoinSource) volatile() bool { return true }

// alloc carves one output row from the recycled block. When the block
// fills mid-batch a bigger one is allocated (geometric growth up to
// batchSize rows, so tiny joins stay tiny); rows already carved keep
// referencing the old block, which stays reachable through their headers
// until the next NextBatch resets the source.
func (s *hashJoinSource) alloc() schema.Row {
	if len(s.buf)+s.w > cap(s.buf) {
		c := 2 * cap(s.buf)
		if c == 0 {
			rows := len(s.probeRows)
			if rows > 8 {
				rows = 8
			}
			if rows < 1 {
				rows = 1
			}
			c = rows * s.w
		}
		if max := batchSize * s.w; c > max {
			c = max
		}
		if c < s.w {
			c = s.w
		}
		s.buf = make([]value.Value, 0, c)
	}
	n := len(s.buf)
	s.buf = s.buf[:n+s.w]
	return schema.Row(s.buf[n : n+s.w : n+s.w])
}

func (s *hashJoinSource) NextBatch() (*batch, error) {
	if s.done {
		return nil, nil
	}
	start := time.Now()
	out := s.out[:0]
	s.buf = s.buf[:0]
	probed := 0
	for s.pos < len(s.probeRows) && len(out) < batchSize {
		probe := s.probeRows[s.pos]
		s.pos++
		probed++
		kb, ok := appendJoinKey(s.kb[:0], probe, s.probeCols)
		s.kb = kb
		if !ok {
			continue
		}
		for _, bi := range s.build.bucket(kb) {
			l, r := probe, s.buildRows[bi]
			if s.buildIsLeft {
				l, r = s.buildRows[bi], probe
			}
			o := s.alloc()
			copy(o, l)
			copy(o[s.lw:], r)
			out = append(out, o)
		}
	}
	s.out = out
	if err := s.rt.pollN(probed); err != nil {
		return nil, err
	}
	s.spent += time.Since(start)
	if len(out) == 0 {
		s.finish()
		return nil, nil
	}
	if err := s.rt.charge(len(out)); err != nil {
		return nil, err
	}
	s.rows += int64(len(out))
	s.nb++
	s.rt.noteBatch(len(out))
	if s.pos >= len(s.probeRows) {
		s.finish()
	}
	s.b.rows = out
	return &s.b, nil
}

func (s *hashJoinSource) finish() {
	s.done = true
	if s.sp == nil {
		return
	}
	s.sp.SetInt("rows", s.rows)
	s.sp.SetInt("batches", s.nb)
	s.sp.SetDuration(s.spent)
}

// cartesianBatched is the no-equi-key fallback with arena output and
// batch-granular accounting.
func (rt *Runtime) cartesianBatched(left, right *relation) ([]schema.Row, error) {
	lw := left.schema.Len()
	w := lw + right.schema.Len()
	var arena rowArena
	var out []schema.Row
	emitted := 0
	for _, l := range left.rows {
		for _, r := range right.rows {
			o := arena.alloc(w)
			copy(o, l)
			copy(o[lw:], r)
			out = append(out, o)
			emitted++
			if emitted >= batchSize {
				if err := rt.charge(emitted); err != nil {
					return nil, err
				}
				rt.noteBatch(emitted)
				emitted = 0
			}
		}
	}
	if emitted > 0 {
		if err := rt.charge(emitted); err != nil {
			return nil, err
		}
		rt.noteBatch(emitted)
	}
	return out, nil
}

// ---------------------------------------------------------------------------
// Column remap after join reordering

// remapColumns restores canonical (FROM-list) column order after the
// planner executed the joins in a different order. One arena pass; only
// runs when the planner actually reordered, which it does only when the
// cost model predicts a win that covers this copy.
func (rt *Runtime) remapColumns(rel *relation, elems []fromElem, order []int) *relation {
	n := len(elems)
	widths := make([]int, n)
	for i, e := range elems {
		widths[i] = e.rel.schema.Len()
	}
	// Offset of each element in the executed (permuted) layout.
	execOff := make([]int, n)
	off := 0
	for _, idx := range order {
		execOff[idx] = off
		off += widths[idx]
	}
	// src[j] is the executed-layout position of canonical column j.
	src := make([]int, off)
	canonical := elems[0].rel.schema
	j := 0
	for i := 0; i < n; i++ {
		if i > 0 {
			canonical = canonical.Append(elems[i].rel.schema)
		}
		for c := 0; c < widths[i]; c++ {
			src[j] = execOff[i] + c
			j++
		}
	}
	var arena rowArena
	out := make([]schema.Row, len(rel.rows))
	for ri, row := range rel.rows {
		o := arena.alloc(len(src))
		for jj, sj := range src {
			o[jj] = row[sj]
		}
		out[ri] = o
	}
	return &relation{schema: canonical, rows: out}
}
