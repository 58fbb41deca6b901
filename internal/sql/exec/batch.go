package exec

// batch.go implements the executor's batched (vectorized) pipeline:
// rows flow between operators in windows of up to batchSize instead of
// one at a time, output rows are carved out of arena blocks instead of
// allocated individually, and group/join keys build into one reused
// buffer on the value.AppendKey paths and intern in a keyTable. ORDER
// BY, set operations and subquery results work on materialized
// relations, which materialize drains a pipeline into.

import (
	"time"

	"minerule/internal/obsv"
	"minerule/internal/resource"
	"minerule/internal/sql/parse"
	"minerule/internal/sql/schema"
	"minerule/internal/sql/value"
)

// batchSize is the target number of rows per batch: small enough that a
// batch of row headers stays cache-resident, large enough to amortize
// per-batch accounting to noise.
const batchSize = 512

// batch is the unit of flow between batched operators: a window of row
// references.
type batch struct {
	rows []schema.Row
}

// batchSource is the batched iterator interface. NextBatch returns the
// next non-empty batch, or nil at end of stream; the returned batch and
// its rows slice are owned by the source and valid only until the next
// NextBatch call. sizeHint is an upper bound on the rows still to come
// (consumers use it to presize output buffers); -1 when unknown.
//
// volatile reports whether the row *storage* is also recycled between
// NextBatch calls: a volatile source (the streaming hash join, and a
// filter over it) rebuilds its rows in a reused scratch block, so consumers that retain a
// schema.Row beyond the next NextBatch call must copy it first. Rows
// from a non-volatile source may be retained as-is. Individual
// value.Value elements are always safe to copy out either way.
type batchSource interface {
	Schema() *schema.Schema
	NextBatch() (*batch, error)
	sizeHint() int
	volatile() bool
}

// noteBatch feeds the always-on batch counters.
func (rt *Runtime) noteBatch(rows int) {
	if m := rt.Met; m != nil {
		m.ExecBatches.Inc()
		m.ExecBatchRows.Add(int64(rows))
	}
}

// pollN polls the context after accounting n comparison-only operations
// (the batch-granular analogue of poll).
func (rt *Runtime) pollN(n int) error {
	rt.ops += n
	if rt.ops >= pollEvery {
		rt.ops = 0
		return resource.Check(rt.ctx)
	}
	return nil
}

// ---------------------------------------------------------------------------
// Row arena

// rowArena carves output rows out of shared []value.Value blocks, so a
// run of w-wide rows costs one allocation per block instead of one per
// row. Blocks grow geometrically (8 rows up to batchSize rows), so a
// 3-row result does not pay for a 512-row block while bulk pipelines
// amortize to one allocation per batch. Each carved row is
// full-capacity sliced: appends through it can never clobber a
// neighbor.
type rowArena struct {
	buf  []value.Value
	rows int // row capacity of the next block
}

func (a *rowArena) alloc(w int) schema.Row {
	if w == 0 {
		return schema.Row{}
	}
	if len(a.buf)+w > cap(a.buf) {
		if a.rows == 0 {
			a.rows = 8
		} else if a.rows < batchSize {
			a.rows *= 2
		}
		block := a.rows * w
		const maxBlock = 16 << 10
		if block > maxBlock && w < maxBlock {
			block = (maxBlock / w) * w
		}
		a.buf = make([]value.Value, 0, block)
	}
	n := len(a.buf)
	a.buf = a.buf[:n+w]
	return schema.Row(a.buf[n : n+w : n+w])
}

// ---------------------------------------------------------------------------
// Keys

// appendJoinKey appends row's composite key over the columns cols to
// dst, framed as schema.Row.AppendKey frames it. It reports false when
// a key column is NULL: NULL never equi-joins.
func appendJoinKey(dst []byte, row schema.Row, cols []int) ([]byte, bool) {
	for _, c := range cols {
		if row[c].IsNull() {
			return dst, false
		}
		dst = schema.AppendValueKey(dst, row[c])
	}
	return dst, true
}

// ---------------------------------------------------------------------------
// Sources

// sliceSource adapts a materialized relation to batchSource by handing
// out zero-copy windows.
type sliceSource struct {
	rt   *Runtime
	sch  *schema.Schema
	rows []schema.Row
	pos  int
	b    batch
}

func (rt *Runtime) newSliceSource(rel *relation) *sliceSource {
	return &sliceSource{rt: rt, sch: rel.schema, rows: rel.rows}
}

func (s *sliceSource) Schema() *schema.Schema { return s.sch }

func (s *sliceSource) sizeHint() int { return len(s.rows) - s.pos }

func (s *sliceSource) volatile() bool { return false }

func (s *sliceSource) NextBatch() (*batch, error) {
	if s.pos >= len(s.rows) {
		return nil, nil
	}
	end := s.pos + batchSize
	if end > len(s.rows) {
		end = len(s.rows)
	}
	s.b.rows = s.rows[s.pos:end]
	s.rt.noteBatch(end - s.pos)
	s.pos = end
	if err := s.rt.pollN(len(s.b.rows)); err != nil {
		return nil, err
	}
	return &s.b, nil
}

// materialize drains a batchSource into a relation, for the operators
// that need every row at once (ORDER BY, set operations, subquery
// results). An unconsumed sliceSource unwraps without copying.
func materialize(src batchSource) (*relation, error) {
	if ss, ok := src.(*sliceSource); ok && ss.pos == 0 {
		return &relation{schema: ss.sch, rows: ss.rows}, nil
	}
	vol := src.volatile()
	var arena rowArena
	var rows []schema.Row
	for {
		b, err := src.NextBatch()
		if err != nil {
			return nil, err
		}
		if b == nil {
			return &relation{schema: src.Schema(), rows: rows}, nil
		}
		if vol {
			// The source recycles its row storage; keep copies.
			for _, r := range b.rows {
				cp := arena.alloc(len(r))
				copy(cp, r)
				rows = append(rows, cp)
			}
			continue
		}
		rows = append(rows, b.rows...)
	}
}

// filterSource keeps the rows for which cond is TRUE. Over a stable
// source it refills its output window from as many input batches as
// needed. Over a volatile source it filters one input batch per
// NextBatch and hands the survivors on in place, so it is volatile in
// turn: the consumers that retain rows copy them (see batchSource).
type filterSource struct {
	rt     *Runtime
	src    batchSource
	fn     evalFunc
	out    []schema.Row
	vol    bool // src recycles row storage between batches
	b      batch
	done   bool
	rowsIn int64
	rows   int64
	nb     int64
	spent  time.Duration
	sp     *obsv.Span
}

func (rt *Runtime) newFilterSource(src batchSource, cond parse.Expr) (*filterSource, error) {
	b := rt.bind(src.Schema())
	fn, err := b.compile(cond)
	if err != nil {
		return nil, err
	}
	sp, parent := rt.pushOp("filter")
	if sp != nil {
		sp.SetStr("cond", cond.SQL())
	}
	rt.popOp(sp, parent)
	return &filterSource{rt: rt, src: src, fn: fn, sp: sp, vol: src.volatile()}, nil
}

func (f *filterSource) Schema() *schema.Schema { return f.src.Schema() }

// sizeHint: a filter can only shrink its input.
func (f *filterSource) sizeHint() int { return f.src.sizeHint() }

func (f *filterSource) volatile() bool { return f.vol }

func (f *filterSource) NextBatch() (*batch, error) {
	if f.done {
		return nil, nil
	}
	start := time.Now()
	out := f.out[:0]
	// A volatile input's rows die at its next NextBatch, so the window
	// closes after the first input batch with a survivor.
	for len(out) < batchSize && !(f.vol && len(out) > 0) {
		in, err := f.src.NextBatch()
		if err != nil {
			return nil, err
		}
		if in == nil {
			f.done = true
			break
		}
		f.rowsIn += int64(len(in.rows))
		for _, row := range in.rows {
			v, err := f.fn(row)
			if err != nil {
				return nil, err
			}
			t, err := value.TristateFromValue(v)
			if err != nil {
				return nil, err
			}
			if t == value.True {
				out = append(out, row)
			}
		}
	}
	f.out = out
	f.spent += time.Since(start)
	if len(out) == 0 {
		f.finishSpan()
		return nil, nil
	}
	f.rows += int64(len(out))
	f.nb++
	f.rt.noteBatch(len(out))
	if f.done {
		f.finishSpan()
	}
	f.b.rows = out
	return &f.b, nil
}

func (f *filterSource) finishSpan() {
	f.rt.tracef("filter: %d -> %d row(s)", f.rowsIn, f.rows)
	if f.sp == nil {
		return
	}
	f.sp.SetInt("rows_in", f.rowsIn)
	f.sp.SetInt("rows", f.rows)
	f.sp.SetInt("batches", f.nb)
	f.sp.SetDuration(f.spent)
}
