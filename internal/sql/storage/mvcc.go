package storage

import (
	"slices"
	"sort"
	"sync/atomic"

	"minerule/internal/sql/schema"
)

// This file is the storage half of the engine's multi-version
// concurrency control: tables keep enough row history for readers to see
// a consistent snapshot while writers commit, and the catalog keeps
// enough name-map history for those readers to resolve names as of their
// snapshot even while DDL executes.
//
// The versioning currency is the commit stamp, a monotone uint64 drawn
// from the catalog's StampClock. On a durable database the clock is kept
// at or above the WAL's last LSN (commits allocate with Next(lsn)), so a
// stamp names a log position; an in-memory database allocates from the
// same clock as a plain logical counter — the interface is identical.
//
// Visibility protocol: a publisher (the txn layer's commit, or a DDL
// statement) allocates its stamp and applies every effect while holding
// the catalog's publish lock, and only then advances the clock's visible
// watermark. Readers take their snapshot stamp from the watermark, so
// any stamp a reader can hold is fully published — no reader ever
// observes half a commit.
//
// Rows are versioned in two dimensions:
//
//   - bounds: within one append-only row array ("generation"), each
//     committed batch pushes a (stamp, length) boundary. A reader at
//     stamp S sees the prefix of the largest boundary at or below S.
//   - generations: UPDATE/DELETE replace the whole array. The superseded
//     generation (rows, its boundaries, and its index objects) is kept on
//     a history list until no registered snapshot can still need it.
//
// History retention is bounded by the low-water mark — the minimum stamp
// any registered snapshot holds — which publishers pass to prune.

// StampClock issues commit stamps and tracks the published watermark.
// All methods are safe for concurrent use.
type StampClock struct {
	alloc   atomic.Uint64 // last stamp allocated to a publisher
	visible atomic.Uint64 // highest stamp whose publication completed
}

// Next allocates the next commit stamp: one past the last allocation,
// raised to floor when that is higher. Durable commits pass their WAL
// LSN as floor, which is what keeps stamps aligned with log positions;
// everything else passes zero.
func (c *StampClock) Next(floor uint64) uint64 {
	for {
		cur := c.alloc.Load()
		s := cur + 1
		if floor > s {
			s = floor
		}
		if c.alloc.CompareAndSwap(cur, s) {
			return s
		}
	}
}

// Visible returns the snapshot watermark: every stamp at or below it is
// fully published, so a reader may adopt it as a consistent snapshot.
func (c *StampClock) Visible() uint64 { return c.visible.Load() }

// SetVisible raises the watermark to s (never lowers it). Publishers
// call it after their last effect is applied.
func (c *StampClock) SetVisible(s uint64) {
	for {
		cur := c.visible.Load()
		if s <= cur || c.visible.CompareAndSwap(cur, s) {
			return
		}
	}
}

// rowBound is one visibility boundary inside a row generation: readers
// at or past stamp see the first n rows of the generation's array.
type rowBound struct {
	stamp uint64
	n     int
}

// oldGen is a superseded row generation, retained until the low-water
// mark passes endStamp. Its indexes are the Index objects that covered
// it while live, so snapshot readers keep their point lookups.
type oldGen struct {
	rows     []schema.Row
	bounds   []rowBound
	indexes  []*Index
	endStamp uint64 // stamp of the generation that replaced this one
}

// visibleLen returns the row count visible at stamp within one
// generation: the largest boundary at or below stamp, or zero when the
// generation has no boundary that old (the rows did not exist yet).
func visibleLen(bounds []rowBound, stamp uint64) int {
	i := sort.Search(len(bounds), func(i int) bool { return bounds[i].stamp > stamp })
	if i == 0 {
		return 0
	}
	return bounds[i-1].n
}

// genAtLocked resolves the generation visible at stamp. Caller holds
// t.mu (read or write).
func (t *Table) genAtLocked(stamp uint64) (rows []schema.Row, bounds []rowBound, indexes []*Index) {
	for i := range t.hist {
		if t.hist[i].endStamp > stamp {
			g := &t.hist[i]
			return g.rows, g.bounds, g.indexes
		}
	}
	return t.rows, t.bounds, t.indexes
}

// RowsAt returns the rows visible at the given snapshot stamp. The
// slice must be treated as read-only; it aliases an immutable prefix
// (appends never move committed elements, replaced generations are
// never mutated).
func (t *Table) RowsAt(stamp uint64) []schema.Row {
	t.mu.RLock()
	defer t.mu.RUnlock()
	rows, bounds, _ := t.genAtLocked(stamp)
	n := visibleLen(bounds, stamp)
	return rows[:n:n]
}

// LenAt returns the row count visible at the given snapshot stamp.
func (t *Table) LenAt(stamp uint64) int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	_, bounds, _ := t.genAtLocked(stamp)
	return visibleLen(bounds, stamp)
}

// IndexOnAt returns an index covering the column ordinal in the
// generation visible at stamp, if any. The returned index may only be
// consulted through LookupAt with the same stamp.
func (t *Table) IndexOnAt(col int, stamp uint64) *Index {
	t.mu.RLock()
	defer t.mu.RUnlock()
	_, _, indexes := t.genAtLocked(stamp)
	for _, ix := range indexes {
		if ix.col == col {
			return ix
		}
	}
	return nil
}

// LookupAt is Lookup restricted to the rows visible at stamp: positions
// past the snapshot's visibility boundary are filtered out. ix must
// come from IndexOnAt at the same stamp.
func (t *Table) LookupAt(ix *Index, key string, stamp uint64) []schema.Row {
	t.mu.RLock()
	defer t.mu.RUnlock()
	rows, bounds, _ := t.genAtLocked(stamp)
	n := visibleLen(bounds, stamp)
	bucket := ix.m[key]
	if bucket == nil {
		return nil
	}
	positions := *bucket
	// Positions are appended in row order, so the visible prefix of the
	// bucket is itself a prefix.
	cut := sort.SearchInts(positions, n)
	if cut == 0 {
		return nil
	}
	out := make([]schema.Row, cut)
	for i, p := range positions[:cut] {
		out[i] = rows[p]
	}
	return out
}

// PublishStamp returns the stamp of the table's last publication: the
// later of its CREATE TABLE and its newest committed row batch or
// rewrite. Anything derived from the table's rows at stamp S is still
// current exactly when PublishStamp is unchanged since S; a table
// dropped and re-created under the same name has a newer one.
func (t *Table) PublishStamp() uint64 {
	t.mu.RLock()
	defer t.mu.RUnlock()
	s := t.created
	if n := len(t.bounds); n > 0 && t.bounds[n-1].stamp > s {
		s = t.bounds[n-1].stamp
	}
	return s
}

// PublishAppend makes a committed batch visible at stamp: the rows are
// appended to the current generation with a new visibility boundary.
// It and PublishReplace are the only ways rows change. The caller is a
// transaction commit, which has logged the batch in its commit frame
// and holds the catalog's publish lock, or recovery replay, which runs
// before the catalog is shared; lwm prunes history no snapshot needs.
func (t *Table) PublishAppend(stamp uint64, rs []schema.Row, lwm uint64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for i, r := range rs {
		for _, ix := range t.indexes {
			ix.add(r, len(t.rows)+i)
		}
	}
	t.rows = append(t.rows, rs...)
	t.bounds = append(t.bounds, rowBound{stamp: stamp, n: len(t.rows)})
	t.pruneLocked(lwm)
}

// PublishReplace makes a committed whole-table rewrite visible at
// stamp: the current generation moves to the history list (still
// readable by older snapshots) and rs becomes the new generation with
// freshly built index objects. Same contract as PublishAppend.
func (t *Table) PublishReplace(stamp uint64, rs []schema.Row, lwm uint64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.hist = append(t.hist, oldGen{rows: t.rows, bounds: t.bounds, indexes: t.indexes, endStamp: stamp})
	t.rows = rs
	t.bounds = []rowBound{{stamp: stamp, n: len(rs)}}
	fresh := make([]*Index, len(t.indexes))
	for i, old := range t.indexes {
		ix := &Index{name: old.name, col: old.col, m: make(map[string]*[]int)}
		for pos, row := range rs {
			ix.add(row, pos)
		}
		fresh[i] = ix
	}
	t.indexes = fresh
	t.pruneLocked(lwm)
}

// pruneLocked drops history no snapshot at or past lwm can reach:
// generations whose successor is itself at or below lwm, and visibility
// boundaries shadowed by a newer boundary at or below lwm. Caller holds
// t.mu.
func (t *Table) pruneLocked(lwm uint64) {
	drop := 0
	for drop < len(t.hist) && t.hist[drop].endStamp <= lwm {
		drop++
	}
	// slices.Delete zeroes the vacated tail, so the backing array stops
	// pinning the dropped generations' rows.
	t.hist = slices.Delete(t.hist, 0, drop)
	for i := range t.hist {
		t.hist[i].bounds = pruneBounds(t.hist[i].bounds, lwm)
	}
	t.bounds = pruneBounds(t.bounds, lwm)
}

func pruneBounds(bounds []rowBound, lwm uint64) []rowBound {
	drop := 0
	for drop+1 < len(bounds) && bounds[drop+1].stamp <= lwm {
		drop++
	}
	if drop == 0 {
		return bounds
	}
	return append(bounds[:0], bounds[drop:]...)
}

// ---------------------------------------------------------------------------
// Catalog name-map history

// catRec is the history record of one DDL: its stamp, the catalog
// version before it, and the bindings it replaced. A snapshot older
// than stamp resolves a name through the first record after the
// snapshot that touched that name, or through the live maps when none
// did; so each DDL preserves only the keys it changes, never the whole
// dictionary.
type catRec struct {
	stamp   uint64 // the DDL's stamp: states before it are older
	ver     uint64 // catalog version before the DDL (cache keys)
	changes []catChange
}

// catChange is one key's binding before a DDL. Exactly one of the
// object fields matches kind; a nil object (or empty owner) means the
// key was unbound.
type catChange struct {
	kind  objKind
	key   string
	tab   *Table
	view  *View
	seq   *Sequence
	owner string // index owner's table key
}

type objKind uint8

const (
	kindTable objKind = iota
	kindView
	kindSeq
	kindIndex
)

// Stamps exposes the catalog's commit-stamp clock.
func (c *Catalog) Stamps() *StampClock { return &c.stamps }

// LockPublish acquires the catalog-wide publish lock. Every publisher —
// a committing transaction, a DDL statement, a checkpoint needing a
// still image — holds it across stamp allocation, effect application,
// and the watermark advance, which is what makes snapshots consistent.
// Lock order: LockPublish precedes Catalog.mu precedes Table.mu.
func (c *Catalog) LockPublish() { c.pubMu.Lock() }

// UnlockPublish releases the publish lock.
func (c *Catalog) UnlockPublish() { c.pubMu.Unlock() }

// EnableHistory turns on name-map versioning: from now on every DDL
// records the bindings it replaces for snapshot readers. The
// transaction manager enables it once at attach; recovery replay
// (which runs with no readers) records nothing.
func (c *Catalog) EnableHistory() {
	c.mu.Lock()
	c.history = true
	c.mu.Unlock()
}

// PruneHistory drops DDL records no snapshot at or past lwm can reach.
// The transaction manager calls it as snapshots retire.
func (c *Catalog) PruneHistory(lwm uint64) {
	c.mu.Lock()
	drop := 0
	for drop < len(c.past) && c.past[drop].stamp <= lwm {
		drop++
	}
	// As in pruneLocked: the vacated tail must not keep dropped tables
	// reachable through stale records.
	c.past = slices.Delete(c.past, 0, drop)
	c.mu.Unlock()
}

// ddlStampLocked allocates the stamp for one DDL mutation and, with
// history on, records the prior bindings of the keys it is about to
// change, so older snapshots keep resolving them. It must run after the
// journal accepted the mutation and before any map is touched; the
// caller then mutates the live maps in place. Caller holds pubMu and
// c.mu; the caller advances the watermark with SetVisible(stamp) after
// its mutation is applied.
func (c *Catalog) ddlStampLocked(changes ...catChange) uint64 {
	stamp := c.stamps.Next(0)
	if c.history {
		c.past = append(c.past, catRec{stamp: stamp, ver: c.version.Load(), changes: changes})
	}
	return stamp
}

// firstRecLocked returns the index of the first DDL record after stamp
// (len(c.past) when the snapshot sees the live maps). Caller holds c.mu.
func (c *Catalog) firstRecLocked(stamp uint64) int {
	if len(c.past) == 0 || stamp >= c.past[len(c.past)-1].stamp {
		return len(c.past)
	}
	return sort.Search(len(c.past), func(i int) bool { return c.past[i].stamp > stamp })
}

// priorLocked returns the binding of (kind, k) before the first record
// after stamp that touched it; found is false when no such record
// exists and the live binding applies. Caller holds c.mu.
func (c *Catalog) priorLocked(kind objKind, k string, stamp uint64) (ch *catChange, found bool) {
	for i := c.firstRecLocked(stamp); i < len(c.past); i++ {
		for j := range c.past[i].changes {
			if ch := &c.past[i].changes[j]; ch.kind == kind && ch.key == k {
				return ch, true
			}
		}
	}
	return nil, false
}

// TableAt resolves a table name as of the given snapshot stamp.
func (c *Catalog) TableAt(name string, stamp uint64) (*Table, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	k := key(name)
	if ch, ok := c.priorLocked(kindTable, k, stamp); ok {
		return ch.tab, ch.tab != nil
	}
	t, ok := c.tabs[k]
	return t, ok
}

// ViewAt resolves a view name as of the given snapshot stamp.
func (c *Catalog) ViewAt(name string, stamp uint64) (*View, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	k := key(name)
	if ch, ok := c.priorLocked(kindView, k, stamp); ok {
		return ch.view, ch.view != nil
	}
	v, ok := c.vws[k]
	return v, ok
}

// SequenceAt resolves a sequence name as of the given snapshot stamp.
func (c *Catalog) SequenceAt(name string, stamp uint64) (*Sequence, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	k := key(name)
	if ch, ok := c.priorLocked(kindSeq, k, stamp); ok {
		return ch.seq, ch.seq != nil
	}
	s, ok := c.seqs[k]
	return s, ok
}

// indexOwnerAtLocked returns the owning table key of index k as of the
// stamp. Caller holds c.mu.
func (c *Catalog) indexOwnerAtLocked(k string, stamp uint64) (string, bool) {
	if ch, ok := c.priorLocked(kindIndex, k, stamp); ok {
		return ch.owner, ch.owner != ""
	}
	owner, ok := c.idxs[k]
	return owner, ok
}

// HasIndexAt reports whether the named index existed at the stamp.
func (c *Catalog) HasIndexAt(name string, stamp uint64) bool {
	c.mu.RLock()
	defer c.mu.RUnlock()
	_, ok := c.indexOwnerAtLocked(key(name), stamp)
	return ok
}

// TableIndexesAt returns the sorted index names owned by the table as
// of the stamp: the live indexes, with the records after the stamp
// undone.
func (c *Catalog) TableIndexesAt(table string, stamp uint64) []string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	tk := key(table)
	first := c.firstRecLocked(stamp)
	if first == len(c.past) {
		return c.tableIndexesLocked(tk)
	}
	owned := make(map[string]bool)
	for ix, owner := range c.idxs {
		if owner == tk {
			owned[ix] = true
		}
	}
	for i := len(c.past) - 1; i >= first; i-- {
		for _, ch := range c.past[i].changes {
			if ch.kind == kindIndex {
				owned[ch.key] = ch.owner == tk
			}
		}
	}
	var out []string
	for ix, ok := range owned {
		if ok {
			out = append(out, ix)
		}
	}
	sort.Strings(out)
	return out
}

// VersionAt returns the catalog's DDL version as of the stamp — the key
// snapshot-scoped plan and statement caches validate against, so a
// prepared program checked under a snapshot never revalidates against
// dictionary states the snapshot cannot see.
func (c *Catalog) VersionAt(stamp uint64) uint64 {
	c.mu.RLock()
	defer c.mu.RUnlock()
	if i := c.firstRecLocked(stamp); i < len(c.past) {
		return c.past[i].ver
	}
	return c.version.Load()
}
