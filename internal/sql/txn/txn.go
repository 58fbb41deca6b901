package txn

import (
	"context"
	"fmt"
	"strings"

	"minerule/internal/resource"
	"minerule/internal/sql/schema"
	"minerule/internal/sql/storage"
	"minerule/internal/sql/wal"
)

// Txn is one transaction: a consistent snapshot for reads, buffered
// writes under exclusive table locks, and a single atomic commit.
//
// Reads (SELECT, MINE RULE, semantic checks) resolve names and rows as
// of the snapshot stamp taken at Begin — lock-free, unaffected by
// concurrent commits and DDL. Writes resolve against the live catalog
// under the table's lock and buffer in per-table overlays; the
// transaction reads its own writes. Commit logs the whole write set as
// one atomic WAL frame, publishes it at a fresh commit stamp, releases
// locks, and then waits for durability via group fsync.
//
// DDL is non-transactional, as in most SQL engines' spirit if not
// letter: it journals and publishes immediately (taking the affected
// table's lock so it cannot race a writer), advances this
// transaction's own snapshot so the statement sees what it created,
// and is NOT undone by ROLLBACK.
//
// A Txn belongs to one session and is not safe for concurrent use; the
// Manager and the storage layer provide all cross-transaction safety.
type Txn struct {
	m      *Manager
	snap   uint64
	limits resource.Limits

	writes map[string]*tableWrite // keyed by lowercase table name
	order  []string               // the keys of writes, each once, in insertion order (deterministic log/publish order)

	held      map[string]bool // lock keys this txn holds
	heldOrder []string

	charged  int  // page-I/O charged so far (MaxPageIO accounting)
	mustSync bool // a side-channel journal append (DDL, sequence bump) needs the commit fsync
	finished bool
}

// tableWrite is one table's uncommitted overlay. base is the committed
// row state captured under the lock (the latest state — the lock
// guarantees it can no longer change); appends accumulate separately
// until a whole-table rewrite flips replaced, after which rows carries
// the full divergent state.
type tableWrite struct {
	t        *storage.Table
	base     []schema.Row
	appended []schema.Row
	rows     []schema.Row
	replaced bool
	view     []schema.Row // cached base+appended concatenation
}

// visible returns the overlay's current row view.
func (w *tableWrite) visible() []schema.Row {
	if w.replaced {
		return w.rows
	}
	if len(w.appended) == 0 {
		return w.base
	}
	if len(w.view) != len(w.base)+len(w.appended) {
		w.view = make([]schema.Row, 0, len(w.base)+len(w.appended))
		w.view = append(w.view, w.base...)
		w.view = append(w.view, w.appended...)
	}
	return w.view
}

// diverged reports whether the overlay differs from its base.
func (w *tableWrite) diverged() bool { return w.replaced || len(w.appended) > 0 }

func lockKey(name string) string { return strings.ToLower(name) }

// Snap returns the transaction's snapshot stamp (tests, diagnostics).
func (tx *Txn) Snap() uint64 { return tx.snap }

// SetLimits installs the resource limits the commit's page-I/O charge
// runs under. The engine calls it at each statement boundary with the
// statement's effective limits.
func (tx *Txn) SetLimits(l resource.Limits) { tx.limits = l }

// ---------------------------------------------------------------------------
// Snapshot reads

// Table resolves a table name as of the snapshot; a table this
// transaction has opened for write resolves to the locked live table.
func (tx *Txn) Table(name string) (*storage.Table, bool) {
	if w := tx.writes[lockKey(name)]; w != nil {
		return w.t, true
	}
	return tx.m.cat.TableAt(name, tx.snap)
}

// View resolves a view name as of the snapshot.
func (tx *Txn) View(name string) (*storage.View, bool) {
	return tx.m.cat.ViewAt(name, tx.snap)
}

// Sequence resolves a sequence as of the snapshot. Sequences are
// non-transactional (NEXTVAL burns values immediately, Oracle-style);
// resolving one marks the transaction as needing the commit fsync,
// since a NEXTVAL may journal a cache-ceiling bump.
func (tx *Txn) Sequence(name string) (*storage.Sequence, bool) {
	s, ok := tx.m.cat.SequenceAt(name, tx.snap)
	if ok && tx.m.jn != nil {
		tx.mustSync = true
	}
	return s, ok
}

// Rows returns t's rows as this transaction sees them: the uncommitted
// overlay for tables it wrote, the snapshot state otherwise. The slice
// is read-only.
func (tx *Txn) Rows(t *storage.Table) []schema.Row {
	if w := tx.writes[lockKey(t.Name())]; w != nil {
		return w.visible()
	}
	return t.RowsAt(tx.snap)
}

// Len returns t's row count as this transaction sees it.
func (tx *Txn) Len(t *storage.Table) int {
	if w := tx.writes[lockKey(t.Name())]; w != nil {
		if w.replaced {
			return len(w.rows)
		}
		return len(w.base) + len(w.appended)
	}
	return t.LenAt(tx.snap)
}

// IndexOn returns an index usable for point lookups on the column, or
// nil when none applies. A written table's overlay is unindexed once it
// diverges, so lookups fall back to scans there.
func (tx *Txn) IndexOn(t *storage.Table, col int) *storage.Index {
	if w := tx.writes[lockKey(t.Name())]; w != nil {
		if w.diverged() {
			return nil
		}
		// Undiverged overlay: base is the live state and the lock keeps
		// it still, so the live index covers it exactly.
		return t.IndexOn(col)
	}
	return t.IndexOnAt(col, tx.snap)
}

// Lookup performs a point lookup through an index obtained from
// IndexOn, restricted to the rows this transaction sees.
func (tx *Txn) Lookup(t *storage.Table, ix *storage.Index, key string) []schema.Row {
	if w := tx.writes[lockKey(t.Name())]; w != nil {
		return t.Lookup(ix, key)
	}
	return t.LookupAt(ix, key, tx.snap)
}

// CatalogVersion returns the catalog's DDL version as of the snapshot —
// the key the statement and view-plan caches validate against, so a
// prepared program never revalidates against dictionary states this
// snapshot cannot see.
func (tx *Txn) CatalogVersion() uint64 { return tx.m.cat.VersionAt(tx.snap) }

// StatsEpoch returns the live statistics epoch. Statistics are
// planning advice, not visibility state; the freshest estimates are
// the most useful ones regardless of snapshot.
func (tx *Txn) StatsEpoch() uint64 { return tx.m.cat.StatsEpoch() }

// ---------------------------------------------------------------------------
// semck.Catalog: prepare-time checks resolve against the snapshot.

// TableSchema implements semck.Catalog.
func (tx *Txn) TableSchema(name string) (*schema.Schema, bool) {
	t, ok := tx.Table(name)
	if !ok {
		return nil, false
	}
	return t.Schema(), true
}

// ViewText implements semck.Catalog.
func (tx *Txn) ViewText(name string) (string, bool) {
	v, ok := tx.View(name)
	if !ok {
		return "", false
	}
	return v.Text, true
}

// HasSequence implements semck.Catalog.
func (tx *Txn) HasSequence(name string) bool {
	_, ok := tx.m.cat.SequenceAt(name, tx.snap)
	return ok
}

// HasIndex implements semck.Catalog.
func (tx *Txn) HasIndex(name string) bool { return tx.m.cat.HasIndexAt(name, tx.snap) }

// TableIndexes implements semck.Catalog.
func (tx *Txn) TableIndexes(table string) []string {
	return tx.m.cat.TableIndexesAt(table, tx.snap)
}

// ---------------------------------------------------------------------------
// Writes

// lock acquires (or re-enters) the table lock for key k.
func (tx *Txn) lock(ctx context.Context, k string) error {
	if tx.held[k] {
		return nil
	}
	if err := tx.m.locks.acquire(ctx, tx, k); err != nil {
		return err
	}
	if tx.held == nil {
		tx.held = make(map[string]bool)
	}
	tx.held[k] = true
	tx.heldOrder = append(tx.heldOrder, k)
	return nil
}

// ForWrite opens the named table for mutation: the table's exclusive
// lock is acquired (FIFO behind other writers, bounded wait), the live
// table resolved, and an overlay created whose base is the committed
// state — which the lock now freezes. ok is false when no such table
// exists (the lock is kept; it is released with the rest at txn end).
func (tx *Txn) ForWrite(ctx context.Context, name string) (t *storage.Table, ok bool, err error) {
	k := lockKey(name)
	if w := tx.writes[k]; w != nil {
		return w.t, true, nil
	}
	if err := tx.lock(ctx, k); err != nil {
		return nil, false, err
	}
	live, ok := tx.m.cat.Table(name)
	if !ok {
		return nil, false, nil
	}
	if tx.writes == nil {
		tx.writes = make(map[string]*tableWrite)
	}
	tx.writes[k] = &tableWrite{t: live, base: live.Snapshot()}
	tx.order = append(tx.order, k)
	return live, true, nil
}

// InsertRows buffers an append to a table previously opened with
// ForWrite. Nothing is journaled or visible to other transactions
// until Commit.
func (tx *Txn) InsertRows(t *storage.Table, rows []schema.Row) error {
	w := tx.writes[lockKey(t.Name())]
	if w == nil {
		return fmt.Errorf("txn: insert into table %q not opened for write", t.Name())
	}
	if w.replaced {
		w.rows = append(w.rows, rows...)
	} else {
		w.appended = append(w.appended, rows...)
	}
	w.view = nil
	return nil
}

// ReplaceRows buffers a whole-table rewrite (UPDATE/DELETE's idiom) of
// a table previously opened with ForWrite, taking ownership of rows.
func (tx *Txn) ReplaceRows(t *storage.Table, rows []schema.Row) error {
	w := tx.writes[lockKey(t.Name())]
	if w == nil {
		return fmt.Errorf("txn: replace of table %q not opened for write", t.Name())
	}
	w.replaced = true
	w.rows = rows
	w.appended = nil
	w.view = nil
	return nil
}

// ---------------------------------------------------------------------------
// DDL (non-transactional; see the type comment)

// ddlDone advances the snapshot past the DDL just applied and marks the
// commit as needing the group fsync (the DDL's journal append is not
// durable until then).
func (tx *Txn) ddlDone() {
	tx.m.advance(tx)
	if tx.m.jn != nil {
		tx.mustSync = true
	}
}

// CreateTable creates a table through the transaction.
func (tx *Txn) CreateTable(ctx context.Context, name string, s *schema.Schema) (*storage.Table, error) {
	t, err := tx.m.cat.CreateTable(name, s)
	if err != nil {
		return nil, err
	}
	tx.ddlDone()
	return t, nil
}

// DropTable drops a table. The table's lock is taken first, so the
// drop cannot race a writer mid-commit; any uncommitted writes this
// transaction had buffered for the table are discarded with it.
func (tx *Txn) DropTable(ctx context.Context, name string) error {
	k := lockKey(name)
	if err := tx.lock(ctx, k); err != nil {
		return err
	}
	if err := tx.m.cat.DropTable(name); err != nil {
		return err
	}
	if tx.writes[k] != nil {
		delete(tx.writes, k)
		// A re-created table's ForWrite appends k again; leaving this
		// entry would log and publish the new overlay twice.
		for i, o := range tx.order {
			if o == k {
				tx.order = append(tx.order[:i], tx.order[i+1:]...)
				break
			}
		}
	}
	tx.ddlDone()
	return nil
}

// CreateIndex creates an index, locking the indexed table so the build
// cannot race a writer.
func (tx *Txn) CreateIndex(ctx context.Context, name, table string, col int) (*storage.Index, error) {
	if err := tx.lock(ctx, lockKey(table)); err != nil {
		return nil, err
	}
	ix, err := tx.m.cat.CreateIndex(name, table, col)
	if err != nil {
		return nil, err
	}
	tx.ddlDone()
	return ix, nil
}

// DropIndex drops an index, locking its owning table first.
func (tx *Txn) DropIndex(ctx context.Context, name string) error {
	if owner, ok := tx.m.cat.IndexOwner(name); ok {
		if err := tx.lock(ctx, lockKey(owner)); err != nil {
			return err
		}
	}
	if err := tx.m.cat.DropIndex(name); err != nil {
		return err
	}
	tx.ddlDone()
	return nil
}

// CreateView creates a view through the transaction.
func (tx *Txn) CreateView(name, text string) error {
	if err := tx.m.cat.CreateView(name, text); err != nil {
		return err
	}
	tx.ddlDone()
	return nil
}

// DropView drops a view through the transaction.
func (tx *Txn) DropView(name string) error {
	if err := tx.m.cat.DropView(name); err != nil {
		return err
	}
	tx.ddlDone()
	return nil
}

// CreateSequence creates a sequence through the transaction.
func (tx *Txn) CreateSequence(name string) (*storage.Sequence, error) {
	s, err := tx.m.cat.CreateSequence(name)
	if err != nil {
		return nil, err
	}
	tx.ddlDone()
	return s, nil
}

// DropSequence drops a sequence through the transaction.
func (tx *Txn) DropSequence(name string) error {
	if err := tx.m.cat.DropSequence(name); err != nil {
		return err
	}
	tx.ddlDone()
	return nil
}

// ---------------------------------------------------------------------------
// Savepoints

// Savepoint marks the current write-set state. The engine takes one
// before each statement inside an explicit transaction so a failed
// statement rolls back alone, leaving the transaction usable.
type Savepoint struct {
	marks map[string]tableMark
}

// tableMark freezes one overlay's state by slice header: later
// operations only append to or wholesale-replace these slices, so the
// saved headers keep addressing the prefix as it was. w identifies the
// overlay, so a table dropped and re-created after the mark is told
// apart from the one the mark describes.
type tableMark struct {
	w        *tableWrite
	appended []schema.Row
	rows     []schema.Row
	replaced bool
}

// Savepoint captures the write-set state for RollbackTo.
func (tx *Txn) Savepoint() Savepoint {
	var sp Savepoint
	if len(tx.writes) > 0 {
		sp.marks = make(map[string]tableMark, len(tx.writes))
		for k, w := range tx.writes {
			sp.marks[k] = tableMark{w: w, appended: w.appended, rows: w.rows, replaced: w.replaced}
		}
	}
	return sp
}

// RollbackTo restores the write set to a savepoint taken on this
// transaction: overlays opened after the mark — including one for a
// table dropped and re-created since — drop out entirely; earlier
// overlays revert to their marked state. Locks acquired since are kept
// until transaction end (releasing mid-txn would let another writer
// interleave with our still-pending earlier writes). DDL is not undone.
func (tx *Txn) RollbackTo(sp Savepoint) {
	kept := tx.order[:0]
	for _, k := range tx.order {
		w := tx.writes[k]
		mark, ok := sp.marks[k]
		if !ok || mark.w != w {
			delete(tx.writes, k)
			continue
		}
		w.appended = mark.appended
		w.rows = mark.rows
		w.replaced = mark.replaced
		w.view = nil
		kept = append(kept, k)
	}
	tx.order = kept
}

// ---------------------------------------------------------------------------
// Commit / rollback

// charge is the page-I/O budget hook AppendBatch calls before logging
// the commit frame; exceeding MaxPageIO vetoes the commit before any
// byte reaches the WAL.
func (tx *Txn) charge(pages int) error {
	if tx.limits.MaxPageIO <= 0 {
		return nil
	}
	tx.charged += pages
	if tx.charged > tx.limits.MaxPageIO {
		return &resource.BudgetError{Resource: "pageio", Limit: tx.limits.MaxPageIO}
	}
	return nil
}

// buildRecords turns the write set into WAL records in write order.
// Overlays whose table is no longer the live one under its name are
// skipped: a record for a dead table must never reach the log.
func (tx *Txn) buildRecords() []*wal.Record {
	var recs []*wal.Record
	for _, k := range tx.order {
		w := tx.writes[k]
		if w == nil || !w.diverged() {
			continue
		}
		if cur, ok := tx.m.cat.Table(w.t.Name()); !ok || cur != w.t {
			continue
		}
		if w.replaced {
			recs = append(recs, &wal.Record{Kind: wal.KindReplace, Name: w.t.Name(), Rows: w.rows})
		} else {
			recs = append(recs, &wal.Record{Kind: wal.KindInsert, Name: w.t.Name(), Rows: w.appended})
		}
	}
	return recs
}

// Commit makes the write set atomically visible and durable:
//
//  1. Under the catalog publish lock, the whole write set is appended
//     to the WAL as one frame (budget veto before any byte is logged;
//     an error here aborts the transaction with nothing published).
//     Append and publish share the lock so a checkpoint — which equates
//     "appended at or below the manifest LSN" with "applied in memory"
//     — can never capture a frame whose overlays it has not seen.
//  2. Still under the publish lock, a commit stamp is allocated at the
//     frame's LSN (or the next logical stamp in memory), every overlay
//     is published at it, and the visible watermark advances — readers
//     see all of the commit or none of it.
//  3. Locks release, unblocking queued writers.
//  4. SyncTo waits for the frame to be durable, sharing one fsync with
//     concurrently committing transactions (group commit). Only then is
//     the commit acknowledged — a crash beforehand loses an unacked
//     commit, never an acked one.
func (tx *Txn) Commit(ctx context.Context) error {
	if tx.finished {
		return nil
	}
	m := tx.m
	recs := tx.buildRecords()
	var lsn uint64
	if len(recs) > 0 {
		m.cat.LockPublish()
		if m.jn != nil {
			var err error
			lsn, err = m.jn.AppendBatch(recs, tx.charge)
			if err != nil {
				m.cat.UnlockPublish()
				tx.abort()
				return err
			}
		}
		stamp := m.cat.Stamps().Next(lsn)
		lwm := m.unregister(tx)
		for _, k := range tx.order {
			w := tx.writes[k]
			if w == nil || !w.diverged() {
				continue
			}
			if cur, ok := m.cat.Table(w.t.Name()); !ok || cur != w.t {
				continue
			}
			if w.replaced {
				w.t.PublishReplace(stamp, w.rows, lwm)
			} else {
				w.t.PublishAppend(stamp, w.appended, lwm)
			}
		}
		m.cat.Stamps().SetVisible(stamp)
		m.cat.UnlockPublish()
		m.cat.PruneHistory(lwm)
	} else {
		lwm := m.unregister(tx)
		m.cat.PruneHistory(lwm)
	}
	tx.releaseLocks()
	tx.finished = true
	tx.writes = nil
	if m.met != nil {
		m.met.TxnCommitted.Inc()
	}
	if m.jn != nil && (lsn > 0 || tx.mustSync) {
		syncLSN := lsn
		if syncLSN == 0 {
			syncLSN = m.jn.LastLSN()
		}
		if err := m.jn.SyncTo(syncLSN); err != nil {
			return err
		}
		if m.met != nil {
			m.met.GroupCommits.Inc()
		}
	}
	return nil
}

// Rollback discards the write set: nothing was journaled or published,
// so forgetting the overlays and releasing the locks is the whole job.
// DDL the transaction performed stays (it is non-transactional).
// Rollback after Commit (or a second Rollback) is a no-op.
func (tx *Txn) Rollback() {
	if tx.finished {
		return
	}
	tx.abort()
}

func (tx *Txn) abort() {
	lwm := tx.m.unregister(tx)
	tx.m.cat.PruneHistory(lwm)
	tx.releaseLocks()
	tx.finished = true
	tx.writes = nil
	if tx.m.met != nil {
		tx.m.met.TxnRolledBack.Inc()
	}
}

func (tx *Txn) releaseLocks() {
	if len(tx.heldOrder) == 0 {
		return
	}
	tx.m.locks.release(tx, tx.heldOrder)
	tx.heldOrder = nil
	tx.held = nil
}
