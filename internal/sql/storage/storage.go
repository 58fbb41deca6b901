// Package storage implements the engine's in-memory storage layer: heap
// tables, named views, Oracle-style sequences, and the catalog that binds
// names to all three. The catalog doubles as the data dictionary the
// paper's translator consults to check MINE RULE statements (Figure 3.a).
package storage

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"minerule/internal/sql/schema"
)

// Table is an in-memory heap of rows with a fixed schema. Rows change
// only through PublishAppend and PublishReplace (mvcc.go), which a
// transaction commit — or recovery replay — calls at a commit stamp.
type Table struct {
	name    string
	schema  *schema.Schema
	created uint64 // stamp of the CREATE TABLE that published it

	mu      sync.RWMutex
	rows    []schema.Row // guarded by mu; current row generation
	indexes []*Index     // guarded by mu; indexes over the current generation

	// MVCC state (see mvcc.go): bounds are the current generation's
	// visibility boundaries, hist the superseded generations still
	// reachable by registered snapshots.
	bounds []rowBound // guarded by mu
	hist   []oldGen   // guarded by mu

	// stats is the last statistics snapshot (nil until first computed);
	// statsRows is the row count it was computed at, which drives the
	// staleness test. statsEpoch points at the owning catalog's shared
	// statistics generation counter. All three are guarded by mu.
	stats      *TableStats    // guarded by mu
	statsRows  int            // guarded by mu
	statsEpoch *atomic.Uint64 // guarded by mu (the pointer; the counter is atomic)
}

// Name returns the table's catalog name.
func (t *Table) Name() string { return t.name }

// Schema returns the table's schema.
func (t *Table) Schema() *schema.Schema { return t.schema }

// Len returns the current row count.
func (t *Table) Len() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return len(t.rows)
}

// Snapshot returns the row slice as of now. The slice must be treated as
// read-only; appends by writers never move existing elements because the
// snapshot aliases the array prefix only.
func (t *Table) Snapshot() []schema.Row {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.rows[:len(t.rows):len(t.rows)]
}

// Sequence is an Oracle-style monotone counter supporting NEXTVAL,
// used by the paper's Q2–Q5 to mint Gid/Bid/Hid/Cid identifiers.
type Sequence struct {
	name   string
	mu     sync.Mutex
	next   int64   // guarded by mu
	logged int64   // guarded by mu; ceiling already journaled, values below it need no log
	jn     Journal // guarded by mu; nil on in-memory databases
}

// seqCache is how far past the current value a SeqBump record reaches:
// one journal append covers the next seqCache NEXTVALs, and a crash
// skips at most that many values (Oracle's CACHE semantics).
const seqCache = 32

// NewSequence creates a sequence starting at 1, matching Oracle's
// CREATE SEQUENCE default.
func NewSequence(name string) *Sequence { return &Sequence{name: name, next: 1, logged: 1} }

// Name returns the sequence's catalog name.
func (s *Sequence) Name() string { return s.name }

// NextVal returns the current value and advances the sequence. NEXTVAL
// cannot fail, so a journal error here does not surface — the durable
// store remembers it and fails the statement at its commit point; the
// ceiling stays unlogged so the bump is retried rather than lost.
func (s *Sequence) NextVal() int64 {
	s.mu.Lock()
	if s.jn != nil && s.next >= s.logged {
		if err := s.jn.SequenceBump(s.name, s.next+seqCache); err == nil {
			s.logged = s.next + seqCache
		}
	}
	v := s.next
	s.next++
	s.mu.Unlock()
	return v
}

// CurrentVal returns the value NextVal would return, without advancing.
func (s *Sequence) CurrentVal() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.next
}

// LoggedCeiling returns the highest value covered by a journaled bump —
// what a checkpoint must persist so NEXTVAL never repeats a value handed
// out before a crash. On an in-memory database it equals CurrentVal.
func (s *Sequence) LoggedCeiling() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.logged > s.next {
		return s.logged
	}
	return s.next
}

// Restore sets the next value (used when loading a saved database or
// replaying a SeqBump record). The restored value counts as logged.
func (s *Sequence) Restore(next int64) {
	s.mu.Lock()
	s.next = next
	s.logged = next
	s.mu.Unlock()
}

// View is a named stored query. The text is re-planned at each use, which
// gives the paper's "not materialized view" semantics for Q11.
type View struct {
	Name string
	Text string // the SELECT body
}

// Catalog is the data dictionary: a name → object map for tables, views
// and sequences. Names are case-insensitive.
type Catalog struct {
	// pubMu is the publish lock (see LockPublish in mvcc.go): committing
	// transactions, DDL statements and checkpoints serialize on it so the
	// visible watermark only ever covers fully applied effects. It is
	// acquired before mu; it guards no fields itself.
	pubMu sync.Mutex

	mu   sync.RWMutex
	tabs map[string]*Table    // guarded by mu
	vws  map[string]*View     // guarded by mu
	seqs map[string]*Sequence // guarded by mu
	idxs map[string]string    // guarded by mu; index name → owning table name
	jn   Journal              // guarded by mu; nil on in-memory databases

	// stamps is the commit-stamp clock shared by every object in the
	// catalog; history/past retain superseded name maps for snapshot
	// readers (see mvcc.go).
	stamps  StampClock
	history bool     // guarded by mu; record DDL history (a txn manager is attached)
	past    []catRec // guarded by mu; one record per DDL, ascending by stamp

	// version counts DDL mutations. Caches of anything derived from the
	// dictionary (resolved view plans, compiled statements bound to
	// catalog objects) key on it: a mismatch means the dictionary changed
	// underneath and the cached artifact must be rebuilt.
	version atomic.Uint64

	// statsEpoch counts table-statistics refreshes across the catalog;
	// cost-based plan decisions cache against it (see StatsEpoch).
	statsEpoch atomic.Uint64
}

// Version returns the catalog's DDL generation counter. Every mutation
// of the dictionary (create/drop of a table, view, index or sequence)
// advances it.
func (c *Catalog) Version() uint64 { return c.version.Load() }

// NewCatalog returns an empty catalog.
func NewCatalog() *Catalog {
	return &Catalog{
		tabs: make(map[string]*Table),
		vws:  make(map[string]*View),
		seqs: make(map[string]*Sequence),
		idxs: make(map[string]string),
	}
}

func key(name string) string { return strings.ToLower(name) }

// taken reports what kind of object already holds the name, if any.
// Tables, views and sequences share one namespace, as in the SQL servers
// the paper targets. The caller must hold c.mu.
func (c *Catalog) taken(k string) (string, bool) {
	if _, ok := c.tabs[k]; ok {
		return "table", true
	}
	if _, ok := c.vws[k]; ok {
		return "view", true
	}
	if _, ok := c.seqs[k]; ok {
		return "sequence", true
	}
	if _, ok := c.idxs[k]; ok {
		return "index", true
	}
	return "", false
}

// CreateTable registers a new empty table.
func (c *Catalog) CreateTable(name string, s *schema.Schema) (*Table, error) {
	c.pubMu.Lock()
	defer c.pubMu.Unlock()
	c.mu.Lock()
	defer c.mu.Unlock()
	k := key(name)
	if kind, ok := c.taken(k); ok {
		return nil, fmt.Errorf("catalog: %q already exists as a %s", name, kind)
	}
	if c.jn != nil {
		if err := c.jn.CreateTable(name, s); err != nil {
			return nil, err
		}
	}
	stamp := c.ddlStampLocked(catChange{kind: kindTable, key: k})
	// The table is unpublished until the map insert below, so its
	// fields may be set lock-free.
	t := &Table{name: name, schema: s, created: stamp, statsEpoch: c.statsEpochRef()}
	c.tabs[k] = t
	c.version.Add(1)
	c.stamps.SetVisible(stamp)
	return t, nil
}

// DropTable removes a table and its indexes; it is an error if absent.
func (c *Catalog) DropTable(name string) error {
	c.pubMu.Lock()
	defer c.pubMu.Unlock()
	c.mu.Lock()
	defer c.mu.Unlock()
	k := key(name)
	t, ok := c.tabs[k]
	if !ok {
		return fmt.Errorf("catalog: table %q does not exist", name)
	}
	if c.jn != nil {
		if err := c.jn.DropTable(name); err != nil {
			return err
		}
	}
	ixs := t.Indexes()
	changes := make([]catChange, 0, 1+len(ixs))
	changes = append(changes, catChange{kind: kindTable, key: k, tab: t})
	for _, ix := range ixs {
		changes = append(changes, catChange{kind: kindIndex, key: key(ix.Name()), owner: k})
	}
	stamp := c.ddlStampLocked(changes...)
	for _, ix := range ixs {
		delete(c.idxs, key(ix.Name()))
	}
	delete(c.tabs, k)
	c.version.Add(1)
	c.stamps.SetVisible(stamp)
	return nil
}

// CreateIndex builds a hash index named name on table.column.
func (c *Catalog) CreateIndex(name, table string, col int) (*Index, error) {
	c.pubMu.Lock()
	defer c.pubMu.Unlock()
	c.mu.Lock()
	defer c.mu.Unlock()
	k := key(name)
	if kind, taken := c.taken(k); taken {
		return nil, fmt.Errorf("catalog: %q already exists as a %s", name, kind)
	}
	t, ok := c.tabs[key(table)]
	if !ok {
		return nil, fmt.Errorf("catalog: table %q does not exist", table)
	}
	if col < 0 || col >= t.Schema().Len() {
		// Validated here so a journaled record is always replayable.
		return nil, fmt.Errorf("storage: index column %d out of range", col)
	}
	if c.jn != nil {
		if err := c.jn.CreateIndex(name, table, col); err != nil {
			return nil, err
		}
	}
	stamp := c.ddlStampLocked(catChange{kind: kindIndex, key: k})
	ix, err := t.CreateIndex(name, col)
	if err != nil {
		return nil, err
	}
	c.idxs[k] = key(table)
	c.version.Add(1)
	c.stamps.SetVisible(stamp)
	return ix, nil
}

// DropIndex removes a named index wherever it lives.
func (c *Catalog) DropIndex(name string) error {
	c.pubMu.Lock()
	defer c.pubMu.Unlock()
	c.mu.Lock()
	defer c.mu.Unlock()
	k := key(name)
	tabKey, ok := c.idxs[k]
	if !ok {
		return fmt.Errorf("catalog: index %q does not exist", name)
	}
	if c.jn != nil {
		if err := c.jn.DropIndex(name); err != nil {
			return err
		}
	}
	stamp := c.ddlStampLocked(catChange{kind: kindIndex, key: k, owner: tabKey})
	if t, ok := c.tabs[tabKey]; ok {
		if err := t.DropIndex(name); err != nil {
			return err
		}
	}
	delete(c.idxs, k)
	c.version.Add(1)
	c.stamps.SetVisible(stamp)
	return nil
}

// Table looks up a table by name.
func (c *Catalog) Table(name string) (*Table, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	t, ok := c.tabs[key(name)]
	return t, ok
}

// CreateView registers a named view over the given SELECT text.
func (c *Catalog) CreateView(name, text string) error {
	c.pubMu.Lock()
	defer c.pubMu.Unlock()
	c.mu.Lock()
	defer c.mu.Unlock()
	k := key(name)
	if kind, ok := c.taken(k); ok {
		return fmt.Errorf("catalog: %q already exists as a %s", name, kind)
	}
	if c.jn != nil {
		if err := c.jn.CreateView(name, text); err != nil {
			return err
		}
	}
	stamp := c.ddlStampLocked(catChange{kind: kindView, key: k})
	c.vws[k] = &View{Name: name, Text: text}
	c.version.Add(1)
	c.stamps.SetVisible(stamp)
	return nil
}

// DropView removes a view; it is an error if absent.
func (c *Catalog) DropView(name string) error {
	c.pubMu.Lock()
	defer c.pubMu.Unlock()
	c.mu.Lock()
	defer c.mu.Unlock()
	k := key(name)
	v, ok := c.vws[k]
	if !ok {
		return fmt.Errorf("catalog: view %q does not exist", name)
	}
	if c.jn != nil {
		if err := c.jn.DropView(name); err != nil {
			return err
		}
	}
	stamp := c.ddlStampLocked(catChange{kind: kindView, key: k, view: v})
	delete(c.vws, k)
	c.version.Add(1)
	c.stamps.SetVisible(stamp)
	return nil
}

// View looks up a view by name.
func (c *Catalog) View(name string) (*View, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	v, ok := c.vws[key(name)]
	return v, ok
}

// CreateSequence registers a new sequence starting at 1.
func (c *Catalog) CreateSequence(name string) (*Sequence, error) {
	c.pubMu.Lock()
	defer c.pubMu.Unlock()
	c.mu.Lock()
	defer c.mu.Unlock()
	k := key(name)
	if kind, ok := c.taken(k); ok {
		return nil, fmt.Errorf("catalog: %q already exists as a %s", name, kind)
	}
	if c.jn != nil {
		if err := c.jn.CreateSequence(name); err != nil {
			return nil, err
		}
	}
	stamp := c.ddlStampLocked(catChange{kind: kindSeq, key: k})
	// Literal construction for the same unpublished-object reason as
	// CreateTable; next/logged start at 1 as in NewSequence.
	s := &Sequence{name: name, next: 1, logged: 1, jn: c.jn}
	c.seqs[k] = s
	c.version.Add(1)
	c.stamps.SetVisible(stamp)
	return s, nil
}

// DropSequence removes a sequence; it is an error if absent.
func (c *Catalog) DropSequence(name string) error {
	c.pubMu.Lock()
	defer c.pubMu.Unlock()
	c.mu.Lock()
	defer c.mu.Unlock()
	k := key(name)
	seq, ok := c.seqs[k]
	if !ok {
		return fmt.Errorf("catalog: sequence %q does not exist", name)
	}
	if c.jn != nil {
		if err := c.jn.DropSequence(name); err != nil {
			return err
		}
	}
	stamp := c.ddlStampLocked(catChange{kind: kindSeq, key: k, seq: seq})
	delete(c.seqs, k)
	c.version.Add(1)
	c.stamps.SetVisible(stamp)
	return nil
}

// Sequence looks up a sequence by name.
func (c *Catalog) Sequence(name string) (*Sequence, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	s, ok := c.seqs[key(name)]
	return s, ok
}

// Exists reports whether any object (table, view or sequence) has the name.
func (c *Catalog) Exists(name string) bool {
	c.mu.RLock()
	defer c.mu.RUnlock()
	k := key(name)
	_, t := c.tabs[k]
	_, v := c.vws[k]
	_, s := c.seqs[k]
	return t || v || s
}

// HasIndex reports whether an index with the given name exists. Indexes
// live in their own namespace slot of the dictionary (they are owned by
// tables and dropped with them), so Exists does not cover them.
func (c *Catalog) HasIndex(name string) bool {
	c.mu.RLock()
	defer c.mu.RUnlock()
	_, ok := c.idxs[key(name)]
	return ok
}

// IndexOwner returns the table owning the named index, if the index
// exists (the lock a DROP INDEX must take before touching the table).
func (c *Catalog) IndexOwner(name string) (string, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	t, ok := c.idxs[key(name)]
	return t, ok
}

// TableIndexes returns the sorted names of the indexes owned by the
// named table (they leave the namespace together with it on DROP TABLE).
func (c *Catalog) TableIndexes(table string) []string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.tableIndexesLocked(key(table))
}

// tableIndexesLocked lists the live indexes owned by table key tk,
// sorted. Caller holds c.mu.
func (c *Catalog) tableIndexesLocked(tk string) []string {
	var out []string
	for ix, owner := range c.idxs {
		if owner == tk {
			out = append(out, ix)
		}
	}
	sort.Strings(out)
	return out
}

// TableNames returns the sorted list of table names (for tooling).
func (c *Catalog) TableNames() []string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]string, 0, len(c.tabs))
	for _, t := range c.tabs {
		out = append(out, t.Name())
	}
	sort.Strings(out)
	return out
}

// SequenceNames returns the sorted list of sequence names.
func (c *Catalog) SequenceNames() []string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]string, 0, len(c.seqs))
	for _, s := range c.seqs {
		out = append(out, s.Name())
	}
	sort.Strings(out)
	return out
}

// ViewNames returns the sorted list of view names.
func (c *Catalog) ViewNames() []string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]string, 0, len(c.vws))
	for _, v := range c.vws {
		out = append(out, v.Name)
	}
	sort.Strings(out)
	return out
}
