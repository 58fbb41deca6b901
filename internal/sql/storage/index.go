package storage

import (
	"fmt"
	"strings"

	"minerule/internal/sql/schema"
)

// Index is a single-column hash index over a table: equality lookups in
// O(1) instead of a scan. Maintained under the owning table's lock on
// every mutation; NULLs are not indexed (SQL equality never matches
// them).
//
// Buckets are held by pointer so that appending a position to an
// existing bucket needs only an allocation-free map lookup — a key
// string is materialized only when a value is seen for the first time.
// The scratch buffer is reused across add calls; it is safe because all
// mutation happens under the owning table's write lock.
type Index struct {
	name    string
	col     int
	m       map[string]*[]int // value key → row positions
	scratch []byte
}

// Name returns the index's catalog name.
func (ix *Index) Name() string { return ix.name }

// Column returns the indexed column ordinal.
func (ix *Index) Column() int { return ix.col }

// CreateIndex builds a hash index over column col of the table,
// covering existing rows.
func (t *Table) CreateIndex(name string, col int) (*Index, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if col < 0 || col >= t.schema.Len() {
		return nil, fmt.Errorf("storage: index column %d out of range", col)
	}
	for _, ix := range t.indexes {
		if strings.EqualFold(ix.name, name) {
			return nil, fmt.Errorf("storage: index %q already exists on %s", name, t.name)
		}
	}
	ix := &Index{name: name, col: col, m: make(map[string]*[]int)}
	for pos, row := range t.rows {
		ix.add(row, pos)
	}
	t.indexes = append(t.indexes, ix)
	return ix, nil
}

// DropIndex removes the named index.
func (t *Table) DropIndex(name string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	for i, ix := range t.indexes {
		if strings.EqualFold(ix.name, name) {
			t.indexes = append(t.indexes[:i], t.indexes[i+1:]...)
			return nil
		}
	}
	return fmt.Errorf("storage: index %q does not exist on %s", name, t.name)
}

// IndexOn returns an index covering the column ordinal, if any.
func (t *Table) IndexOn(col int) *Index {
	t.mu.RLock()
	defer t.mu.RUnlock()
	for _, ix := range t.indexes {
		if ix.col == col {
			return ix
		}
	}
	return nil
}

// Indexes returns the table's index list (for tooling and persistence).
func (t *Table) Indexes() []*Index {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return append([]*Index(nil), t.indexes...)
}

// Lookup returns the rows whose indexed column equals key (a
// value.Value.Key result). The caller must treat the rows as read-only.
func (t *Table) Lookup(ix *Index, key string) []schema.Row {
	t.mu.RLock()
	defer t.mu.RUnlock()
	bucket := ix.m[key]
	if bucket == nil {
		return nil
	}
	positions := *bucket
	out := make([]schema.Row, len(positions))
	for i, p := range positions {
		out[i] = t.rows[p]
	}
	return out
}

func (ix *Index) add(row schema.Row, pos int) {
	v := row[ix.col]
	if v.IsNull() {
		return
	}
	ix.scratch = v.AppendKey(ix.scratch[:0])
	if bucket := ix.m[string(ix.scratch)]; bucket != nil {
		*bucket = append(*bucket, pos)
		return
	}
	bucket := []int{pos}
	ix.m[string(ix.scratch)] = &bucket
}
