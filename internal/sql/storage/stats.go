package storage

import (
	"sort"
	"sync/atomic"

	"minerule/internal/sql/schema"
	"minerule/internal/sql/value"
)

// ColStats summarizes one column for the cost-based planner.
type ColStats struct {
	// NDV estimates the number of distinct non-NULL values (exact below
	// kmvK distinct values, a KMV sketch estimate above it).
	NDV int64
	// Nulls counts NULL entries.
	Nulls int64
	// Min and Max bound the non-NULL values when HasRange is set; the
	// range is dropped for columns whose values do not compare (mixed
	// incomparable types).
	Min, Max value.Value
	HasRange bool
}

// TableStats is one table's statistics snapshot, consistent as of the
// refresh that produced it. The planner treats it as immutable.
type TableStats struct {
	Rows int64
	Cols []ColStats
}

// kmvK is the sketch size for NDV estimation: the k smallest 64-bit
// hashes of the distinct values seen. Columns with fewer than kmvK
// distinct values get an exact count; above it the k-th smallest hash
// estimates the distinct density of the full hash space.
const kmvK = 256

// statsStale reports whether a statistics snapshot taken at refreshed
// rows no longer describes a table of cur rows: any shrink (a
// PublishReplace from UPDATE or DELETE) and any growth beyond 20% + 64
// rows force a refresh. The slack keeps trickle inserts from rescanning
// the table per statement while bounding how far the row estimate can
// drift.
func statsStale(cur, refreshed int) bool {
	if cur < refreshed {
		return true
	}
	return cur-refreshed > refreshed/5+64
}

// Stats returns the table's statistics, recomputing them when the row
// count has drifted past the staleness bound. The second result reports
// whether this call performed a refresh (the executor counts those).
func (t *Table) Stats() (*TableStats, bool) {
	t.mu.RLock()
	if t.stats != nil && !statsStale(len(t.rows), t.statsRows) {
		s := t.stats
		t.mu.RUnlock()
		return s, false
	}
	t.mu.RUnlock()

	t.mu.Lock()
	defer t.mu.Unlock()
	// Re-check under the write lock: another statement may have
	// refreshed while this one waited.
	if t.stats != nil && !statsStale(len(t.rows), t.statsRows) {
		return t.stats, false
	}
	t.stats = computeStats(t.schema.Len(), t.rows)
	t.statsRows = len(t.rows)
	t.statsEpoch.Add(1)
	return t.stats, true
}

// CachedStats returns the current statistics snapshot without
// refreshing — possibly stale, nil when none has been computed yet.
// EXPLAIN uses it to report the estimate a planner would have seen.
func (t *Table) CachedStats() *TableStats {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.stats
}

// computeStats scans rows once, maintaining per-column KMV sketches and
// min/max bounds.
func computeStats(cols int, rows []schema.Row) *TableStats {
	st := &TableStats{Rows: int64(len(rows)), Cols: make([]ColStats, cols)}
	sketches := make([]kmvSketch, cols)
	rangeDead := make([]bool, cols) // column proved incomparable
	var keyBuf []byte
	for _, r := range rows {
		for c := 0; c < cols && c < len(r); c++ {
			v := r[c]
			cs := &st.Cols[c]
			if v.IsNull() {
				cs.Nulls++
				continue
			}
			keyBuf = v.AppendKey(keyBuf[:0])
			sketches[c].add(fnv64a(keyBuf))
			if rangeDead[c] {
				continue
			}
			if !cs.HasRange {
				cs.Min, cs.Max, cs.HasRange = v, v, true
				continue
			}
			if cmp, err := value.Compare(v, cs.Min); err != nil {
				rangeDead[c], cs.HasRange = true, false
				continue
			} else if cmp < 0 {
				cs.Min = v
			}
			if cmp, err := value.Compare(v, cs.Max); err != nil {
				rangeDead[c], cs.HasRange = true, false
			} else if cmp > 0 {
				cs.Max = v
			}
		}
	}
	for c := range st.Cols {
		st.Cols[c].NDV = sketches[c].estimate()
	}
	return st
}

// kmvSketch keeps the k minimum distinct hash values seen. Membership
// is tracked in a map bounded by k entries, so memory stays O(k)
// regardless of table size.
type kmvSketch struct {
	hashes []uint64        // sorted ascending, len <= kmvK
	member map[uint64]bool // current members of hashes
	n      int64           // values observed (not distinct)
}

func (s *kmvSketch) add(h uint64) {
	s.n++
	if s.member == nil {
		s.member = make(map[uint64]bool, kmvK)
	}
	if s.member[h] {
		return
	}
	if len(s.hashes) < kmvK {
		s.member[h] = true
		i := sort.Search(len(s.hashes), func(i int) bool { return s.hashes[i] >= h })
		s.hashes = append(s.hashes, 0)
		copy(s.hashes[i+1:], s.hashes[i:])
		s.hashes[i] = h
		return
	}
	max := s.hashes[len(s.hashes)-1]
	if h >= max {
		return
	}
	delete(s.member, max)
	s.member[h] = true
	i := sort.Search(len(s.hashes)-1, func(i int) bool { return s.hashes[i] >= h })
	copy(s.hashes[i+1:], s.hashes[i:len(s.hashes)-1])
	s.hashes[i] = h
}

// estimate returns the distinct-count estimate: exact while the sketch
// is not full, else the standard KMV estimator (k-1)/U(k) where U(k) is
// the k-th smallest hash normalized into [0, 1).
func (s *kmvSketch) estimate() int64 {
	if len(s.hashes) < kmvK {
		return int64(len(s.hashes))
	}
	kth := float64(s.hashes[len(s.hashes)-1])
	if kth == 0 {
		return int64(len(s.hashes))
	}
	est := float64(kmvK-1) / (kth / (1 << 63) / 2)
	if est < float64(kmvK) {
		est = float64(kmvK)
	}
	if est > float64(s.n) {
		est = float64(s.n)
	}
	return int64(est)
}

// fnv64a hashes the canonical key bytes of one value: FNV-1a for the
// byte walk, then a 64-bit avalanche finalizer. Raw FNV-1a is not
// uniform enough in its high bits over near-sequential keys (integer
// columns), which skews the KMV order statistics; the finalizer
// restores uniformity.
func fnv64a(b []byte) uint64 {
	h := uint64(14695981039346656037)
	for _, c := range b {
		h ^= uint64(c)
		h *= 1099511628211
	}
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}

// StatsEpoch returns the catalog's statistics generation: it advances
// whenever any table refreshes its statistics, so plan caches keyed on
// it re-derive their cost decisions once fresher estimates exist.
func (c *Catalog) StatsEpoch() uint64 { return c.statsEpoch.Load() }

// statsEpochRef hands tables the shared epoch counter at registration.
func (c *Catalog) statsEpochRef() *atomic.Uint64 { return &c.statsEpoch }
