package storage

import (
	"maps"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// fullCopyHistory is the reference model for the catalog's name-map
// history: before every DDL it keeps a full copy of all four name maps,
// and a snapshot resolves names in the first copy taken after it. It is
// the simplest correct design (and the one the catalog used before it
// kept one record per DDL); the model-based test below holds the real
// catalog to its answers.
type fullCopyHistory struct {
	past []fullCopyState
}

type fullCopyState struct {
	stamp uint64 // the DDL that ended this state
	ver   uint64
	tabs  map[string]*Table
	vws   map[string]*View
	seqs  map[string]*Sequence
	idxs  map[string]string
}

// capture copies the catalog's live state; the test runs
// single-threaded, so reading the maps under the read lock is enough.
func capture(c *Catalog) fullCopyState {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return fullCopyState{
		ver:  c.version.Load(),
		tabs: maps.Clone(c.tabs),
		vws:  maps.Clone(c.vws),
		seqs: maps.Clone(c.seqs),
		idxs: maps.Clone(c.idxs),
	}
}

// ddl runs one DDL against the catalog and, when it succeeds, records
// the state it replaced.
func (h *fullCopyHistory) ddl(c *Catalog, op func() error) error {
	before := capture(c)
	if err := op(); err != nil {
		return err
	}
	before.stamp = c.Stamps().Visible()
	h.past = append(h.past, before)
	return nil
}

func (h *fullCopyHistory) prune(lwm uint64) {
	drop := 0
	for drop < len(h.past) && h.past[drop].stamp <= lwm {
		drop++
	}
	h.past = h.past[drop:]
}

// at returns the state a snapshot at stamp sees; live is the catalog's
// current state.
func (h *fullCopyHistory) at(stamp uint64, live fullCopyState) fullCopyState {
	i := sort.Search(len(h.past), func(i int) bool { return h.past[i].stamp > stamp })
	if i < len(h.past) {
		return h.past[i]
	}
	return live
}

func (s fullCopyState) tableIndexes(table string) []string {
	var out []string
	for ix, owner := range s.idxs {
		if owner == key(table) {
			out = append(out, ix)
		}
	}
	sort.Strings(out)
	return out
}

// TestCatalogHistoryMatchesFullCopy runs random CREATE/DROP of tables,
// views, sequences and indexes over a small name pool (so names are
// dropped and re-created, under varying case), takes snapshots at
// random stamps, prunes at random low-water marks, and checks every
// *At answer of every live snapshot against the full-copy model.
func TestCatalogHistoryMatchesFullCopy(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		cat := NewCatalog()
		cat.EnableHistory()
		model := &fullCopyHistory{}
		names := []string{"a", "b", "c", "A", "B"}
		idxNames := []string{"i1", "i2", "I1", "c"}
		var snaps []uint64
		pick := func(pool []string) string { return pool[rng.Intn(len(pool))] }

		for step := 0; step < 300; step++ {
			switch rng.Intn(8) {
			case 0, 1:
				name := pick(names)
				_ = model.ddl(cat, func() error { _, err := cat.CreateTable(name, testSchema()); return err })
			case 2:
				name := pick(names)
				_ = model.ddl(cat, func() error { return cat.DropTable(name) })
			case 3:
				name := pick(names)
				_ = model.ddl(cat, func() error { return cat.CreateView(name, "SELECT "+name) })
			case 4:
				name := pick(names)
				if rng.Intn(2) == 0 {
					_ = model.ddl(cat, func() error { return cat.DropView(name) })
				} else {
					_ = model.ddl(cat, func() error { return cat.DropSequence(name) })
				}
			case 5:
				name := pick(names)
				_ = model.ddl(cat, func() error { _, err := cat.CreateSequence(name); return err })
			case 6:
				ix, tab := pick(idxNames), pick(names)
				_ = model.ddl(cat, func() error { _, err := cat.CreateIndex(ix, tab, rng.Intn(2)); return err })
			case 7:
				ix := pick(idxNames)
				_ = model.ddl(cat, func() error { return cat.DropIndex(ix) })
			}
			if rng.Intn(3) == 0 {
				snaps = append(snaps, cat.Stamps().Visible())
			}
			if rng.Intn(10) == 0 && len(snaps) > 0 {
				// Retire a random subset, then prune to the oldest
				// survivor (or to now when none survives).
				snaps = slices.DeleteFunc(snaps, func(uint64) bool { return rng.Intn(2) == 0 })
				lwm := cat.Stamps().Visible()
				for _, s := range snaps {
					lwm = min(lwm, s)
				}
				cat.PruneHistory(lwm)
				model.prune(lwm)
			}

			live := capture(cat)
			for _, s := range snaps {
				want := model.at(s, live)
				if got := cat.VersionAt(s); got != want.ver {
					t.Fatalf("seed %d step %d: VersionAt(%d) = %d, want %d", seed, step, s, got, want.ver)
				}
				for _, n := range append(slices.Clone(names), idxNames...) {
					k := key(n)
					if got, ok := cat.TableAt(n, s); got != want.tabs[k] || ok != (want.tabs[k] != nil) {
						t.Fatalf("seed %d step %d: TableAt(%q, %d) = %p, %v; want %p", seed, step, n, s, got, ok, want.tabs[k])
					}
					if got, ok := cat.ViewAt(n, s); got != want.vws[k] || ok != (want.vws[k] != nil) {
						t.Fatalf("seed %d step %d: ViewAt(%q, %d) = %p, %v; want %p", seed, step, n, s, got, ok, want.vws[k])
					}
					if got, ok := cat.SequenceAt(n, s); got != want.seqs[k] || ok != (want.seqs[k] != nil) {
						t.Fatalf("seed %d step %d: SequenceAt(%q, %d) = %p, %v; want %p", seed, step, n, s, got, ok, want.seqs[k])
					}
					if _, want := want.idxs[k]; cat.HasIndexAt(n, s) != want {
						t.Fatalf("seed %d step %d: HasIndexAt(%q, %d) = %v, want %v", seed, step, n, s, !want, want)
					}
					if got, want := cat.TableIndexesAt(n, s), want.tableIndexes(n); !slices.Equal(got, want) {
						t.Fatalf("seed %d step %d: TableIndexesAt(%q, %d) = %v, want %v", seed, step, n, s, got, want)
					}
				}
			}
		}
	}
}

// TestPublishStamp: a table's publish stamp is its creation until rows
// commit, then the newest commit; a re-created table has a newer one.
func TestPublishStamp(t *testing.T) {
	cat, tab := testTable(t)
	created := tab.PublishStamp()
	if created == 0 || created != cat.Stamps().Visible() {
		t.Fatalf("PublishStamp after CREATE = %d, visible %d", created, cat.Stamps().Visible())
	}
	s1 := publish(cat, tab, false, nil, 0)
	if got := tab.PublishStamp(); got != s1 {
		t.Fatalf("PublishStamp after append = %d, want %d", got, s1)
	}
	s2 := publish(cat, tab, true, nil, s1)
	if got := tab.PublishStamp(); got != s2 {
		t.Fatalf("PublishStamp after replace = %d, want %d", got, s2)
	}
	if err := cat.DropTable("t"); err != nil {
		t.Fatal(err)
	}
	again, err := cat.CreateTable("t", testSchema())
	if err != nil {
		t.Fatal(err)
	}
	if got := again.PublishStamp(); got <= s2 {
		t.Fatalf("re-created table's PublishStamp %d not after %d", got, s2)
	}
}
