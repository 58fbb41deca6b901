package storage

import (
	"sync"
	"testing"

	"minerule/internal/sql/schema"
	"minerule/internal/sql/value"
)

func testSchema() *schema.Schema {
	return schema.New("t",
		schema.Column{Name: "a", Type: value.TypeInt},
		schema.Column{Name: "b", Type: value.TypeString})
}

// testTable creates table t in a fresh catalog.
func testTable(t *testing.T) (*Catalog, *Table) {
	t.Helper()
	cat := NewCatalog()
	tab, err := cat.CreateTable("t", testSchema())
	if err != nil {
		t.Fatal(err)
	}
	return cat, tab
}

// publish runs one commit's publication the way txn.Commit does: under
// the publish lock, at a fresh stamp, with the watermark advanced last.
// rows == nil with replace set is DELETE without WHERE. lwm is the
// low-water mark of the registered snapshots.
func publish(cat *Catalog, tab *Table, replace bool, rows []schema.Row, lwm uint64) uint64 {
	cat.LockPublish()
	defer cat.UnlockPublish()
	stamp := cat.Stamps().Next(0)
	if replace {
		tab.PublishReplace(stamp, rows, lwm)
	} else {
		tab.PublishAppend(stamp, rows, lwm)
	}
	cat.Stamps().SetVisible(stamp)
	return stamp
}

func TestTableBasics(t *testing.T) {
	cat, tab := testTable(t)
	if tab.Name() != "t" || tab.Len() != 0 || tab.LenAt(cat.Stamps().Visible()) != 0 {
		t.Fatal("fresh table state wrong")
	}
	// lwm 0 stands for a snapshot registered before any publish, so no
	// history is pruned.
	s1 := publish(cat, tab, false, []schema.Row{{value.NewInt(1), value.NewString("x")}}, 0)
	s2 := publish(cat, tab, false, []schema.Row{
		{value.NewInt(2), value.NewString("y")},
		{value.NewInt(3), value.NewString("z")},
	}, 0)
	if tab.Len() != 3 || tab.LenAt(s1) != 1 || tab.LenAt(s2) != 3 {
		t.Fatalf("len = %d, at s1 = %d, at s2 = %d", tab.Len(), tab.LenAt(s1), tab.LenAt(s2))
	}
	snap := tab.RowsAt(s2)
	if len(snap) != 3 || snap[2][0].Int() != 3 {
		t.Fatalf("rows at s2 = %v", snap)
	}
	// Appends after a snapshot must not disturb it.
	publish(cat, tab, false, []schema.Row{{value.NewInt(4), value.NewString("w")}}, 0)
	if len(snap) != 3 || len(tab.RowsAt(s2)) != 3 {
		t.Fatal("snapshot grew")
	}
	// DELETE without WHERE: a new empty generation; the old one stays
	// readable at older stamps until the low-water mark passes it.
	s4 := publish(cat, tab, true, nil, 0)
	if tab.Len() != 0 || tab.LenAt(s4) != 0 || tab.LenAt(s2) != 3 {
		t.Fatalf("after replace: len = %d, at s4 = %d, at s2 = %d", tab.Len(), tab.LenAt(s4), tab.LenAt(s2))
	}
	// Once no snapshot older than s4 is registered, the history goes.
	s5 := publish(cat, tab, false, []schema.Row{{value.NewInt(5), value.NewString("v")}}, s4)
	if tab.LenAt(s5) != 1 || tab.LenAt(s2) != 0 {
		t.Fatalf("after prune: at s5 = %d, at s2 = %d", tab.LenAt(s5), tab.LenAt(s2))
	}
}

func TestTableConcurrentInsert(t *testing.T) {
	cat, tab := testTable(t)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				publish(cat, tab, false, []schema.Row{{value.NewInt(int64(i)), value.Null}}, cat.Stamps().Visible())
			}
		}()
	}
	wg.Wait()
	if tab.Len() != 1600 || tab.LenAt(cat.Stamps().Visible()) != 1600 {
		t.Fatalf("len = %d, visible = %d", tab.Len(), tab.LenAt(cat.Stamps().Visible()))
	}
}

// TestPruneReleasesHistory: pruning catalog states and row generations
// must not leave them reachable from the history slices' backing arrays
// — a dropped table, and every row it held, would otherwise stay pinned
// until later history happened to overwrite the slot.
func TestPruneReleasesHistory(t *testing.T) {
	cat, tab := testTable(t)
	cat.EnableHistory()
	for _, name := range []string{"w1", "w2", "w3"} {
		if _, err := cat.CreateTable(name, testSchema()); err != nil {
			t.Fatal(err)
		}
	}
	// The DROP's record holds the dropped table itself.
	if err := cat.DropTable("w1"); err != nil {
		t.Fatal(err)
	}
	publish(cat, tab, true, []schema.Row{{value.NewInt(1), value.Null}}, 0)
	publish(cat, tab, true, nil, 0)
	lwm := cat.Stamps().Visible()
	cat.PruneHistory(lwm)
	publish(cat, tab, false, nil, lwm)

	cat.mu.RLock()
	past := cat.past[:cap(cat.past)]
	cat.mu.RUnlock()
	for i, p := range past {
		if p.changes != nil {
			t.Fatalf("catalog DDL record %d still pinned after pruning (len %d)", i, len(cat.past))
		}
	}
	tab.mu.RLock()
	hist := tab.hist[:cap(tab.hist)]
	tab.mu.RUnlock()
	for i, g := range hist {
		if g.rows != nil || g.bounds != nil {
			t.Fatalf("row generation %d still pinned after pruning (len %d)", i, len(tab.hist))
		}
	}
}

func TestSequence(t *testing.T) {
	s := NewSequence("s")
	if s.CurrentVal() != 1 {
		t.Fatalf("initial = %d", s.CurrentVal())
	}
	for want := int64(1); want <= 5; want++ {
		if got := s.NextVal(); got != want {
			t.Fatalf("NextVal = %d, want %d", got, want)
		}
	}
	if s.CurrentVal() != 6 {
		t.Fatalf("current = %d", s.CurrentVal())
	}
}

func TestSequenceConcurrent(t *testing.T) {
	s := NewSequence("s")
	var wg sync.WaitGroup
	seen := make([][]int64, 8)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				seen[w] = append(seen[w], s.NextVal())
			}
		}(w)
	}
	wg.Wait()
	all := make(map[int64]bool)
	for _, vals := range seen {
		for _, v := range vals {
			if all[v] {
				t.Fatalf("duplicate sequence value %d", v)
			}
			all[v] = true
		}
	}
	if len(all) != 800 {
		t.Fatalf("values = %d", len(all))
	}
}

func TestCatalogLifecycle(t *testing.T) {
	c := NewCatalog()
	if c.Exists("t") {
		t.Fatal("empty catalog has t")
	}
	if _, err := c.CreateTable("t", testSchema()); err != nil {
		t.Fatal(err)
	}
	if _, err := c.CreateTable("T", testSchema()); err == nil {
		t.Fatal("case-insensitive duplicate accepted")
	}
	if err := c.CreateView("t", "SELECT 1"); err == nil {
		t.Fatal("view over table name accepted")
	}
	if _, ok := c.Table("T"); !ok {
		t.Fatal("case-insensitive lookup failed")
	}
	if err := c.CreateView("v", "SELECT a FROM t"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.CreateTable("v", testSchema()); err == nil {
		t.Fatal("table over view name accepted")
	}
	if _, err := c.CreateSequence("s"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.CreateSequence("s"); err == nil {
		t.Fatal("duplicate sequence accepted")
	}
	for _, n := range []string{"t", "v", "s"} {
		if !c.Exists(n) {
			t.Errorf("%s missing", n)
		}
	}
	if got := c.TableNames(); len(got) != 1 || got[0] != "t" {
		t.Errorf("TableNames = %v", got)
	}
	if got := c.ViewNames(); len(got) != 1 || got[0] != "v" {
		t.Errorf("ViewNames = %v", got)
	}
	if err := c.DropTable("t"); err != nil {
		t.Fatal(err)
	}
	if err := c.DropTable("t"); err == nil {
		t.Fatal("double drop accepted")
	}
	if err := c.DropView("v"); err != nil {
		t.Fatal(err)
	}
	if err := c.DropSequence("s"); err != nil {
		t.Fatal(err)
	}
	if c.Exists("t") || c.Exists("v") || c.Exists("s") {
		t.Fatal("dropped objects still exist")
	}
}

func TestDropMissing(t *testing.T) {
	c := NewCatalog()
	if err := c.DropView("nope"); err == nil {
		t.Error("DropView on missing must fail")
	}
	if err := c.DropSequence("nope"); err == nil {
		t.Error("DropSequence on missing must fail")
	}
}

// TestConcurrentSnapshotAndInsert pins down the two aliasing contracts
// readers depend on (run under -race): a RowsAt prefix is stable —
// concurrent PublishAppend calls never move or mutate it — and a
// LookupAt taken mid-publish only ever surfaces rows visible at the
// reader's stamp whose indexed column actually matches the key.
func TestConcurrentSnapshotAndInsert(t *testing.T) {
	cat, tab := testTable(t)
	if _, err := cat.CreateIndex("t_a", "t", 0); err != nil {
		t.Fatal(err)
	}
	// Row i is (i%8, "v<i%8>"): every row with the same a shares one
	// index bucket, so buckets grow while readers walk them.
	mk := func(i int) schema.Row {
		return schema.Row{value.NewInt(int64(i % 8)), value.NewString("v" + string(rune('0'+i%8)))}
	}
	const (
		batches   = 64
		batchSize = 16
		readers   = 4
	)
	done := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			for n := 0; ; n++ {
				select {
				case <-done:
					return
				default:
				}
				stamp := cat.Stamps().Visible()
				snap := tab.RowsAt(stamp)
				for i, row := range snap {
					want := int64(i % 8)
					if got := row[0].Int(); got != want {
						t.Errorf("rows[%d].a = %d, want %d", i, got, want)
						return
					}
				}
				key := value.NewInt(int64((seed + n) % 8)).Key()
				ix := tab.IndexOnAt(0, stamp)
				if ix == nil {
					t.Error("index t_a not visible")
					return
				}
				hits := tab.LookupAt(ix, key, stamp)
				for _, row := range hits {
					if row[0].Key() != key {
						t.Errorf("LookupAt(%q) returned row with a = %v", key, row[0])
						return
					}
				}
				// Rows i ≡ key (mod 8) among the len(snap) visible ones.
				if want := (len(snap) + 7 - (seed+n)%8) / 8; len(hits) != want {
					t.Errorf("LookupAt(%q) at %d visible rows = %d hits, want %d", key, len(snap), len(hits), want)
					return
				}
				// The prefix is stable: re-reading at the same stamp while
				// publishes continue yields the very same rows.
				again := tab.RowsAt(stamp)
				if len(again) != len(snap) {
					t.Errorf("RowsAt(%d) moved: %d rows, then %d", stamp, len(snap), len(again))
					return
				}
				for i := range snap {
					if &again[i][0] != &snap[i][0] {
						t.Errorf("RowsAt(%d) row %d changed identity", stamp, i)
						return
					}
				}
			}
		}(r)
	}
	next := 0
	for b := 0; b < batches; b++ {
		rows := make([]schema.Row, batchSize)
		for i := range rows {
			rows[i] = mk(next)
			next++
		}
		// lwm 0: the readers are unregistered, so keep every boundary
		// reachable for whatever stamp they hold.
		publish(cat, tab, false, rows, 0)
	}
	close(done)
	wg.Wait()
	stamp := cat.Stamps().Visible()
	if tab.LenAt(stamp) != batches*batchSize {
		t.Fatalf("LenAt = %d, want %d", tab.LenAt(stamp), batches*batchSize)
	}
	// Every bucket is complete once the writers stop.
	ix := tab.IndexOnAt(0, stamp)
	for a := 0; a < 8; a++ {
		got := len(tab.LookupAt(ix, value.NewInt(int64(a)).Key(), stamp))
		if got != batches*batchSize/8 {
			t.Fatalf("bucket %d has %d rows, want %d", a, got, batches*batchSize/8)
		}
	}
}
