package txn

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"minerule/internal/obsv"
	"minerule/internal/resource"
	"minerule/internal/sql/schema"
	"minerule/internal/sql/storage"
	"minerule/internal/sql/value"
)

// newTestManager builds an in-memory manager (no journal) with the
// given lock timeout (zero selects the default).
func newTestManager(timeout time.Duration) (*Manager, *obsv.Metrics) {
	met := &obsv.Metrics{}
	return NewManager(storage.NewCatalog(), nil, met, timeout), met
}

// mkTable creates table name with one INTEGER column through its own
// transaction (DDL publishes immediately).
func mkTable(t *testing.T, m *Manager, name string) {
	t.Helper()
	tx := m.Begin()
	defer m.Release(tx)
	if _, err := tx.CreateTable(context.Background(), name, schema.New(name, schema.Column{Name: "id", Type: value.TypeInt})); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// insert commits rows with the given ids into name.
func insert(t *testing.T, m *Manager, name string, ids ...int64) {
	t.Helper()
	tx := m.Begin()
	defer m.Release(tx)
	tab, ok, err := tx.ForWrite(context.Background(), name)
	if err != nil || !ok {
		t.Fatalf("ForWrite(%s): ok=%v err=%v", name, ok, err)
	}
	rows := make([]schema.Row, len(ids))
	for i, id := range ids {
		rows[i] = schema.Row{value.NewInt(id)}
	}
	if err := tx.InsertRows(tab, rows); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// count reads name's cardinality under tx's snapshot.
func count(t *testing.T, tx *Txn, name string) int {
	t.Helper()
	tab, ok := tx.Table(name)
	if !ok {
		t.Fatalf("table %s not visible", name)
	}
	return tx.Len(tab)
}

// TestSnapshotIsolation: a transaction's reads are frozen at its Begin
// — a concurrent committed write is invisible to it but visible to any
// transaction beginning afterwards.
func TestSnapshotIsolation(t *testing.T) {
	m, _ := newTestManager(0)
	mkTable(t, m, "t")
	insert(t, m, "t", 1, 2)

	reader := m.Begin()
	defer m.Release(reader)
	if n := count(t, reader, "t"); n != 2 {
		t.Fatalf("reader sees %d rows, want 2", n)
	}

	insert(t, m, "t", 3) // commits while reader is open

	if n := count(t, reader, "t"); n != 2 {
		t.Fatalf("snapshot leaked: reader sees %d rows after a concurrent commit, want 2", n)
	}
	reader.Rollback()

	after := m.Begin()
	defer m.Release(after)
	if n := count(t, after, "t"); n != 3 {
		t.Fatalf("new transaction sees %d rows, want 3", n)
	}
	after.Rollback()
}

// TestUncommittedInvisible: an open transaction's writes are invisible
// to every other transaction until Commit, and gone after Rollback.
func TestUncommittedInvisible(t *testing.T) {
	m, _ := newTestManager(0)
	mkTable(t, m, "t")

	w := m.Begin()
	tab, ok, err := w.ForWrite(context.Background(), "t")
	if err != nil || !ok {
		t.Fatalf("ForWrite: ok=%v err=%v", ok, err)
	}
	if err := w.InsertRows(tab, []schema.Row{{value.NewInt(1)}}); err != nil {
		t.Fatal(err)
	}
	// The writer sees its own write; nobody else does.
	if n := count(t, w, "t"); n != 1 {
		t.Fatalf("writer does not see its own write: %d", n)
	}
	other := m.Begin()
	if n := count(t, other, "t"); n != 0 {
		t.Fatalf("dirty read: observer sees %d uncommitted rows", n)
	}
	other.Rollback()
	m.Release(other)

	w.Rollback()
	m.Release(w)
	after := m.Begin()
	defer m.Release(after)
	if n := count(t, after, "t"); n != 0 {
		t.Fatalf("rollback leaked %d rows", n)
	}
	after.Rollback()
}

// TestLockTimeout: a writer blocked on a held table lock becomes the
// deadlock-timeout victim, surfacing a typed *resource.LockTimeoutError,
// and the holder is unaffected.
func TestLockTimeout(t *testing.T) {
	m, met := newTestManager(30 * time.Millisecond)
	mkTable(t, m, "t")

	holder := m.Begin()
	defer m.Release(holder)
	if _, _, err := holder.ForWrite(context.Background(), "t"); err != nil {
		t.Fatal(err)
	}

	victim := m.Begin()
	defer m.Release(victim)
	_, _, err := victim.ForWrite(context.Background(), "t")
	var lte *resource.LockTimeoutError
	if !errors.As(err, &lte) {
		t.Fatalf("blocked writer got %v, want *resource.LockTimeoutError", err)
	}
	if lte.Table != "t" {
		t.Fatalf("timeout names table %q, want t", lte.Table)
	}
	victim.Rollback()
	if met.LockTimeouts.Load() == 0 || met.LockWaits.Load() == 0 {
		t.Fatalf("lock metrics not counted: waits=%d timeouts=%d", met.LockWaits.Load(), met.LockTimeouts.Load())
	}

	// The holder's transaction still commits.
	if err := holder.Commit(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestLockFIFOHandoff: a released lock goes to the oldest waiter —
// three queued writers commit in arrival order.
func TestLockFIFOHandoff(t *testing.T) {
	m, _ := newTestManager(5 * time.Second)
	mkTable(t, m, "t")

	holder := m.Begin()
	if _, _, err := holder.ForWrite(context.Background(), "t"); err != nil {
		t.Fatal(err)
	}

	const waiters = 3
	var order []int64
	var mu sync.Mutex
	var wg sync.WaitGroup
	ready := make(chan struct{}, waiters)
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			tx := m.Begin()
			defer m.Release(tx)
			ready <- struct{}{}
			tab, ok, err := tx.ForWrite(context.Background(), "t")
			if err != nil || !ok {
				t.Errorf("waiter %d: ok=%v err=%v", i, ok, err)
				return
			}
			mu.Lock()
			order = append(order, int64(i))
			mu.Unlock()
			if err := tx.InsertRows(tab, []schema.Row{{value.NewInt(int64(i))}}); err != nil {
				t.Error(err)
				return
			}
			if err := tx.Commit(context.Background()); err != nil {
				t.Error(err)
			}
		}(i)
		<-ready // serialize goroutine starts so queue order is i order
		// Give the waiter time to reach the queue before the next starts.
		for {
			time.Sleep(2 * time.Millisecond)
			if lockQueueLen(m, "t") == i+1 {
				break
			}
		}
	}
	holder.Rollback()
	m.Release(holder)
	wg.Wait()
	for i, got := range order {
		if got != int64(i) {
			t.Fatalf("FIFO violated: grant order %v", order)
		}
	}
}

// lockQueueLen reports the current wait-queue depth on res.
func lockQueueLen(m *Manager, res string) int {
	m.locks.mu.Lock()
	defer m.locks.mu.Unlock()
	e := m.locks.entries[res]
	if e == nil {
		return 0
	}
	return len(e.queue)
}

// TestSavepointRollback: RollbackTo discards only the work after the
// savepoint; the transaction stays usable and commits the rest.
func TestSavepointRollback(t *testing.T) {
	m, _ := newTestManager(0)
	mkTable(t, m, "t")

	tx := m.Begin()
	defer m.Release(tx)
	tab, _, err := tx.ForWrite(context.Background(), "t")
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.InsertRows(tab, []schema.Row{{value.NewInt(1)}}); err != nil {
		t.Fatal(err)
	}
	sp := tx.Savepoint()
	if err := tx.InsertRows(tab, []schema.Row{{value.NewInt(2)}, {value.NewInt(3)}}); err != nil {
		t.Fatal(err)
	}
	if n := count(t, tx, "t"); n != 3 {
		t.Fatalf("pre-rollback count %d, want 3", n)
	}
	tx.RollbackTo(sp)
	if n := count(t, tx, "t"); n != 1 {
		t.Fatalf("post-rollback count %d, want 1", n)
	}
	if err := tx.Commit(context.Background()); err != nil {
		t.Fatal(err)
	}

	after := m.Begin()
	defer m.Release(after)
	if n := count(t, after, "t"); n != 1 {
		t.Fatalf("committed count %d, want 1", n)
	}
	after.Rollback()
}

// createIn creates table name (one INTEGER column) inside tx.
func createIn(t *testing.T, tx *Txn, name string) {
	t.Helper()
	if _, err := tx.CreateTable(context.Background(), name, schema.New(name, schema.Column{Name: "id", Type: value.TypeInt})); err != nil {
		t.Fatal(err)
	}
}

// insertIn buffers rows with the given ids into name inside tx.
func insertIn(t *testing.T, tx *Txn, name string, ids ...int64) {
	t.Helper()
	tab, ok, err := tx.ForWrite(context.Background(), name)
	if err != nil || !ok {
		t.Fatalf("ForWrite(%s): ok=%v err=%v", name, ok, err)
	}
	rows := make([]schema.Row, len(ids))
	for i, id := range ids {
		rows[i] = schema.Row{value.NewInt(id)}
	}
	if err := tx.InsertRows(tab, rows); err != nil {
		t.Fatal(err)
	}
}

// committed returns the ids a fresh transaction sees in name.
func committed(t *testing.T, m *Manager, name string) []int64 {
	t.Helper()
	tx := m.Begin()
	defer m.Release(tx)
	defer tx.Rollback()
	tab, ok := tx.Table(name)
	if !ok {
		t.Fatalf("table %s not visible", name)
	}
	var ids []int64
	for _, r := range tx.Rows(tab) {
		ids = append(ids, r[0].Int())
	}
	return ids
}

// TestDropRecreateInsert: BEGIN; CREATE t; INSERT 1; DROP t; CREATE t;
// INSERT 2; COMMIT leaves exactly [2]. The dropped table's overlay
// leaves the write set with it, so the re-created table's overlay is
// logged and published once, not twice.
func TestDropRecreateInsert(t *testing.T) {
	m, _ := newTestManager(0)
	tx := m.Begin()
	defer m.Release(tx)
	createIn(t, tx, "t")
	insertIn(t, tx, "t", 1)
	if err := tx.DropTable(context.Background(), "t"); err != nil {
		t.Fatal(err)
	}
	createIn(t, tx, "t")
	insertIn(t, tx, "t", 2)
	if err := tx.Commit(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got := committed(t, m, "t"); len(got) != 1 || got[0] != 2 {
		t.Fatalf("t = %v, want [2]", got)
	}
}

// TestDropBetweenSavepointAndRollback: a DROP between a savepoint and
// RollbackTo must neither keep an overlay opened after the mark (c)
// nor pour the dropped table's marked rows into its re-created
// successor (t). DDL itself is not undone.
func TestDropBetweenSavepointAndRollback(t *testing.T) {
	m, _ := newTestManager(0)
	for _, name := range []string{"a", "b", "c", "t"} {
		mkTable(t, m, name)
	}
	tx := m.Begin()
	defer m.Release(tx)
	insertIn(t, tx, "a", 1)
	insertIn(t, tx, "b", 1)
	insertIn(t, tx, "t", 1)
	sp := tx.Savepoint()
	for _, name := range []string{"a", "t"} {
		if err := tx.DropTable(context.Background(), name); err != nil {
			t.Fatal(err)
		}
	}
	insertIn(t, tx, "c", 3)
	createIn(t, tx, "t")
	insertIn(t, tx, "t", 2)
	tx.RollbackTo(sp)
	insertIn(t, tx, "b", 2)
	if err := tx.Commit(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got := committed(t, m, "b"); len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("b = %v, want [1 2]", got)
	}
	if got := committed(t, m, "c"); len(got) != 0 {
		t.Fatalf("c = %v: a write after the savepoint survived RollbackTo", got)
	}
	if got := committed(t, m, "t"); len(got) != 0 {
		t.Fatalf("t = %v: the re-created table inherited rows", got)
	}
	if _, ok := m.cat.Table("a"); ok {
		t.Fatal("RollbackTo undid a DROP")
	}
}

// TestTxnMetrics: Begin/Commit/Rollback drive the transaction counters
// the /metrics endpoint derives txn_active from.
func TestTxnMetrics(t *testing.T) {
	m, met := newTestManager(0)
	mkTable(t, m, "t")
	base := met.TxnBegun.Load()

	tx := m.Begin()
	if met.TxnBegun.Load() != base+1 {
		t.Fatalf("TxnBegun = %d, want %d", met.TxnBegun.Load(), base+1)
	}
	if err := tx.Commit(context.Background()); err != nil {
		t.Fatal(err)
	}
	m.Release(tx)
	tx2 := m.Begin()
	tx2.Rollback()
	m.Release(tx2)
	if met.TxnCommitted.Load() == 0 || met.TxnRolledBack.Load() == 0 {
		t.Fatalf("commit/rollback not counted: committed=%d rolledback=%d",
			met.TxnCommitted.Load(), met.TxnRolledBack.Load())
	}
	active := met.TxnBegun.Load() - met.TxnCommitted.Load() - met.TxnRolledBack.Load()
	if active != 0 {
		t.Fatalf("txn_active = %d after all transactions finished, want 0", active)
	}
}

// TestConcurrentWritersDisjointTables: writers on different tables
// never contend; all commits land.
func TestConcurrentWritersDisjointTables(t *testing.T) {
	m, _ := newTestManager(0)
	mkTable(t, m, "a")
	mkTable(t, m, "b")
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			name := "a"
			if i%2 == 1 {
				name = "b"
			}
			insert(t, m, name, int64(i))
		}(i)
	}
	wg.Wait()
	tx := m.Begin()
	defer m.Release(tx)
	if n := count(t, tx, "a") + count(t, tx, "b"); n != 8 {
		t.Fatalf("committed rows = %d, want 8", n)
	}
	tx.Rollback()
}
