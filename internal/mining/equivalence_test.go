package mining

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"runtime"
	"testing"
	"time"

	"minerule/internal/resource"
)

// poolMiners are the pool members checked against the Apriori oracle.
func poolMiners() []ItemsetMiner {
	return []ItemsetMiner{Bitmap{}}
}

func randomInput(rng *rand.Rand) (*SimpleInput, int) {
	groups := 1 + rng.Intn(120)
	items := 2 + rng.Intn(40)
	byGroup := make(map[int64][]Item, groups)
	for g := int64(1); g <= int64(groups); g++ {
		n := rng.Intn(12)
		tx := make([]Item, n)
		for i := range tx {
			tx[i] = Item(rng.Intn(items))
		}
		byGroup[g] = tx
	}
	minCount := 1 + rng.Intn(5)
	return NewSimpleInput(byGroup, groups), minCount
}

// TestMinerEquivalence is the determinism property test: every pool
// miner must return byte-identical itemsets (sets, counts AND ordering)
// to the Apriori oracle on randomized inputs, both single-threaded and
// at full parallel width. GOMAXPROCS is swapped process-wide, so this
// test must not run in parallel with others.
func TestMinerEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(20260805))
	widths := []int{1, runtime.GOMAXPROCS(0)}
	for trial := 0; trial < 25; trial++ {
		in, minCount := randomInput(rng)
		want := Apriori{}.LargeItemsets(in, minCount, nil)
		for _, width := range widths {
			prev := runtime.GOMAXPROCS(width)
			for _, m := range poolMiners() {
				got := m.LargeItemsets(in, minCount, nil)
				if !reflect.DeepEqual(got, want) {
					runtime.GOMAXPROCS(prev)
					t.Fatalf("trial %d: %s at GOMAXPROCS=%d diverged from apriori:\n got %v\nwant %v",
						trial, m.Name(), width, got, want)
				}
			}
			// The oracle itself must also be width-independent.
			if got := (Apriori{}).LargeItemsets(in, minCount, nil); !reflect.DeepEqual(got, want) {
				runtime.GOMAXPROCS(prev)
				t.Fatalf("trial %d: apriori at GOMAXPROCS=%d diverged from itself", trial, width)
			}
			runtime.GOMAXPROCS(prev)
		}
	}
}

// denseInput builds an input large and dense enough that mining runs
// many levels with large candidate sets — the budget/cancel promptness
// tests need passes that actually fan out.
func denseInput() *SimpleInput {
	rng := rand.New(rand.NewSource(7))
	byGroup := make(map[int64][]Item, 400)
	for g := int64(1); g <= 400; g++ {
		tx := make([]Item, 14)
		for i := range tx {
			tx[i] = Item(rng.Intn(40))
		}
		byGroup[g] = tx
	}
	return NewSimpleInput(byGroup, 400)
}

// atWidths runs fn once single-threaded and once at the full pool
// width, restoring GOMAXPROCS afterwards (also when fn calls t.Fatal).
// GOMAXPROCS is process-wide, so callers must not run in parallel.
func atWidths(fn func(width int)) {
	for _, width := range []int{1, runtime.GOMAXPROCS(0)} {
		prev := runtime.GOMAXPROCS(width)
		func() {
			defer runtime.GOMAXPROCS(prev)
			fn(width)
		}()
	}
}

// TestParallelBudgetTrip proves a tripped candidate budget stops the
// parallel passes promptly with the trip recorded, for every miner.
func TestParallelBudgetTrip(t *testing.T) {
	in := denseInput()
	miners := append(poolMiners(), Apriori{})
	atWidths(func(width int) {
		for _, m := range miners {
			bud := NewBudget(context.Background(), 50)
			done := make(chan []Itemset, 1)
			go func() { done <- m.LargeItemsets(in, 2, bud) }()
			select {
			case sets := <-done:
				if err := bud.Err(); !errors.Is(err, resource.ErrBudgetExceeded) {
					t.Errorf("%s at GOMAXPROCS=%d: budget err = %v, want ErrBudgetExceeded", m.Name(), width, err)
				}
				_ = sets // partial results are allowed; only the stop matters
			case <-time.After(30 * time.Second):
				t.Fatalf("%s at GOMAXPROCS=%d: did not stop after budget trip", m.Name(), width)
			}
		}
	})
}

// TestParallelContextCancel proves an already-canceled context stops the
// parallel workers promptly with a cancellation recorded.
func TestParallelContextCancel(t *testing.T) {
	in := denseInput()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	miners := append(poolMiners(), Apriori{})
	atWidths(func(width int) {
		for _, m := range miners {
			bud := NewBudget(ctx, 0)
			done := make(chan struct{})
			go func() { m.LargeItemsets(in, 2, bud); close(done) }()
			select {
			case <-done:
				if err := bud.Err(); !errors.Is(err, resource.ErrCanceled) {
					t.Errorf("%s at GOMAXPROCS=%d: budget err = %v, want ErrCanceled", m.Name(), width, err)
				}
			case <-time.After(30 * time.Second):
				t.Fatalf("%s at GOMAXPROCS=%d: did not stop after context cancel", m.Name(), width)
			}
		}
	})
}
