package storage

import (
	"fmt"
	"testing"

	"minerule/internal/sql/schema"
	"minerule/internal/sql/value"
)

func statsTestTable(t *testing.T, rows int) (*Catalog, *Table) {
	t.Helper()
	cat := NewCatalog()
	s := schema.New("T",
		schema.Column{Name: "gid", Type: value.TypeInt},
		schema.Column{Name: "item", Type: value.TypeString},
	)
	tab, err := cat.CreateTable("T", s)
	if err != nil {
		t.Fatal(err)
	}
	batch := make([]schema.Row, 0, rows)
	for i := 0; i < rows; i++ {
		batch = append(batch, schema.Row{
			value.NewInt(int64(i)),
			value.NewString(fmt.Sprintf("item-%d", i%40)),
		})
	}
	publish(cat, tab, false, batch, cat.Stamps().Visible())
	return cat, tab
}

func TestStatsExactSmall(t *testing.T) {
	cat, tab := statsTestTable(t, 1000)
	st, refreshed := tab.Stats()
	if !refreshed {
		t.Fatal("first Stats() call should refresh")
	}
	if st.Rows != 1000 {
		t.Fatalf("Rows = %d, want 1000", st.Rows)
	}
	// Column 1 has 40 distinct values — below the sketch size, exact.
	if st.Cols[1].NDV != 40 {
		t.Fatalf("item NDV = %d, want 40", st.Cols[1].NDV)
	}
	if st.Cols[0].Nulls != 0 || !st.Cols[0].HasRange {
		t.Fatalf("gid stats missing range: %+v", st.Cols[0])
	}
	if st.Cols[0].Min.Int() != 0 || st.Cols[0].Max.Int() != 999 {
		t.Fatalf("gid range = [%v, %v], want [0, 999]", st.Cols[0].Min, st.Cols[0].Max)
	}
	if cat.StatsEpoch() == 0 {
		t.Fatal("catalog stats epoch did not advance on refresh")
	}
	// A second call with no mutations must not rescan.
	if _, again := tab.Stats(); again {
		t.Fatal("Stats() refreshed twice with no mutation")
	}
}

func TestStatsSketchEstimate(t *testing.T) {
	_, tab := statsTestTable(t, 20000)
	st, _ := tab.Stats()
	// Column 0 has 20000 distinct values — far above the sketch size;
	// KMV should land within 15% of the truth.
	ndv := float64(st.Cols[0].NDV)
	if ndv < 20000*0.85 || ndv > 20000*1.15 {
		t.Fatalf("gid NDV estimate = %v, want within 15%% of 20000", ndv)
	}
}

func TestStatsStaleness(t *testing.T) {
	cat, tab := statsTestTable(t, 100)
	tab.Stats()
	epoch := cat.StatsEpoch()

	// Small growth stays within the slack: no refresh.
	publish(cat, tab, false, []schema.Row{{value.NewInt(100), value.NewString("x")}}, cat.Stamps().Visible())
	if st, refreshed := tab.Stats(); refreshed {
		t.Fatalf("refresh after one insert (stats %+v)", st)
	}

	// Growth beyond 20%+64 forces a refresh and bumps the epoch.
	batch := make([]schema.Row, 0, 200)
	for i := 0; i < 200; i++ {
		batch = append(batch, schema.Row{value.NewInt(int64(200 + i)), value.NewString("y")})
	}
	publish(cat, tab, false, batch, cat.Stamps().Visible())
	st, refreshed := tab.Stats()
	if !refreshed {
		t.Fatal("no refresh after 3x growth")
	}
	if st.Rows != 301 {
		t.Fatalf("Rows = %d, want 301", st.Rows)
	}
	if cat.StatsEpoch() == epoch {
		t.Fatal("stats epoch did not advance")
	}

	// Shrink always invalidates.
	publish(cat, tab, true, batch[:10], cat.Stamps().Visible())
	if st, refreshed = tab.Stats(); !refreshed || st.Rows != 10 {
		t.Fatalf("refresh after PublishReplace: refreshed=%v rows=%d", refreshed, st.Rows)
	}
}

func TestStatsNullsAndMixed(t *testing.T) {
	cat := NewCatalog()
	s := schema.New("N", schema.Column{Name: "v", Type: value.TypeInt})
	tab, err := cat.CreateTable("N", s)
	if err != nil {
		t.Fatal(err)
	}
	publish(cat, tab, false, []schema.Row{
		{value.Null}, {value.NewInt(3)}, {value.Null}, {value.NewInt(7)},
	}, cat.Stamps().Visible())
	st, _ := tab.Stats()
	if st.Cols[0].Nulls != 2 || st.Cols[0].NDV != 2 {
		t.Fatalf("nulls=%d ndv=%d, want 2/2", st.Cols[0].Nulls, st.Cols[0].NDV)
	}
	if !st.Cols[0].HasRange || st.Cols[0].Min.Int() != 3 || st.Cols[0].Max.Int() != 7 {
		t.Fatalf("range = %+v, want [3, 7]", st.Cols[0])
	}
}
