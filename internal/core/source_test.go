package core

import (
	"context"
	"errors"
	"sort"
	"strings"
	"testing"

	"minerule/internal/resource"
	"minerule/internal/sql/engine"
)

// tableState captures a table's catalog entry and its rows as a sorted
// multiset, so a test can check a run left both untouched.
type tableState struct {
	entry  any
	schema string
	rows   []string
}

func snapshotTable(t *testing.T, db *engine.Database, name string) tableState {
	t.Helper()
	tab, ok := db.Catalog().Table(name)
	if !ok {
		t.Fatalf("table %s is missing from the catalog", name)
	}
	res, err := db.Query("SELECT * FROM " + name)
	if err != nil {
		t.Fatal(err)
	}
	rows := make([]string, len(res.Rows))
	for i, r := range res.Rows {
		parts := make([]string, len(r))
		for j, v := range r {
			parts[j] = v.SQL()
		}
		rows[i] = strings.Join(parts, ",")
	}
	sort.Strings(rows)
	return tableState{entry: tab, schema: tab.Schema().String(), rows: rows}
}

func checkTableIntact(t *testing.T, db *engine.Database, name string, before tableState) {
	t.Helper()
	after := snapshotTable(t, db, name)
	if after.entry != before.entry {
		t.Errorf("%s: the catalog entry was replaced", name)
	}
	if after.schema != before.schema {
		t.Errorf("%s: schema %s, was %s", name, after.schema, before.schema)
	}
	if strings.Join(after.rows, "\n") != strings.Join(before.rows, "\n") {
		t.Errorf("%s: rows changed:\n got %v\nwant %v", name, after.rows, before.rows)
	}
}

// TestNoWRunLeavesSourceTableIntact: without W the preprocessing
// programs read the FROM table itself, so no outcome of a run — success,
// a budget trip inside preprocessing, or keeping and then reusing the
// encoded tables — may drop, replace or write that table.
func TestNoWRunLeavesSourceTableIntact(t *testing.T) {
	t.Run("success", func(t *testing.T) {
		db := purchaseDB(t)
		before := snapshotTable(t, db, "Purchase")
		res, err := Mine(db, simpleStatement, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if res.Class.W {
			t.Fatalf("class %v has W", res.Class)
		}
		checkTableIntact(t, db, "Purchase", before)
	})
	t.Run("preprocessing budget trip", func(t *testing.T) {
		db := purchaseDB(t)
		before := snapshotTable(t, db, "Purchase")
		ctx := resource.WithLimits(context.Background(), resource.Limits{MaxRows: 2})
		_, err := MineContext(ctx, db, simpleStatement, Options{})
		if !errors.Is(err, resource.ErrBudgetExceeded) || !strings.Contains(err.Error(), "preproc") {
			t.Fatalf("want a budget error from preprocessing, got %v", err)
		}
		checkTableIntact(t, db, "Purchase", before)
	})
	t.Run("keep then reuse", func(t *testing.T) {
		db := purchaseDB(t)
		before := snapshotTable(t, db, "Purchase")
		if _, err := Mine(db, simpleStatement, Options{KeepEncoded: true}); err != nil {
			t.Fatal(err)
		}
		checkTableIntact(t, db, "Purchase", before)
		res, err := Mine(db, simpleStatement, Options{KeepEncoded: true, ReuseEncoded: true, ReplaceOutput: true})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Reused {
			t.Fatal("second run did not reuse the kept encoded tables")
		}
		checkTableIntact(t, db, "Purchase", before)
		if _, err := Mine(db, simpleStatement, Options{ReplaceOutput: true}); err != nil {
			t.Fatal(err)
		}
		checkTableIntact(t, db, "Purchase", before)
	})
}

// TestNoWTableNamedLikeAnAlias: the programs alias the FROM table S and
// ValidGroups V; a user table named V must still mine exactly the rules
// the same rows give under another name.
func TestNoWTableNamedLikeAnAlias(t *testing.T) {
	db := purchaseDB(t)
	if err := db.ExecScript(`
		CREATE TABLE V (tr INTEGER, cust VARCHAR, item VARCHAR, dt DATE, price FLOAT, qty INTEGER);
		INSERT INTO V (SELECT * FROM Purchase);`); err != nil {
		t.Fatal(err)
	}
	before := snapshotTable(t, db, "V")
	stmt := func(out, from string) string {
		return `MINE RULE ` + out + ` AS
			SELECT DISTINCT 1..n item AS BODY, 1..1 item AS HEAD, SUPPORT, CONFIDENCE
			FROM ` + from + ` GROUP BY tr
			EXTRACTING RULES WITH SUPPORT: 0.25, CONFIDENCE: 0.5`
	}
	want, err := Mine(db, stmt("FromPurchase", "Purchase"), Options{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := Mine(db, stmt("FromV", "V"), Options{})
	if err != nil {
		t.Fatal(err)
	}
	wantRules, gotRules := ruleStrings(t, db, want), ruleStrings(t, db, got)
	if len(wantRules) == 0 {
		t.Fatal("no rules: the case exercises nothing")
	}
	if strings.Join(gotRules, "\n") != strings.Join(wantRules, "\n") {
		t.Errorf("rules from V differ:\n got %v\nwant %v", gotRules, wantRules)
	}
	checkTableIntact(t, db, "V", before)
}
