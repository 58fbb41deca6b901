package postproc

import (
	"context"
	"errors"
	"strings"
	"testing"

	"minerule/internal/kernel/preproc"
	"minerule/internal/kernel/translator"
	mrparse "minerule/internal/minerule/parse"
	"minerule/internal/mining"
	"minerule/internal/sql/engine"
)

func setup(t *testing.T) (*engine.Database, *translator.Translation) {
	t.Helper()
	db := engine.New()
	err := db.ExecScript(`
		CREATE TABLE P (gid INTEGER, item VARCHAR);
		INSERT INTO P VALUES (1, 'a'), (1, 'b'), (2, 'a'), (2, 'b'), (3, 'a');
	`)
	if err != nil {
		t.Fatal(err)
	}
	st, err := mrparse.Parse(`MINE RULE Out AS
		SELECT DISTINCT 1..n item AS BODY, 1..1 item AS HEAD, SUPPORT, CONFIDENCE
		FROM P GROUP BY gid
		EXTRACTING RULES WITH SUPPORT: 0.5, CONFIDENCE: 0.5`)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := translator.Translate(db, st)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := preproc.Run(context.Background(), db, tr); err != nil {
		t.Fatal(err)
	}
	return db, tr
}

// bidOf resolves an item name to its encoded Bid.
func bidOf(t *testing.T, db *engine.Database, tr *translator.Translation, item string) int64 {
	t.Helper()
	id, err := db.QueryInt("SELECT mr_bid FROM " + tr.Names.Bset + " WHERE item = '" + item + "'")
	if err != nil {
		t.Fatal(err)
	}
	return id
}

func TestStoreAndDecode(t *testing.T) {
	db, tr := setup(t)
	a := mining.Item(bidOf(t, db, tr, "a"))
	bI := mining.Item(bidOf(t, db, tr, "b"))
	rules := []mining.Rule{
		{Body: []mining.Item{a}, Head: []mining.Item{bI}, Support: 2.0 / 3, Confidence: 2.0 / 3},
		{Body: []mining.Item{bI}, Head: []mining.Item{a}, Support: 2.0 / 3, Confidence: 1},
		// A rule sharing the body {a} with the first: the dictionary
		// must reuse the BodyId.
		{Body: []mining.Item{a}, Head: []mining.Item{a}, Support: 1, Confidence: 1},
	}
	if err := StoreEncoded(context.Background(), db.Conn(), tr, rules); err != nil {
		t.Fatal(err)
	}
	n, _ := db.QueryInt("SELECT COUNT(*) FROM " + tr.Names.OutputRules)
	if n != 3 {
		t.Fatalf("OutputRules = %d", n)
	}
	// Two distinct bodies ({a}, {b}) despite three rules.
	n, _ = db.QueryInt("SELECT COUNT(DISTINCT BodyId) FROM " + tr.Names.OutputBodies)
	if n != 2 {
		t.Fatalf("distinct bodies = %d", n)
	}

	if err := Decode(context.Background(), db.Conn(), tr); err != nil {
		t.Fatal(err)
	}
	res, err := db.Query("SELECT R.SUPPORT, B.item, H.item FROM Out R, Out_Bodies B, Out_Heads H WHERE R.BodyId = B.BodyId AND R.HeadId = H.HeadId ORDER BY 1, 2, 3")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("decoded rules = %d", len(res.Rows))
	}
	// The decoded join must reproduce item names, not ids.
	var names []string
	for _, r := range res.Rows {
		names = append(names, r[1].Str()+">"+r[2].Str())
	}
	got := strings.Join(names, ",")
	if got != "a>b,b>a,a>a" && got != "b>a,a>b,a>a" {
		t.Logf("decoded order: %s", got)
	}
	for _, n := range names {
		if strings.ContainsAny(n, "0123456789") {
			t.Errorf("decoded rule leaked an encoded id: %s", n)
		}
	}
}

func TestStoreWithoutPreprocFails(t *testing.T) {
	db := engine.New()
	if err := db.ExecScript("CREATE TABLE P (gid INTEGER, item VARCHAR); INSERT INTO P VALUES (1, 'a')"); err != nil {
		t.Fatal(err)
	}
	st, err := mrparse.Parse(`MINE RULE X AS
		SELECT DISTINCT 1..n item AS BODY, 1..1 item AS HEAD
		FROM P GROUP BY gid
		EXTRACTING RULES WITH SUPPORT: 0.5, CONFIDENCE: 0.5`)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := translator.Translate(db, st)
	if err != nil {
		t.Fatal(err)
	}
	if err := StoreEncoded(context.Background(), db.Conn(), tr, nil); err == nil {
		t.Fatal("StoreEncoded without preprocessing must fail")
	}
}

func TestEmptyRuleSetStillDecodes(t *testing.T) {
	db, tr := setup(t)
	if err := StoreEncoded(context.Background(), db.Conn(), tr, nil); err != nil {
		t.Fatal(err)
	}
	if err := Decode(context.Background(), db.Conn(), tr); err != nil {
		t.Fatal(err)
	}
	n, err := db.QueryInt("SELECT COUNT(*) FROM Out")
	if err != nil || n != 0 {
		t.Fatalf("rules = %d (%v)", n, err)
	}
	// The _Bodies and _Heads tables exist and are empty.
	for _, tab := range []string{"Out_Bodies", "Out_Heads"} {
		n, err := db.QueryInt("SELECT COUNT(*) FROM " + tab)
		if err != nil || n != 0 {
			t.Errorf("%s = %d (%v)", tab, n, err)
		}
	}
}

// TestEmptyItemsetRejected is the regression test for the silent-drop
// bug: StoreEncoded used to intern an empty body/head as an id with
// zero dictionary rows, so the rule survived storage but vanished from
// the decoded output (the Decode join found no dictionary match). The
// core boundary must now reject it with a typed error — and write
// nothing, so a failed batch leaves the output tables untouched.
func TestEmptyItemsetRejected(t *testing.T) {
	db, tr := setup(t)
	a := mining.Item(bidOf(t, db, tr, "a"))

	for _, tc := range []struct {
		name string
		rule mining.Rule
		side string
	}{
		{"empty body", mining.Rule{Body: nil, Head: []mining.Item{a}, Support: 1, Confidence: 1}, "body"},
		{"empty head", mining.Rule{Body: []mining.Item{a}, Head: nil, Support: 1, Confidence: 1}, "head"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			good := mining.Rule{Body: []mining.Item{a}, Head: []mining.Item{a}, Support: 1, Confidence: 1}
			err := StoreEncoded(context.Background(), db.Conn(), tr, []mining.Rule{good, tc.rule})
			if err == nil {
				t.Fatal("StoreEncoded accepted a rule with an empty itemset")
			}
			var ee *EmptyItemsetError
			if !errors.As(err, &ee) {
				t.Fatalf("error type = %T (%v), want *EmptyItemsetError", err, err)
			}
			if ee.Rule != 1 || ee.Side != tc.side {
				t.Errorf("error = %+v, want Rule=1 Side=%s", ee, tc.side)
			}
			// Nothing was stored — not even the valid rule in the batch.
			n, err2 := db.QueryInt("SELECT COUNT(*) FROM " + tr.Names.OutputRules)
			if err2 != nil || n != 0 {
				t.Errorf("OutputRules = %d (%v), want 0 after rejected batch", n, err2)
			}
		})
	}
}

func TestItemsKeyDistinguishesSplits(t *testing.T) {
	// Varint packing must not collide across different item splits.
	a := itemsKey([]mining.Item{1, 2})
	b := itemsKey([]mining.Item{1, 2, 3})
	c := itemsKey([]mining.Item{12})
	if a == b || a == c {
		t.Error("itemsKey collision")
	}
	if itemsKey([]mining.Item{300}) != itemsKey([]mining.Item{300}) {
		t.Error("itemsKey not deterministic")
	}
	if itemsKey([]mining.Item{1, 300}) == itemsKey([]mining.Item{301}) {
		t.Error("multibyte varint collision")
	}
}
