package driver_test

import (
	"database/sql"
	"math"
	"strconv"
	"strings"
	"testing"

	"minerule"
)

// TestBoundArgumentsRoundTrip: prepared arguments travel as values, so
// every float and integer comes back bit for bit (NaN, ±Inf, -0.0,
// MinInt64) and strings holding SQL syntax stay data.
func TestBoundArgumentsRoundTrip(t *testing.T) {
	addr, _ := startServer(t, minerule.ServerConfig{})
	db := openDB(t, "tcp://"+addr)
	if _, err := db.Exec("CREATE TABLE rt (k INTEGER, f FLOAT, s VARCHAR)"); err != nil {
		t.Fatal(err)
	}
	type row struct {
		k int64
		f float64
		s string
	}
	want := []row{
		{1, math.NaN(), "nan"},
		{2, math.Inf(1), "+inf"},
		{3, math.Inf(-1), "-inf"},
		{4, math.Copysign(0, -1), "-0"},
		{math.MinInt64, 1.5, "min"},
		{5, 0, "it's"},
		{6, 0, "what?"},
		{7, 0, "a -- b"},
		{8, 0, "/* c */"},
		{9, 0, "'?'; DROP TABLE rt; --"},
	}
	ins, err := db.Prepare("INSERT INTO rt VALUES (?, ?, ?)")
	if err != nil {
		t.Fatal(err)
	}
	defer ins.Close()
	for _, r := range want {
		if _, err := ins.Exec(r.k, r.f, r.s); err != nil {
			t.Fatalf("insert %v: %v", r, err)
		}
	}
	byKey, err := db.Prepare("SELECT k, f, s FROM rt WHERE k = ?")
	if err != nil {
		t.Fatal(err)
	}
	defer byKey.Close()
	byStr, err := db.Prepare("SELECT k FROM rt WHERE s = ?")
	if err != nil {
		t.Fatal(err)
	}
	defer byStr.Close()
	for _, r := range want {
		var got row
		if err := byKey.QueryRow(r.k).Scan(&got.k, &got.f, &got.s); err != nil {
			t.Fatalf("k = %d: %v", r.k, err)
		}
		if got.k != r.k || math.Float64bits(got.f) != math.Float64bits(r.f) || got.s != r.s {
			t.Errorf("k = %d: got (%d, %v, %q), want (%d, %v, %q)", r.k, got.k, got.f, got.s, r.k, r.f, r.s)
		}
		var k int64
		if err := byStr.QueryRow(r.s).Scan(&k); err != nil || k != r.k {
			t.Errorf("s = %q: key %d, %v; want %d", r.s, k, err, r.k)
		}
	}
}

// TestPrepareMineRule: a MINE RULE prepares like any statement and its
// Query streams the rules a direct Query does; a ? in it fails at
// Prepare with its position.
func TestPrepareMineRule(t *testing.T) {
	addr, _ := startServer(t, minerule.ServerConfig{})
	db := openDB(t, "tcp://"+addr)
	if _, err := db.Exec(purchaseDDL); err != nil {
		t.Fatal(err)
	}
	const mine = `MINE RULE R AS
		SELECT DISTINCT 1..n item AS BODY, 1..1 item AS HEAD, SUPPORT, CONFIDENCE
		FROM Purchase GROUP BY tr
		EXTRACTING RULES WITH SUPPORT: 0.25, CONFIDENCE: 0.5`
	collect := func(rows *sql.Rows, err error) []string {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		defer rows.Close()
		var out []string
		for rows.Next() {
			var body, head string
			var s, c float64
			if err := rows.Scan(&body, &head, &s, &c); err != nil {
				t.Fatal(err)
			}
			out = append(out, body+"=>"+head)
		}
		if err := rows.Err(); err != nil {
			t.Fatal(err)
		}
		return out
	}
	direct := collect(db.Query(mine))
	st, err := db.Prepare(mine)
	if err != nil {
		t.Fatalf("Prepare(MINE RULE): %v", err)
	}
	defer st.Close()
	prepared := collect(st.Query())
	if len(direct) == 0 || strings.Join(prepared, "\n") != strings.Join(direct, "\n") {
		t.Fatalf("prepared MINE RULE streamed\n%v\nwant\n%v", prepared, direct)
	}

	withParam := strings.Replace(mine, "0.25", "?", 1)
	_, err = db.Prepare(withParam)
	if err == nil || !strings.Contains(err.Error(), "parameter ? is not allowed in MINE RULE") ||
		!strings.Contains(err.Error(), "offset "+strconv.Itoa(strings.Index(withParam, "?"))) {
		t.Fatalf("Prepare(MINE RULE with ?) = %v, want a positioned rejection", err)
	}
}

// TestPrepareTooManyParams: Prepared and Execute frames count arguments
// in 16 bits, so a text with more ? parameters is refused at Prepare
// rather than reporting a wrapped count.
func TestPrepareTooManyParams(t *testing.T) {
	addr, _ := startServer(t, minerule.ServerConfig{})
	db := openDB(t, "tcp://"+addr)
	text := "SELECT " + strings.Repeat("?, ", math.MaxUint16) + "?"
	if _, err := db.Prepare(text); err == nil || !strings.Contains(err.Error(), "65536 parameters, at most 65535") {
		t.Fatalf("Prepare with 65536 parameters = %v, want a refusal", err)
	}
}
