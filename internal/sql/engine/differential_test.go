package engine

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"minerule/internal/sql/schema"
	"minerule/internal/sql/value"
)

// The differential suite runs every query template twice against the
// same database — once on the batched pipeline (the default) and once
// on the row-at-a-time reference operators via RowMode — and requires
// identical results. The data deliberately hits the value-key edge
// cases: NULL, -0.0 vs +0.0, NaN, and exactly-representable
// power-of-two fractions (so SUM/AVG are order-independent and can be
// compared bit-for-bit).
//
// Rows are inserted with Conn.AppendRows rather than SQL because SQL
// literals cannot express NaN or negative zero.

// diffFloats are exact in binary floating point, so any summation
// order produces the same bits.
var diffFloats = []float64{0.5, 1.25, -3.5, 2.0, -0.25, 7.75, 0.0, math.Copysign(0, -1), 12.5, -8.0}

func diffSetup(t *testing.T) *Database {
	t.Helper()
	db := New()
	t.Cleanup(func() { db.Close() })
	script := `
CREATE TABLE t1 (a INTEGER, b FLOAT, c VARCHAR);
CREATE TABLE t2 (a INTEGER, d FLOAT);
CREATE TABLE t3 (a INTEGER, e INTEGER);
`
	if err := db.ExecScript(script); err != nil {
		t.Fatalf("setup: %v", err)
	}
	rng := rand.New(rand.NewSource(7))
	strs := []string{"alpha", "beta", "gamma", "delta", ""}
	var t1, t2, t3 []schema.Row
	for i := 0; i < 3000; i++ {
		row := schema.Row{
			value.NewInt(int64(rng.Intn(200))),
			value.NewFloat(diffFloats[rng.Intn(len(diffFloats))]),
			value.NewString(strs[rng.Intn(len(strs))]),
		}
		switch rng.Intn(20) {
		case 0:
			row[0] = value.Null
		case 1:
			row[1] = value.Null
		case 2:
			row[1] = value.NewFloat(math.NaN())
		case 3:
			row[2] = value.Null
		}
		t1 = append(t1, row)
	}
	for i := 0; i < 400; i++ {
		row := schema.Row{
			value.NewInt(int64(rng.Intn(200))),
			value.NewFloat(diffFloats[rng.Intn(len(diffFloats))]),
		}
		if rng.Intn(15) == 0 {
			row[0] = value.Null
		}
		t2 = append(t2, row)
	}
	for i := 0; i < 150; i++ {
		row := schema.Row{
			value.NewInt(int64(rng.Intn(200))),
			value.NewInt(int64(rng.Intn(10))),
		}
		t3 = append(t3, row)
	}
	c := db.Conn()
	for name, rows := range map[string][]schema.Row{"t1": t1, "t2": t2, "t3": t3} {
		if err := c.AppendRows(context.Background(), name, rows); err != nil {
			t.Fatalf("insert %s: %v", name, err)
		}
	}
	return db
}

// diffKeys renders each result row as its canonical key-byte string
// (the same encoding GROUP BY and DISTINCT use), which canonicalizes
// NaN payloads and -0.0 so semantically equal rows compare equal.
func diffKeys(rows []schema.Row) []string {
	out := make([]string, len(rows))
	var kb []byte
	for i, r := range rows {
		kb = kb[:0]
		for _, v := range r {
			kb = schema.AppendValueKey(kb, v)
		}
		out[i] = string(kb)
	}
	return out
}

type diffQuery struct {
	sql string
	// ordered queries ORDER BY every projected column, so tie rows have
	// identical key bytes and a positional comparison is exact; the rest
	// compare as sorted multisets (join and hash orders may differ).
	ordered bool
}

var diffQueries = []diffQuery{
	{sql: "SELECT a, b, c FROM t1"},
	{sql: "SELECT a, b FROM t1 WHERE a > 50"},
	{sql: "SELECT a, c FROM t1 WHERE b >= 0.0 AND c <> 'beta'"},
	{sql: "SELECT a, b FROM t1 WHERE b IS NULL OR c IS NULL"},
	{sql: "SELECT t1.a, t1.b, t2.d FROM t1, t2 WHERE t1.a = t2.a"},
	{sql: "SELECT t1.a, t2.d, t3.e FROM t1, t2, t3 WHERE t1.a = t2.a AND t2.a = t3.a"},
	{sql: "SELECT t1.a, t2.d FROM t1, t2 WHERE t1.a = t2.a AND t1.b > t2.d"},
	{sql: "SELECT t2.a, t3.e FROM t2, t3 WHERE t2.d > 1.0"},
	{sql: "SELECT c, COUNT(*), SUM(b) FROM t1 GROUP BY c"},
	{sql: "SELECT a, MIN(b), MAX(b), AVG(b) FROM t1 GROUP BY a"},
	{sql: "SELECT c, COUNT(DISTINCT a) FROM t1 GROUP BY c"},
	{sql: "SELECT c, COUNT(*) FROM t1 GROUP BY c HAVING COUNT(*) > 400"},
	{sql: "SELECT DISTINCT c FROM t1"},
	{sql: "SELECT DISTINCT a, b FROM t1 WHERE a < 30"},
	{sql: "SELECT t2.a, COUNT(*), SUM(t1.b) FROM t1, t2 WHERE t1.a = t2.a GROUP BY t2.a"},
	{sql: "SELECT t1.a, t2.d FROM t1 LEFT JOIN t2 ON t1.a = t2.a WHERE t1.a < 40"},
	{sql: "SELECT a FROM t1 UNION SELECT a FROM t2"},
	{sql: "SELECT a, b, c FROM t1 ORDER BY a, b, c", ordered: true},
	{sql: "SELECT DISTINCT c, a FROM t1 ORDER BY c, a", ordered: true},
}

func TestDifferentialBatchedVsRow(t *testing.T) {
	db := diffSetup(t)
	for _, q := range diffQueries {
		q := q
		t.Run(q.sql, func(t *testing.T) {
			db.RowMode(false)
			batched, err := db.Query(q.sql)
			if err != nil {
				t.Fatalf("batched: %v", err)
			}
			db.RowMode(true)
			ref, err := db.Query(q.sql)
			db.RowMode(false)
			if err != nil {
				t.Fatalf("row mode: %v", err)
			}
			bk, rk := diffKeys(batched.Rows), diffKeys(ref.Rows)
			if len(bk) != len(rk) {
				t.Fatalf("row count: batched %d, reference %d", len(bk), len(rk))
			}
			if !q.ordered {
				sort.Strings(bk)
				sort.Strings(rk)
			}
			for i := range bk {
				if bk[i] != rk[i] {
					t.Fatalf("row %d differs:\n  batched:   %s\n  reference: %s",
						i, diffRowAt(batched.Rows, rk, bk[i]), diffRowAt(ref.Rows, bk, rk[i]))
				}
			}
		})
	}
}

// diffRowAt finds the first row whose key is missing from the other
// side's key set, for a readable failure message.
func diffRowAt(rows []schema.Row, otherKeys []string, fallbackKey string) string {
	other := make(map[string]int, len(otherKeys))
	for _, k := range otherKeys {
		other[k]++
	}
	var kb []byte
	for _, r := range rows {
		kb = kb[:0]
		for _, v := range r {
			kb = schema.AppendValueKey(kb, v)
		}
		if other[string(kb)] > 0 {
			other[string(kb)]--
			continue
		}
		return fmt.Sprintf("%v", r)
	}
	return fmt.Sprintf("key %q", fallbackKey)
}
