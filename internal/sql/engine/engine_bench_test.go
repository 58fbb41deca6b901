package engine

import (
	"fmt"
	"strings"
	"testing"
)

// benchDB loads two joinable tables of the given sizes.
func benchDB(b testing.TB, left, right int) *Database {
	b.Helper()
	db := New()
	if err := db.ExecScript("CREATE TABLE l (k INTEGER, v INTEGER); CREATE TABLE r (k INTEGER, w INTEGER)"); err != nil {
		b.Fatal(err)
	}
	load := func(table string, n int) {
		var sb strings.Builder
		for i := 0; i < n; i++ {
			if sb.Len() > 0 {
				sb.WriteString(", ")
			}
			fmt.Fprintf(&sb, "(%d, %d)", i%997, i)
			if (i+1)%500 == 0 || i == n-1 {
				if _, err := db.Exec("INSERT INTO " + table + " VALUES " + sb.String()); err != nil {
					b.Fatal(err)
				}
				sb.Reset()
			}
		}
	}
	load("l", left)
	load("r", right)
	return db
}

// BenchmarkHashJoin measures the equi-join path the preprocessor's
// Q3/Q4/Q8 queries live on.
func BenchmarkHashJoin(b *testing.B) {
	for _, n := range []int{1000, 10000} {
		b.Run(fmt.Sprintf("rows=%d", n), func(b *testing.B) {
			db := benchDB(b, n, n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := db.Query("SELECT COUNT(*) FROM l, r WHERE l.k = r.k"); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkHashJoinAsymmetric measures the lopsided join shape that
// punished the old build-side choice: a 10-row dimension table against
// a 50k-row fact table. The hash table must be built on the small side
// regardless of which side of the comma (or the equality) it appears
// on, so both orientations should cost the same.
func BenchmarkHashJoinAsymmetric(b *testing.B) {
	const small, big = 10, 50000
	for _, tc := range []struct {
		name, query string
	}{
		{"small-left", "SELECT COUNT(*) FROM l, r WHERE l.k = r.k"},
		{"small-right", "SELECT COUNT(*) FROM r, l WHERE r.k = l.k"},
	} {
		b.Run(tc.name, func(b *testing.B) {
			db := benchDB(b, small, big)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := db.Query(tc.query); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestHashJoinBuildSide proves the executor builds the hash table on
// the smaller input in both orientations of an asymmetric join.
func TestHashJoinBuildSide(t *testing.T) {
	db := benchDB(t, 10, 5000)
	for _, tc := range []struct {
		query, want string
	}{
		{"EXPLAIN SELECT COUNT(*) FROM l, r WHERE l.k = r.k", "build=left"},
		{"EXPLAIN SELECT COUNT(*) FROM r, l WHERE r.k = l.k", "build=right"},
	} {
		res, err := db.Query(tc.query)
		if err != nil {
			t.Fatal(err)
		}
		var plan strings.Builder
		for _, r := range res.Rows {
			plan.WriteString(r[0].String())
			plan.WriteByte('\n')
		}
		if !strings.Contains(plan.String(), tc.want) {
			t.Fatalf("%s: expected %s in plan:\n%s", tc.query, tc.want, plan.String())
		}
	}
}

// BenchmarkThetaJoin measures the Cartesian-plus-filter fallback used
// by the cluster-pair inequality of Q7.
func BenchmarkThetaJoin(b *testing.B) {
	db := benchDB(b, 300, 300)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.Query("SELECT COUNT(*) FROM l, r WHERE l.k < r.k"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGroupByHaving measures the shape of Q2/Q3's encoding queries.
func BenchmarkGroupByHaving(b *testing.B) {
	db := benchDB(b, 20000, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.Query("SELECT k, COUNT(*) FROM l GROUP BY k HAVING COUNT(*) >= 10"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDistinct measures the dedup path behind Q1 and the DISTINCT
// encodings.
func BenchmarkDistinct(b *testing.B) {
	db := benchDB(b, 20000, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.Query("SELECT DISTINCT k FROM l"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkInsertSelect measures the materialization path of Q0.
func BenchmarkInsertSelect(b *testing.B) {
	db := benchDB(b, 20000, 0)
	if err := db.ExecScript("CREATE TABLE sink (k INTEGER, v INTEGER)"); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.Exec("DELETE FROM sink"); err != nil {
			b.Fatal(err)
		}
		if _, err := db.Exec("INSERT INTO sink (SELECT k, v FROM l WHERE v >= 0)"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSequenceNextval measures identifier minting (Q2/Q3's
// NEXTVAL-per-row).
func BenchmarkSequenceNextval(b *testing.B) {
	db := benchDB(b, 10000, 0)
	if err := db.ExecScript("CREATE SEQUENCE s; CREATE TABLE ids (id INTEGER, k INTEGER)"); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.Exec("DELETE FROM ids"); err != nil {
			b.Fatal(err)
		}
		if _, err := db.Exec("INSERT INTO ids (SELECT s.NEXTVAL, k FROM l)"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkIndexedPointLookup compares an equality SELECT with and
// without a hash index.
func BenchmarkIndexedPointLookup(b *testing.B) {
	for _, indexed := range []bool{false, true} {
		name := "scan"
		if indexed {
			name = "indexed"
		}
		b.Run(name, func(b *testing.B) {
			db := benchDB(b, 20000, 0)
			if indexed {
				if _, err := db.Exec("CREATE INDEX l_k ON l (k)"); err != nil {
					b.Fatal(err)
				}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := db.Query("SELECT COUNT(*) FROM l WHERE k = 500"); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// basketBenchDB loads the shape of the basket workload's preprocessing
// inputs: S holds 4000 groups of 10 distinct VARCHAR items (40k rows),
// V numbers the groups as ValidGroups does.
func basketBenchDB(b *testing.B) *Database {
	b.Helper()
	db := New()
	if err := db.ExecScript("CREATE TABLE S (gid INTEGER, item VARCHAR); CREATE TABLE V (mr_gid INTEGER, gid INTEGER)"); err != nil {
		b.Fatal(err)
	}
	const groups, perGroup = 4000, 10
	var sb strings.Builder
	for g := 0; g < groups; g++ {
		if sb.Len() > 0 {
			sb.WriteString(", ")
		}
		for j := 0; j < perGroup; j++ {
			if j > 0 {
				sb.WriteString(", ")
			}
			fmt.Fprintf(&sb, "(%d, 'item%03d')", g, (g*13+j*37)%500)
		}
		if (g+1)%50 == 0 {
			if _, err := db.Exec("INSERT INTO S VALUES " + sb.String()); err != nil {
				b.Fatal(err)
			}
			sb.Reset()
		}
	}
	if _, err := db.Exec("INSERT INTO V (SELECT DISTINCT gid + 1, gid FROM S)"); err != nil {
		b.Fatal(err)
	}
	return db
}

// BenchmarkDistinctJoinPairs measures Q3's shape: a DISTINCT over a
// hash join that yields 40k distinct (VARCHAR, INTEGER) pairs, so the
// dedup table, not the join, holds most keys.
func BenchmarkDistinctJoinPairs(b *testing.B) {
	db := basketBenchDB(b)
	const q = "SELECT DISTINCT S.item, V.mr_gid FROM S, V WHERE S.gid = V.gid"
	if res, err := db.Query(q); err != nil || len(res.Rows) != 40000 {
		b.Fatalf("setup: %v rows, %v", len(res.Rows), err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.Query(q); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPointFilter measures an unindexed point read over 40k rows:
// a scan that copies and filters every row to return ten.
func BenchmarkPointFilter(b *testing.B) {
	db := basketBenchDB(b)
	const q = "SELECT * FROM S WHERE gid = 1234"
	if res, err := db.Query(q); err != nil || len(res.Rows) != 10 {
		b.Fatalf("setup: %v rows, %v", len(res.Rows), err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.Query(q); err != nil {
			b.Fatal(err)
		}
	}
}
