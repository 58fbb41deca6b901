package engine

import (
	"context"
	"strings"
	"testing"
	"time"

	"minerule/internal/resource"
	"minerule/internal/sql/parse"
	"minerule/internal/sql/value"
)

// staticErrMarkers are the error classes the semantic checker promises
// to preclude: when semck accepts a statement, the executor must never
// fail name resolution, function lookup or aggregate placement on it.
// Data-dependent failures (division by zero, date parsing, row limits,
// storage type errors on statically-NULL expressions) remain legal.
var staticErrMarkers = []string{
	"exec: unknown table or view ",
	"exec: unknown table ",
	"exec: unknown sequence ",
	"exec: unknown function ",
	"schema: unknown column ",
	"schema: ambiguous column reference ",
	"outside GROUP BY context",
	"takes one argument",
}

// FuzzSemCheckSeeds are FuzzSemCheck's seed statements, over the tables
// FuzzSemCheckSetup creates; other differential tests reuse them as a
// corpus.
var FuzzSemCheckSeeds = []string{
	// Q0/Q1 shape: source view + total-group count.
	"CREATE VIEW mrsrc AS SELECT a, b, d FROM t",
	"SELECT COUNT(*) FROM (SELECT DISTINCT a FROM t)",
	// Q2 shape: group encoding with a sequence and HAVING.
	"CREATE TABLE vg (mr_gid INTEGER, a INTEGER);" +
		" INSERT INTO vg (SELECT seq.NEXTVAL AS mr_gid, V.a FROM (SELECT DISTINCT a FROM t) AS V)",
	"CREATE TABLE bs (mr_bid INTEGER, b VARCHAR, mr_gcount INTEGER);" +
		" INSERT INTO bs (SELECT seq.NEXTVAL, b, COUNT(*) FROM t GROUP BY b HAVING COUNT(*) >= 1)",
	// Q3 shape: cluster-couple self-join.
	"SELECT b.a AS mr_bcid, h.a AS mr_hcid FROM t b, t h WHERE b.a = h.a AND b.b < h.b",
	// Q5/Q6 shape: coded-source join plus grouped support count.
	"SELECT DISTINCT V.a, B.b FROM t S, t V, t B WHERE S.a = V.a AND S.b = B.b",
	"SELECT a, b, COUNT(DISTINCT d) AS mr_scount FROM t GROUP BY a, b",
	// Q8-Q10/decode shape: rule materialisation and decode joins.
	"SELECT e.a, l.b FROM t e, s l WHERE e.a = l.x AND l.x >= 1",
	"INSERT INTO s (SELECT a, b FROM t WHERE d IS NOT NULL)",
	// semck corpus: typing, aggregates, subqueries, set ops, DDL.
	"SELECT ROUND(AVG(a), 2) FROM t GROUP BY b HAVING COUNT(*) > 1",
	"SELECT a FROM t WHERE EXISTS (SELECT 1 FROM s WHERE s.x = t.a)",
	"SELECT a FROM t UNION SELECT x FROM s ORDER BY 1",
	"SELECT CASE WHEN a > 1 THEN b ELSE 'none' END FROM t",
	"SELECT d + 1, d - d FROM t WHERE d > '2020-01-01'",
	"SELECT COALESCE(b, 'x'), SUBSTR(b, 1, 2) FROM t",
	"UPDATE t SET a = a + 1 WHERE b LIKE 'x%'",
	"CREATE TABLE u (x INTEGER); INSERT INTO u VALUES (1); DROP TABLE u",
	"CREATE VIEW w AS SELECT a FROM t; SELECT * FROM w; DROP VIEW w",
	"EXPLAIN SELECT a FROM t WHERE a > 0",
	// Statically ill-typed: semck must reject, never panic.
	"SELECT a + b FROM t",
	"SELECT * FROM nosuch",
	"SELECT NOSUCHFUNC(a) FROM t",
	// ? parameters, bound by FuzzSemCheck to small integers.
	"SELECT a, ? FROM t WHERE a = ? OR b IN (SELECT y FROM s WHERE x > ?)",
	"INSERT INTO s VALUES (?, 'p'); UPDATE t SET a = ? WHERE d IS NULL",
	"SELECT b FROM t WHERE b = ?",
}

// FuzzSemCheckSetup is the dictionary and data every FuzzSemCheck input
// runs against.
const FuzzSemCheckSetup = `
	CREATE TABLE t (a INTEGER, b VARCHAR, d DATE);
	INSERT INTO t VALUES (1, 'x', '2020-01-02'), (2, 'y', '2021-03-04'), (2, NULL, NULL);
	CREATE TABLE s (x INTEGER, y VARCHAR);
	INSERT INTO s VALUES (1, 'x');
	CREATE SEQUENCE seq;
`

// FuzzSemCheck is the differential fuzz between the prepare-time
// semantic checker and the executor. Every statement is pushed through
// the full engine path (parse → semck → exec); the properties are:
//
//  1. no input text panics or hangs the checker or the engine (? parameters
//     bind the integers 1..n);
//  2. a statement that passes semck (i.e. reaches the executor) never
//     fails with a static-analysis error class at runtime.
//
// Seeds cover the shapes of the kernel translator's generated program
// (Q0–Q11: source materialisation, group encoding with NEXTVAL and
// HAVING, cluster coupling self-joins, rule decode joins) plus the
// hand-written semck corpus. Run with:
// go test -fuzz FuzzSemCheck ./internal/sql/engine
func FuzzSemCheck(f *testing.F) {
	for _, s := range FuzzSemCheckSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		if len(src) > 4096 {
			return // bound parse/check/exec work per iteration
		}
		db := New()
		if err := db.ExecScript(FuzzSemCheckSetup); err != nil {
			t.Fatal(err)
		}
		db.SetLimits(resource.Limits{MaxRows: 10000})
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		for _, stmt := range strings.Split(src, ";") {
			_, n, _ := parse.ParseParams(stmt)
			args := make([]value.Value, n)
			for i := range args {
				args[i] = value.NewInt(int64(i + 1))
			}
			_, err := db.def.ExecContext(ctx, stmt, args...)
			if err == nil {
				continue
			}
			msg := err.Error()
			if strings.Contains(msg, "semck:") || strings.Contains(msg, "parse:") {
				continue // rejected before execution: the checker's job
			}
			for _, marker := range staticErrMarkers {
				if strings.Contains(msg, marker) {
					t.Fatalf("statement passed semck but failed statically at runtime:\n  stmt: %s\n  err:  %v", stmt, err)
				}
			}
		}
	})
}
