package parse

import (
	"testing"

	"minerule/internal/sql/lex"
)

// FuzzParse checks the parser never panics, and that anything it
// accepts renders back to SQL it accepts again (the view mechanism's
// contract). Run with: go test -fuzz FuzzParse ./internal/sql/parse
func FuzzParse(f *testing.F) {
	seeds := []string{
		"SELECT 1",
		"SELECT DISTINCT a, b AS x FROM t, u WHERE a = 1 AND b BETWEEN 2 AND 3 ORDER BY x DESC",
		"SELECT a, COUNT(*) FROM t GROUP BY a HAVING COUNT(*) > 2",
		"SELECT s.NEXTVAL, v.* FROM view_name AS v",
		"INSERT INTO t (a, b) VALUES (1, 'x''y'), (NULL, 'z')",
		"INSERT INTO t (SELECT DISTINCT a FROM u WHERE a IN (SELECT b FROM w))",
		"CREATE TABLE t (a INTEGER, b VARCHAR(10), c DATE)",
		"CREATE VIEW v AS SELECT a FROM t UNION SELECT b FROM u",
		"UPDATE t SET a = CASE WHEN b > 0 THEN 1 ELSE -1 END WHERE c IS NOT NULL",
		"DELETE FROM t WHERE a LIKE 'x%' OR b NOT IN (1, 2)",
		"SELECT a FROM t JOIN u ON t.x = u.y LEFT JOIN w ON u.y = w.z LIMIT 5 OFFSET 2",
		"SELECT CASE a WHEN 1 THEN 'x' END FROM t EXCEPT SELECT b FROM u",
		"SELECT * FROM (SELECT a FROM t INTERSECT SELECT a FROM u) d WHERE EXISTS (SELECT 1)",
		"SELECT -a + 2 * (b - 3) / 4 || 'tail' FROM t",
		"SELECT DATE '1995-12-17' FROM t",
		"CREATE SEQUENCE s; DROP SEQUENCE s; DROP VIEW v; DROP TABLE t",
		"SELECT a, '?' FROM t /* ? */ WHERE a = ? AND b IN (?, -?) -- ?",
		"INSERT INTO t VALUES (?, ?); UPDATE t SET a = ? WHERE b = ?",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		sts, _, err := ParseScript(src)
		if err != nil {
			return
		}
		for _, st := range sts {
			rendered := st.SQL()
			st2, err := Parse(rendered)
			if err != nil {
				t.Fatalf("accepted %q but rejected its rendering %q: %v", src, rendered, err)
			}
			if st2.SQL() != rendered {
				t.Fatalf("rendering not a fixpoint:\n  %s\n  %s", rendered, st2.SQL())
			}
		}
	})
}

// FuzzLex checks the lexer never panics and that token positions stay
// within bounds and non-decreasing.
func FuzzLex(f *testing.F) {
	for _, s := range []string{"", "a 1 'x' \"q\" <= .. -- c\n/* b */", "1..n item AS BODY", "'unterminated", "a = ? AND '?' -- ?\n\"?\" ?;?"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		toks, err := lex.Lex(src)
		if err != nil {
			return
		}
		prev := -1
		for _, tok := range toks {
			if tok.Pos < prev || tok.Pos > len(src) {
				t.Fatalf("position %d out of order (prev %d, len %d)", tok.Pos, prev, len(src))
			}
			prev = tok.Pos
		}
		if len(toks) == 0 || toks[len(toks)-1].Kind != lex.EOF {
			t.Fatal("missing EOF token")
		}
	})
}
