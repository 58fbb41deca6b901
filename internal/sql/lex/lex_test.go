package lex

import (
	"strings"
	"testing"
)

func kinds(toks []Token) []Kind {
	out := make([]Kind, len(toks))
	for i, t := range toks {
		out[i] = t.Kind
	}
	return out
}

func texts(toks []Token) string {
	parts := make([]string, 0, len(toks))
	for _, t := range toks {
		if t.Kind == EOF {
			break
		}
		parts = append(parts, t.Text)
	}
	return strings.Join(parts, "|")
}

func TestBasicTokens(t *testing.T) {
	toks, err := Lex("SELECT a, b FROM t WHERE x >= 1.5")
	if err != nil {
		t.Fatal(err)
	}
	want := "SELECT|a|,|b|FROM|t|WHERE|x|>=|1.5"
	if got := texts(toks); got != want {
		t.Fatalf("got %s, want %s", got, want)
	}
}

func TestCardinalityDots(t *testing.T) {
	// "1..n" must lex as Number(1) Punct(..) Ident(n) — the MINE RULE
	// cardinality spec — not as the float 1. followed by .n.
	toks, err := Lex("1..n item")
	if err != nil {
		t.Fatal(err)
	}
	if got := texts(toks); got != "1|..|n|item" {
		t.Fatalf("got %s", got)
	}
	if toks[0].Kind != Number || toks[1].Kind != Punct || toks[2].Kind != Ident {
		t.Fatalf("kinds = %v", kinds(toks))
	}
}

func TestNumbers(t *testing.T) {
	cases := map[string]string{
		"0.2":    "0.2",
		"42":     "42",
		".5":     ".5",
		"1e3":    "1e3",
		"2.5E-2": "2.5E-2",
	}
	for in, want := range cases {
		toks, err := Lex(in)
		if err != nil {
			t.Errorf("%q: %v", in, err)
			continue
		}
		if toks[0].Kind != Number || toks[0].Text != want {
			t.Errorf("%q lexed to %v %q", in, toks[0].Kind, toks[0].Text)
		}
	}
}

func TestStrings(t *testing.T) {
	toks, err := Lex("'it''s a test'")
	if err != nil {
		t.Fatal(err)
	}
	if toks[0].Kind != String || toks[0].Text != "it's a test" {
		t.Fatalf("got %v %q", toks[0].Kind, toks[0].Text)
	}
	if _, err := Lex("'unterminated"); err == nil {
		t.Error("unterminated string must fail")
	}
}

func TestDelimitedIdent(t *testing.T) {
	toks, err := Lex(`"Mixed Case"`)
	if err != nil {
		t.Fatal(err)
	}
	if toks[0].Kind != Ident || toks[0].Text != "Mixed Case" {
		t.Fatalf("got %v %q", toks[0].Kind, toks[0].Text)
	}
}

func TestComments(t *testing.T) {
	toks, err := Lex("a -- line comment\nb /* block\ncomment */ c")
	if err != nil {
		t.Fatal(err)
	}
	if got := texts(toks); got != "a|b|c" {
		t.Fatalf("got %s", got)
	}
	if _, err := Lex("/* unterminated"); err == nil {
		t.Error("unterminated block comment must fail")
	}
}

func TestMultiCharOperators(t *testing.T) {
	toks, err := Lex("a <= b >= c <> d != e || f")
	if err != nil {
		t.Fatal(err)
	}
	if got := texts(toks); got != "a|<=|b|>=|c|<>|d|!=|e||||f" {
		t.Fatalf("got %s", got)
	}
}

func TestKeywordHelpers(t *testing.T) {
	toks, _ := Lex("SeLeCt (")
	if !toks[0].IsKeyword("select") || !toks[0].IsKeyword("SELECT") {
		t.Error("keyword matching must be case-insensitive")
	}
	if !toks[1].IsPunct("(") || toks[1].IsPunct(")") {
		t.Error("IsPunct mismatch")
	}
}

func TestBadInput(t *testing.T) {
	if _, err := Lex("a @ b"); err == nil {
		t.Error("@ must be rejected")
	}
}

// TestParamMarker: a bare ? is one Punct token; inside a string, a
// delimited identifier or a comment it belongs to that token.
func TestParamMarker(t *testing.T) {
	toks, err := Lex("a = ? AND b = '?' -- ?\n/* ? */ \"?\"")
	if err != nil {
		t.Fatal(err)
	}
	if got := texts(toks); got != "a|=|?|AND|b|=|?|?" {
		t.Fatalf("got %s", got)
	}
	if !toks[2].IsPunct("?") || toks[6].Kind != String || toks[7].Kind != Ident {
		t.Fatalf("kinds = %v %v %v", toks[2].Kind, toks[6].Kind, toks[7].Kind)
	}
}

func TestPositions(t *testing.T) {
	toks, err := Lex("ab cd")
	if err != nil {
		t.Fatal(err)
	}
	if toks[0].Pos != 0 || toks[1].Pos != 3 {
		t.Fatalf("positions = %d %d", toks[0].Pos, toks[1].Pos)
	}
}

func TestEOFAlwaysLast(t *testing.T) {
	for _, in := range []string{"", "  ", "a", "-- only comment"} {
		toks, err := Lex(in)
		if err != nil {
			t.Fatal(err)
		}
		if len(toks) == 0 || toks[len(toks)-1].Kind != EOF {
			t.Errorf("%q: missing EOF", in)
		}
	}
}

// TestSplit: statements end at ';' tokens only, so a ';' in a string,
// delimited identifier or comment does not split, and a trailing ';'
// or comment adds no statement.
func TestSplit(t *testing.T) {
	cases := []struct {
		in   string
		want []string
	}{
		{"CREATE TABLE t (a INT); INSERT INTO t VALUES (1)", []string{"CREATE TABLE t (a INT)", "INSERT INTO t VALUES (1)"}},
		{"SELECT * FROM t;", []string{"SELECT * FROM t"}},
		{"SELECT * FROM t; -- done", []string{"SELECT * FROM t"}},
		{"INSERT INTO t VALUES (?); INSERT INTO t VALUES (?)", []string{"INSERT INTO t VALUES (?)", "INSERT INTO t VALUES (?)"}},
		{"SELECT ';', \"a;b\" /* ; */ FROM t -- ;\n", []string{"SELECT ';', \"a;b\" /* ; */ FROM t -- ;"}},
		{";;", nil},
		{"", nil},
	}
	for _, c := range cases {
		got, err := Split(c.in)
		if err != nil || strings.Join(got, "|") != strings.Join(c.want, "|") {
			t.Errorf("Split(%q) = %q, %v; want %q", c.in, got, err, c.want)
		}
	}
	if _, err := Split("SELECT 'open"); err == nil {
		t.Error("Split must fail where Lex fails")
	}
}
