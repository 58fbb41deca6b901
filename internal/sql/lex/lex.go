// Package lex tokenizes SQL text. The same lexical grammar serves both
// the engine's SQL dialect and the MINE RULE operator (paper §4.1), whose
// only lexical addition is the ".." cardinality token.
package lex

import (
	"fmt"
	"strings"
)

// Kind classifies tokens.
type Kind int

// Token kinds. Keywords are not distinguished lexically: parsers match
// identifiers case-insensitively, which keeps the keyword sets of the two
// languages independent.
const (
	EOF Kind = iota
	Ident
	Number // integer or decimal literal; Text holds the spelling
	String // quoted string; Text holds the unescaped content
	Punct  // operator or punctuation; Text holds the symbol
)

func (k Kind) String() string {
	switch k {
	case EOF:
		return "end of input"
	case Ident:
		return "identifier"
	case Number:
		return "number"
	case String:
		return "string"
	case Punct:
		return "punctuation"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Token is one lexical element with its source position (byte offset).
type Token struct {
	Kind Kind
	Text string
	Pos  int
}

// String renders the token for error messages.
func (t Token) String() string {
	switch t.Kind {
	case EOF:
		return "end of input"
	case String:
		return fmt.Sprintf("'%s'", t.Text)
	default:
		return fmt.Sprintf("%q", t.Text)
	}
}

// IsKeyword reports a case-insensitive match of an identifier token
// against the given keyword.
func (t Token) IsKeyword(kw string) bool {
	return t.Kind == Ident && strings.EqualFold(t.Text, kw)
}

// IsPunct reports whether the token is the given punctuation symbol.
func (t Token) IsPunct(p string) bool {
	return t.Kind == Punct && t.Text == p
}

// multi lists multi-character operators, longest first so that the
// scanner prefers ".." over "." and "<=" over "<".
var multi = []string{"..", "<=", ">=", "<>", "!=", "||"}

// Lex tokenizes src. It returns an error for unterminated strings or
// bytes outside the lexical grammar. Comments use SQL's "--" to end of
// line and "/* */" blocks. A "?" is the parameter marker, a Punct token
// the SQL parser turns into a parameter node; a "?" inside a string,
// delimited identifier or comment is part of that token, never a marker.
func Lex(src string) ([]Token, error) {
	var toks []Token
	if err := scan(src, func(t Token) { toks = append(toks, t) }); err != nil {
		return nil, err
	}
	return toks, nil
}

// Split cuts src at its ';' tokens into the texts of its statements,
// trimmed, skipping empty ones; a ';' inside a string, delimited
// identifier or comment does not split. It fails where Lex fails, and
// keeps no tokens.
func Split(src string) ([]string, error) {
	var out []string
	start := -1 // offset of the current statement's first token
	err := scan(src, func(t Token) {
		switch {
		case t.Kind == EOF || t.IsPunct(";"):
			if start >= 0 {
				out = append(out, strings.TrimSpace(src[start:t.Pos]))
			}
			start = -1
		case start < 0:
			start = t.Pos
		}
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// scan hands each token of src to emit, EOF last.
func scan(src string, emit func(Token)) error {
	i, n := 0, len(src)
	for i < n {
		c := src[i]
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			i++
		case c == '-' && i+1 < n && src[i+1] == '-':
			for i < n && src[i] != '\n' {
				i++
			}
		case c == '/' && i+1 < n && src[i+1] == '*':
			end := strings.Index(src[i+2:], "*/")
			if end < 0 {
				return fmt.Errorf("lex: unterminated block comment at offset %d", i)
			}
			i += 2 + end + 2
		case c == '\'':
			s, next, err := lexString(src, i)
			if err != nil {
				return err
			}
			emit(Token{Kind: String, Text: s, Pos: i})
			i = next
		case c >= '0' && c <= '9':
			start := i
			i = lexNumber(src, i)
			emit(Token{Kind: Number, Text: src[start:i], Pos: start})
		case c == '.' && i+1 < n && src[i+1] >= '0' && src[i+1] <= '9':
			start := i
			i = lexNumber(src, i)
			emit(Token{Kind: Number, Text: src[start:i], Pos: start})
		case isIdentStart(rune(c)):
			start := i
			for i < n && isIdentPart(rune(src[i])) {
				i++
			}
			emit(Token{Kind: Ident, Text: src[start:i], Pos: start})
		case c == '"':
			// Delimited identifier: "Name" keeps its exact spelling.
			end := strings.IndexByte(src[i+1:], '"')
			if end < 0 {
				return fmt.Errorf("lex: unterminated delimited identifier at offset %d", i)
			}
			if end == 0 {
				return fmt.Errorf("lex: empty delimited identifier at offset %d", i)
			}
			emit(Token{Kind: Ident, Text: src[i+1 : i+1+end], Pos: i})
			i += end + 2
		default:
			if op, ok := matchMulti(src[i:]); ok {
				emit(Token{Kind: Punct, Text: op, Pos: i})
				i += len(op)
				break
			}
			if strings.IndexByte("(),.;*=<>+-/:%?", c) >= 0 {
				emit(Token{Kind: Punct, Text: string(c), Pos: i})
				i++
				break
			}
			return fmt.Errorf("lex: unexpected character %q at offset %d", c, i)
		}
	}
	emit(Token{Kind: EOF, Pos: n})
	return nil
}

func matchMulti(s string) (string, bool) {
	for _, op := range multi {
		if strings.HasPrefix(s, op) {
			return op, true
		}
	}
	return "", false
}

// lexString scans a single-quoted string with ” escaping, starting at
// the opening quote; it returns the unescaped content and the index past
// the closing quote.
func lexString(src string, i int) (string, int, error) {
	var b strings.Builder
	j := i + 1
	for j < len(src) {
		if src[j] == '\'' {
			if j+1 < len(src) && src[j+1] == '\'' {
				b.WriteByte('\'')
				j += 2
				continue
			}
			return b.String(), j + 1, nil
		}
		b.WriteByte(src[j])
		j++
	}
	return "", 0, fmt.Errorf("lex: unterminated string at offset %d", i)
}

// lexNumber scans an integer or decimal literal starting at i, taking
// care not to consume ".." (the MINE RULE cardinality operator) after an
// integer: "1..n" lexes as Number(1) Punct(..) Ident(n).
func lexNumber(src string, i int) int {
	n := len(src)
	for i < n && src[i] >= '0' && src[i] <= '9' {
		i++
	}
	if i < n && src[i] == '.' {
		if i+1 < n && src[i+1] == '.' {
			return i // stop before ".."
		}
		i++
		for i < n && src[i] >= '0' && src[i] <= '9' {
			i++
		}
	}
	// Exponent part (1e-3).
	if i < n && (src[i] == 'e' || src[i] == 'E') {
		j := i + 1
		if j < n && (src[j] == '+' || src[j] == '-') {
			j++
		}
		if j < n && src[j] >= '0' && src[j] <= '9' {
			for j < n && src[j] >= '0' && src[j] <= '9' {
				j++
			}
			i = j
		}
	}
	return i
}

// Position converts a byte offset in src into a 1-based line and column
// (columns count bytes, which matches the ASCII identifier grammar).
// Offsets outside [0, len(src)] are clamped, so callers can pass a
// position from a statement that has since been reformatted without
// risking a panic — worst case the diagnostic points at the end.
func Position(src string, offset int) (line, col int) {
	if offset < 0 {
		offset = 0
	}
	if offset > len(src) {
		offset = len(src)
	}
	line, col = 1, 1
	for i := 0; i < offset; i++ {
		if src[i] == '\n' {
			line++
			col = 1
		} else {
			col++
		}
	}
	return line, col
}

// Identifiers are ASCII, per SQL92's base character set; scanning is
// byte-wise, so admitting non-ASCII here would misclassify multi-byte
// sequences.
func isIdentStart(r rune) bool {
	return r == '_' || r >= 'a' && r <= 'z' || r >= 'A' && r <= 'Z'
}

func isIdentPart(r rune) bool {
	return isIdentStart(r) || r == '$' || r == '#' || r >= '0' && r <= '9'
}
