// Package schema describes relations: column definitions, table schemas
// and name resolution. The catalog (the engine's data dictionary, paper
// Figure 3's "Data Dictionary") lives in package storage, which binds
// schemas to data.
package schema

import (
	"fmt"
	"strings"
	"unicode/utf8"

	"minerule/internal/sql/value"
)

// Column is a named, typed attribute of a relation.
type Column struct {
	Name string
	Type value.Type
}

// Schema is an ordered list of columns, optionally qualified with the
// relation name (alias) they came from so that "t.a" resolves.
type Schema struct {
	cols []Column
	// quals[i] is the relation qualifier of cols[i] ("" when none).
	quals []string
}

// New builds a schema from columns, all qualified with qual (may be "").
func New(qual string, cols ...Column) *Schema {
	s := &Schema{cols: append([]Column(nil), cols...)}
	s.quals = make([]string, len(s.cols))
	for i := range s.quals {
		s.quals[i] = strings.ToLower(qual)
	}
	return s
}

// Len returns the number of columns.
func (s *Schema) Len() int { return len(s.cols) }

// Col returns the i-th column.
func (s *Schema) Col(i int) Column { return s.cols[i] }

// Qual returns the i-th column's relation qualifier (lower-cased).
func (s *Schema) Qual(i int) string { return s.quals[i] }

// Columns returns a copy of the column list.
func (s *Schema) Columns() []Column { return append([]Column(nil), s.cols...) }

// WithQualifier returns a copy of the schema with every column
// re-qualified as qual (used when a table gets an alias in FROM).
func (s *Schema) WithQualifier(qual string) *Schema {
	n := &Schema{cols: append([]Column(nil), s.cols...), quals: make([]string, len(s.cols))}
	q := strings.ToLower(qual)
	for i := range n.quals {
		n.quals[i] = q
	}
	return n
}

// Append returns a new schema that is the concatenation s ++ o
// (used for join outputs; qualifiers are preserved).
func (s *Schema) Append(o *Schema) *Schema {
	n := &Schema{
		cols:  append(append([]Column(nil), s.cols...), o.cols...),
		quals: append(append([]string(nil), s.quals...), o.quals...),
	}
	return n
}

// AddColumn returns a new schema with one more column appended.
func (s *Schema) AddColumn(qual string, c Column) *Schema {
	n := &Schema{
		cols:  append(append([]Column(nil), s.cols...), c),
		quals: append(append([]string(nil), s.quals...), strings.ToLower(qual)),
	}
	return n
}

// Lookup results that are not column ordinals.
const (
	NotFound  = -1 // no column matches the reference
	Ambiguous = -2 // more than one column matches the reference
)

// Lookup finds the column referenced by (qual, name) like Resolve, but
// reports a failed lookup as NotFound or Ambiguous instead of an error,
// so probing callers — correlated-scope fallback, join-key detection —
// allocate nothing on a miss.
func (s *Schema) Lookup(qual, name string) int {
	found := NotFound
	for i := range s.cols {
		if !FoldEqual(s.cols[i].Name, name) {
			continue
		}
		// quals are stored lower-cased; ToLower is idempotent, so
		// folding them again changes nothing.
		if qual != "" && !FoldEqual(s.quals[i], qual) {
			continue
		}
		if found >= 0 {
			return Ambiguous
		}
		found = i
	}
	return found
}

// Resolve finds the column referenced by (qual, name); qual may be empty
// for an unqualified reference. It returns the ordinal, or a
// *ResolveError when the reference is unknown or ambiguous. Matching is
// case-insensitive, following SQL identifier rules.
func (s *Schema) Resolve(qual, name string) (int, error) {
	i := s.Lookup(qual, name)
	if i < 0 {
		return 0, &ResolveError{Qual: qual, Name: name, Ambiguous: i == Ambiguous}
	}
	return i, nil
}

// Has reports whether (qual, name) resolves to exactly one column.
func (s *Schema) Has(qual, name string) bool { return s.Lookup(qual, name) >= 0 }

// ResolveError is Resolve's failure: the reference as written and
// whether it matched no column or several. Its text is built only when
// Error is called.
type ResolveError struct {
	Qual, Name string
	Ambiguous  bool
}

func (e *ResolveError) Error() string {
	if e.Ambiguous {
		return fmt.Sprintf("schema: ambiguous column reference %q", ref(e.Qual, e.Name))
	}
	return fmt.Sprintf("schema: unknown column %q", ref(e.Qual, e.Name))
}

// FoldEqual reports whether strings.ToLower(a) == strings.ToLower(b) —
// the identifier rule the catalog's keys and the lock table use — without
// allocating when the strings are ASCII. It is deliberately not
// strings.EqualFold, which folds some delimited identifiers ("İ") that
// ToLower keeps distinct.
func FoldEqual(a, b string) bool {
	n := min(len(a), len(b))
	for i := 0; i < n; i++ {
		ca, cb := a[i], b[i]
		if ca|cb >= utf8.RuneSelf {
			// ToLower maps rune by rune, and the prefixes are ASCII, so
			// only the tails can still differ.
			return strings.ToLower(a[i:]) == strings.ToLower(b[i:])
		}
		if ca != cb && lowerASCII(ca) != lowerASCII(cb) {
			return false
		}
	}
	// An ASCII prefix of the other string: ToLower never maps a
	// non-empty tail to nothing, so equal folds need equal lengths.
	return len(a) == len(b)
}

func lowerASCII(c byte) byte {
	if 'A' <= c && c <= 'Z' {
		return c + ('a' - 'A')
	}
	return c
}

// Equal reports whether two schemas have the same columns — names,
// types and qualifiers, in order. It compares content, so a table
// dropped and re-created with the same definition has an Equal schema.
func Equal(a, b *Schema) bool {
	if a == b {
		return true
	}
	if a == nil || b == nil || len(a.cols) != len(b.cols) {
		return false
	}
	for i := range a.cols {
		if a.cols[i] != b.cols[i] || a.quals[i] != b.quals[i] {
			return false
		}
	}
	return true
}

func ref(qual, name string) string {
	if qual == "" {
		return name
	}
	return qual + "." + name
}

// String renders the schema as "(a INTEGER, b VARCHAR)" for diagnostics.
func (s *Schema) String() string {
	var b strings.Builder
	b.WriteByte('(')
	for i, c := range s.cols {
		if i > 0 {
			b.WriteString(", ")
		}
		if s.quals[i] != "" {
			b.WriteString(s.quals[i])
			b.WriteByte('.')
		}
		b.WriteString(c.Name)
		b.WriteByte(' ')
		b.WriteString(c.Type.String())
	}
	b.WriteByte(')')
	return b.String()
}

// Row is a tuple positionally matching a Schema.
type Row []value.Value

// Clone returns a copy of the row.
func (r Row) Clone() Row { return append(Row(nil), r...) }

// Key returns a composite map key for the row (see value.Value.Key).
// Every component is length-framed so adjacent values cannot collide.
func (r Row) Key() string {
	return string(r.AppendKey(make([]byte, 0, 16*len(r))))
}

// AppendKey appends the row's composite key to dst and returns the
// extended slice — the buffer-reusing form behind every hash join,
// DISTINCT, GROUP BY and set operation, so no key strings are rebuilt
// per row on those paths.
func (r Row) AppendKey(dst []byte) []byte {
	for _, v := range r {
		dst = AppendValueKey(dst, v)
	}
	return dst
}

// AppendValueKey appends one length-framed component of a composite row
// key (the framing Row.AppendKey uses): a fixed-width little-endian
// length header followed by the value's key bytes. Executor code that
// keys on a column subset builds its keys with this to stay consistent
// with whole-row keys.
func AppendValueKey(dst []byte, v value.Value) []byte {
	mark := len(dst)
	dst = append(dst, 0, 0, 0, 0)
	dst = v.AppendKey(dst)
	n := len(dst) - mark - 4
	dst[mark] = byte(n)
	dst[mark+1] = byte(n >> 8)
	dst[mark+2] = byte(n >> 16)
	dst[mark+3] = byte(n >> 24)
	return dst
}

// Project returns the sub-row at the given ordinals.
func (r Row) Project(idx []int) Row {
	out := make(Row, len(idx))
	for i, j := range idx {
		out[i] = r[j]
	}
	return out
}
