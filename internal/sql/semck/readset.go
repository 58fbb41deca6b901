package semck

import (
	"slices"

	"minerule/internal/sql/parse"
	"minerule/internal/sql/schema"
)

// The checker sees the dictionary only through the five Catalog
// methods, and nothing else it reads varies: its verdict is a function
// of the statement, its source text and the answers to those lookups.
// The lookups happen in an order fixed by earlier answers, so a
// dictionary that gives the same answers to the same questions replays
// the same path to the same verdict. A ReadSet records those questions
// and answers, which lets a cached verdict outlive DDL that did not
// touch what the statement reads — the kernel's working tables are
// dropped and re-created with the same shapes on every run.

// ReadSet is the ordered list of dictionary lookups one check made,
// with the answers it got. It is immutable once returned.
type ReadSet struct {
	reads []read
}

type lookup uint8

const (
	lookupTable lookup = iota
	lookupView
	lookupSequence
	lookupIndex
	lookupTableIndexes
)

// read is one lookup and its answer; which answer fields are set
// depends on op.
type read struct {
	op     lookup
	name   string
	ok     bool
	schema *schema.Schema // lookupTable
	text   string         // lookupView
	list   []string       // lookupTableIndexes
}

// CheckRecorded is Check that also returns the lookups it made, so the
// verdict can later be revalidated with ReadSet.Holds instead of being
// recomputed.
func CheckRecorded(cat Catalog, st parse.Statement, src string) (*ReadSet, error) {
	r := &recorder{cat: cat}
	err := Check(r, st, src)
	return &ReadSet{reads: r.reads}, err
}

// Holds reports whether cat answers every recorded lookup the way the
// recorded dictionary did: table schemas equal by content (schema.Equal),
// view texts equal as strings, sequences and indexes by presence, and
// table-index lists element by element. When it does, Check against cat
// returns the recorded verdict.
func (rs *ReadSet) Holds(cat Catalog) bool {
	for i := range rs.reads {
		r := &rs.reads[i]
		switch r.op {
		case lookupTable:
			s, ok := cat.TableSchema(r.name)
			if ok != r.ok || ok && !schema.Equal(s, r.schema) {
				return false
			}
		case lookupView:
			text, ok := cat.ViewText(r.name)
			if ok != r.ok || text != r.text {
				return false
			}
		case lookupSequence:
			if cat.HasSequence(r.name) != r.ok {
				return false
			}
		case lookupIndex:
			if cat.HasIndex(r.name) != r.ok {
				return false
			}
		case lookupTableIndexes:
			if !slices.Equal(cat.TableIndexes(r.name), r.list) {
				return false
			}
		}
	}
	return true
}

// recorder is a Catalog that forwards to cat and logs each lookup.
type recorder struct {
	cat   Catalog
	reads []read
}

func (r *recorder) TableSchema(name string) (*schema.Schema, bool) {
	s, ok := r.cat.TableSchema(name)
	r.reads = append(r.reads, read{op: lookupTable, name: name, ok: ok, schema: s})
	return s, ok
}

func (r *recorder) ViewText(name string) (string, bool) {
	text, ok := r.cat.ViewText(name)
	r.reads = append(r.reads, read{op: lookupView, name: name, ok: ok, text: text})
	return text, ok
}

func (r *recorder) HasSequence(name string) bool {
	ok := r.cat.HasSequence(name)
	r.reads = append(r.reads, read{op: lookupSequence, name: name, ok: ok})
	return ok
}

func (r *recorder) HasIndex(name string) bool {
	ok := r.cat.HasIndex(name)
	r.reads = append(r.reads, read{op: lookupIndex, name: name, ok: ok})
	return ok
}

func (r *recorder) TableIndexes(table string) []string {
	list := r.cat.TableIndexes(table)
	r.reads = append(r.reads, read{op: lookupTableIndexes, name: table, list: list})
	return list
}
