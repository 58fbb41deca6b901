package schema

import (
	"strings"
	"testing"
	"testing/quick"

	"minerule/internal/sql/value"
)

func twoCol() *Schema {
	return New("t",
		Column{Name: "a", Type: value.TypeInt},
		Column{Name: "b", Type: value.TypeString})
}

func TestResolve(t *testing.T) {
	s := twoCol()
	for _, ref := range []struct {
		qual, name string
		want       int
	}{
		{"", "a", 0}, {"", "B", 1}, {"t", "a", 0}, {"T", "b", 1},
	} {
		got, err := s.Resolve(ref.qual, ref.name)
		if err != nil || got != ref.want {
			t.Errorf("Resolve(%q, %q) = %d, %v", ref.qual, ref.name, got, err)
		}
	}
	if _, err := s.Resolve("", "c"); err == nil {
		t.Error("unknown column resolved")
	}
	if _, err := s.Resolve("u", "a"); err == nil {
		t.Error("wrong qualifier resolved")
	}
}

func TestAmbiguity(t *testing.T) {
	j := twoCol().Append(New("u", Column{Name: "a", Type: value.TypeInt}))
	if _, err := j.Resolve("", "a"); err == nil {
		t.Error("ambiguous reference resolved")
	}
	if i, err := j.Resolve("u", "a"); err != nil || i != 2 {
		t.Errorf("u.a = %d, %v", i, err)
	}
	if i, err := j.Resolve("t", "a"); err != nil || i != 0 {
		t.Errorf("t.a = %d, %v", i, err)
	}
	if !j.Has("u", "a") || j.Has("", "a") {
		t.Error("Has disagrees with Resolve")
	}
}

func TestWithQualifierAndAppend(t *testing.T) {
	s := twoCol().WithQualifier("x")
	if _, err := s.Resolve("t", "a"); err == nil {
		t.Error("old qualifier survived")
	}
	if i, err := s.Resolve("x", "a"); err != nil || i != 0 {
		t.Errorf("x.a = %d, %v", i, err)
	}
	// WithQualifier must not mutate the receiver.
	orig := twoCol()
	_ = orig.WithQualifier("y")
	if _, err := orig.Resolve("t", "a"); err != nil {
		t.Error("WithQualifier mutated receiver")
	}
	// Append concatenates and preserves both sides.
	j := orig.Append(New("u", Column{Name: "c", Type: value.TypeDate}))
	if j.Len() != 3 {
		t.Fatalf("len = %d", j.Len())
	}
	if j.Col(2).Name != "c" || j.Qual(2) != "u" {
		t.Errorf("col 2 = %v %q", j.Col(2), j.Qual(2))
	}
}

func TestAddColumn(t *testing.T) {
	s := twoCol().AddColumn("t", Column{Name: "c", Type: value.TypeFloat})
	if s.Len() != 3 || s.Col(2).Name != "c" {
		t.Fatalf("AddColumn result %s", s)
	}
}

func TestSchemaString(t *testing.T) {
	got := twoCol().String()
	want := "(t.a INTEGER, t.b VARCHAR)"
	if got != want {
		t.Errorf("String = %s, want %s", got, want)
	}
}

func TestRowKeyInjectiveOnLengths(t *testing.T) {
	// Composite keys must not collide across different splits of the
	// same concatenated content: ("ab","c") vs ("a","bc").
	r1 := Row{value.NewString("ab"), value.NewString("c")}
	r2 := Row{value.NewString("a"), value.NewString("bc")}
	if r1.Key() == r2.Key() {
		t.Error("row keys collide across splits")
	}
	// And equal rows collide.
	r3 := Row{value.NewString("ab"), value.NewString("c")}
	if r1.Key() != r3.Key() {
		t.Error("equal rows have different keys")
	}
}

func TestRowKeyProperty(t *testing.T) {
	f := func(a, b int64, s string) bool {
		r1 := Row{value.NewInt(a), value.NewString(s)}
		r2 := Row{value.NewInt(b), value.NewString(s)}
		same := r1.Key() == r2.Key()
		return same == (a == b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRowCloneAndProject(t *testing.T) {
	r := Row{value.NewInt(1), value.NewInt(2), value.NewInt(3)}
	c := r.Clone()
	c[0] = value.NewInt(9)
	if r[0].Int() != 1 {
		t.Error("Clone aliases the original")
	}
	p := r.Project([]int{2, 0})
	if len(p) != 2 || p[0].Int() != 3 || p[1].Int() != 1 {
		t.Errorf("Project = %v", p)
	}
}

// FuzzSchemaFold: the comparison Resolve uses is exactly equality under
// strings.ToLower — the catalog's key rule — on arbitrary bytes,
// including invalid UTF-8 and runes that strings.EqualFold would fold.
func FuzzSchemaFold(f *testing.F) {
	for _, s := range [][2]string{
		{"a", "A"}, {"mr_gid", "MR_GID"}, {"abc", "abd"}, {"ab", "abc"},
		{"İ", "i"}, {"İ", "i̇"}, {"K", "k"}, {"ß", "SS"}, {"\xff", "\xfe"},
		{"x\xffy", "X\xffY"}, {"ΣΑΣ", "σας"}, {"", ""},
	} {
		f.Add(s[0], s[1])
	}
	f.Fuzz(func(t *testing.T, a, b string) {
		want := strings.ToLower(a) == strings.ToLower(b)
		if got := FoldEqual(a, b); got != want {
			t.Fatalf("FoldEqual(%q, %q) = %v, want %v", a, b, got, want)
		}
		// Lookup compares stored, already lower-cased qualifiers.
		if got := FoldEqual(strings.ToLower(a), b); got != want {
			t.Fatalf("FoldEqual(ToLower(%q), %q) = %v, want %v", a, b, got, want)
		}
		s := New(a, Column{Name: a, Type: value.TypeInt})
		if got := s.Lookup(b, b) == 0; got != want {
			t.Fatalf("Lookup(%q, %q) on column %q found=%v, want %v", b, b, a, got, want)
		}
	})
}

// TestResolveErrorText pins the two resolution diagnostics byte for
// byte: semck rewraps them and FuzzSemCheck matches on them.
func TestResolveErrorText(t *testing.T) {
	j := twoCol().Append(New("u", Column{Name: "a", Type: value.TypeInt}))
	for _, c := range []struct {
		qual, name, want string
		code             int
	}{
		{"", "zz", `schema: unknown column "zz"`, NotFound},
		{"t", "Zz", `schema: unknown column "t.Zz"`, NotFound},
		{"", "A", `schema: ambiguous column reference "A"`, Ambiguous},
	} {
		if got := j.Lookup(c.qual, c.name); got != c.code {
			t.Errorf("Lookup(%q, %q) = %d, want %d", c.qual, c.name, got, c.code)
		}
		_, err := j.Resolve(c.qual, c.name)
		if err == nil || err.Error() != c.want {
			t.Errorf("Resolve(%q, %q) error = %v, want %s", c.qual, c.name, err, c.want)
		}
	}
}

func TestLookupAllocationFree(t *testing.T) {
	s := twoCol().Append(New("u", Column{Name: "a", Type: value.TypeInt}))
	allocs := testing.AllocsPerRun(100, func() {
		s.Lookup("T", "A")
		s.Lookup("", "a")
		s.Lookup("", "missing")
		s.Has("U", "a")
	})
	if allocs != 0 {
		t.Fatalf("Lookup allocates %.1f times per probe set", allocs)
	}
}

func TestEqual(t *testing.T) {
	if !Equal(twoCol(), twoCol()) {
		t.Error("identical schemas differ")
	}
	for _, o := range []*Schema{
		twoCol().WithQualifier("u"),
		New("t", Column{Name: "a", Type: value.TypeInt}, Column{Name: "c", Type: value.TypeString}),
		New("t", Column{Name: "a", Type: value.TypeInt}, Column{Name: "b", Type: value.TypeInt}),
		New("t", Column{Name: "A", Type: value.TypeInt}, Column{Name: "b", Type: value.TypeString}),
		New("t", Column{Name: "a", Type: value.TypeInt}),
		nil,
	} {
		if Equal(twoCol(), o) {
			t.Errorf("Equal(%v, %v) = true", twoCol(), o)
		}
	}
}
