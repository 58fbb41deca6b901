package exec

import (
	"bytes"
	"context"
	"math"
	"math/rand"
	"testing"

	"minerule/internal/sql/schema"
	"minerule/internal/sql/value"
)

// keyTableOracle replays ops on a keyTable and on a map[string]int32
// that assigns ids in first-seen order, failing on any disagreement.
type keyTableOracle struct {
	t     testing.TB
	kt    keyTable
	ref   map[string]int32
	order []string
}

func newKeyTableOracle(t testing.TB) *keyTableOracle {
	return &keyTableOracle{t: t, ref: make(map[string]int32)}
}

func (o *keyTableOracle) insert(key []byte) {
	o.t.Helper()
	want, ok := o.ref[string(key)]
	if !ok {
		want = int32(len(o.order))
		o.ref[string(key)] = want
		o.order = append(o.order, string(key))
	}
	id, added, err := o.kt.insert(key)
	if err != nil {
		o.t.Fatalf("insert %q: %v", key, err)
	}
	if id != want || added == ok {
		o.t.Fatalf("insert %q = (%d, added %v), want (%d, added %v)", key, id, added, want, !ok)
	}
}

func (o *keyTableOracle) find(key []byte) {
	o.t.Helper()
	want, ok := o.ref[string(key)]
	if !ok {
		want = -1
	}
	if got := o.kt.find(key); got != want {
		o.t.Fatalf("find %q = %d, want %d", key, got, want)
	}
}

// check compares every id's bytes with the reference.
func (o *keyTableOracle) check() {
	o.t.Helper()
	if n := len(o.kt.hashes); n != len(o.order) {
		o.t.Fatalf("table holds %d keys, reference %d", n, len(o.order))
	}
	for id, k := range o.order {
		if got := o.kt.key(int32(id)); !bytes.Equal(got, []byte(k)) {
			o.t.Fatalf("key(%d) = %q, want %q", id, got, k)
		}
	}
}

// TestKeyTableMatchesMap: random keys over a small alphabet (so many
// repeat), the empty key, keys that are prefixes of one another, and
// enough keys to force many rehashes, against a map reference.
func TestKeyTableMatchesMap(t *testing.T) {
	o := newKeyTableOracle(t)
	o.find(nil) // an empty table finds nothing
	o.find([]byte{})
	prefix := []byte("abcdefghij")
	for i := 0; i <= len(prefix); i++ {
		o.insert(prefix[:i]) // i == 0 is the empty key
	}
	for i := len(prefix); i >= 0; i-- {
		o.find(prefix[:i])
		o.insert(prefix[:i])
	}
	o.find([]byte("abcdefghijk"))
	rng := rand.New(rand.NewSource(1))
	key := make([]byte, 0, 16)
	for i := 0; i < 50000; i++ {
		key = key[:0]
		for n := rng.Intn(5); n > 0; n-- {
			key = append(key, "ab\x00\xff"[rng.Intn(4)])
		}
		if rng.Intn(3) == 0 {
			key = append(key, byte(i), byte(i>>8), byte(i>>16))
		}
		if rng.Intn(4) == 0 {
			o.find(key)
		} else {
			o.insert(key)
		}
	}
	if len(o.kt.slots) < 4*1024 {
		t.Fatalf("only %d slots: the run forced too few rehashes", len(o.kt.slots))
	}
	o.check()
}

// TestKeyTableValueKeys: the table keys on today's AppendValueKey bytes,
// so SQL-equal values (1 and 1.0, -0.0 and 0.0, NaN and NaN, NULL and
// NULL) share an id and distinct ones do not.
func TestKeyTableValueKeys(t *testing.T) {
	var kt keyTable
	id := func(vs ...value.Value) int32 {
		t.Helper()
		var k []byte
		for _, v := range vs {
			k = schema.AppendValueKey(k, v)
		}
		got, _, err := kt.insert(k)
		if err != nil {
			t.Fatal(err)
		}
		return got
	}
	for _, c := range []struct {
		name string
		a, b []value.Value
		same bool
	}{
		{"int and float", []value.Value{value.NewInt(1)}, []value.Value{value.NewFloat(1)}, true},
		{"signed zeros", []value.Value{value.NewFloat(math.Copysign(0, -1))}, []value.Value{value.NewFloat(0)}, true},
		{"NULLs", []value.Value{value.Null}, []value.Value{value.Null}, true},
		{"NULL and empty string", []value.Value{value.Null}, []value.Value{value.NewString("")}, false},
		{"framing", []value.Value{value.NewString("ab"), value.NewString("")},
			[]value.Value{value.NewString("a"), value.NewString("b")}, false},
		{"NaNs", []value.Value{value.NewFloat(math.NaN())}, []value.Value{value.NewFloat(-math.NaN())}, true},
		{"NaN and zero", []value.Value{value.NewFloat(math.NaN())}, []value.Value{value.NewFloat(0)}, false},
	} {
		if got := id(c.a...) == id(c.b...); got != c.same {
			t.Errorf("%s: same id = %v, want %v", c.name, got, c.same)
		}
	}
}

// TestJoinTableBucketsInBuildOrder: each key's build rows come back in
// ascending build position, and NULL keys join nothing.
func TestJoinTableBucketsInBuildOrder(t *testing.T) {
	rows := []schema.Row{
		{value.NewInt(2)}, {value.NewInt(1)}, {value.Null}, {value.NewInt(2)},
		{value.NewFloat(1)}, {value.NewInt(3)}, {value.NewInt(2)},
	}
	rt := &Runtime{ctx: context.Background()}
	jt, err := rt.buildJoinTable(rows, []int{0})
	if err != nil {
		t.Fatal(err)
	}
	bucket := func(v value.Value) []int32 {
		return jt.bucket(schema.AppendValueKey(nil, v))
	}
	for _, c := range []struct {
		v    value.Value
		want []int32
	}{
		{value.NewInt(2), []int32{0, 3, 6}},
		{value.NewInt(1), []int32{1, 4}},
		{value.NewInt(3), []int32{5}},
		{value.NewInt(4), nil},
		{value.Null, nil},
	} {
		got := bucket(c.v)
		if len(got) != len(c.want) {
			t.Errorf("bucket(%v) = %v, want %v", c.v, got, c.want)
			continue
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Errorf("bucket(%v) = %v, want %v", c.v, got, c.want)
				break
			}
		}
	}
}

// FuzzKeyTable splits the input into keys at each 0x00 byte (so empty
// keys and shared prefixes are common) and checks the table against the
// map reference after every insert and find.
func FuzzKeyTable(f *testing.F) {
	f.Add([]byte("a\x00ab\x00a\x00\x00abc"))
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte("x\x00xy\x00"), 40))
	f.Fuzz(func(t *testing.T, data []byte) {
		o := newKeyTableOracle(t)
		for i, k := range bytes.Split(data, []byte{0}) {
			if i%3 == 2 {
				o.find(k)
			} else {
				o.insert(k)
			}
		}
		o.check()
	})
}
