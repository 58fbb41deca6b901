package value

import (
	"encoding/hex"
	"math"
	"testing"
	"time"
	"unsafe"
)

// TestKeyAndBinaryGolden pins the bytes of AppendKey (hash keys and
// index keys) and AppendBinary (WAL records and heap pages) for one
// value of each type and the edge cases: a change to Value's layout must
// not move either format.
func TestKeyAndBinaryGolden(t *testing.T) {
	for _, c := range []struct {
		name     string
		v        Value
		key, bin string
	}{
		{"NULL", Null, "6e", "00"},
		{"TRUE", NewBool(true), "6274", "02"},
		{"FALSE", NewBool(false), "6266", "01"},
		{"int 42", NewInt(42), "664045000000000000", "0354"},
		{"int -300", NewInt(-300), "66c072c00000000000", "03d704"},
		{"float 1.5", NewFloat(1.5), "663ff8000000000000", "04000000000000f83f"},
		{"float -0.0", NewFloat(math.Copysign(0, -1)), "660000000000000000", "040000000000000080"},
		{"float NaN", NewFloat(math.NaN()), "667ff8000000000001", "04010000000000f87f"},
		{"empty string", NewString(""), "73", "0500"},
		{"string ab", NewString("ab"), "736162", "05026162"},
		{"DATE 1995-12-17", NewDate(1995, time.December, 17), "6439343831", "06929401"},
	} {
		if got := hex.EncodeToString(c.v.AppendKey(nil)); got != c.key {
			t.Errorf("%s: AppendKey = %s, want %s", c.name, got, c.key)
		}
		bin := c.v.AppendBinary(nil)
		if got := hex.EncodeToString(bin); got != c.bin {
			t.Errorf("%s: AppendBinary = %s, want %s", c.name, got, c.bin)
		}
		back, rest, err := DecodeBinary(bin)
		if err != nil || len(rest) != 0 {
			t.Fatalf("%s: DecodeBinary: %v (%d bytes left)", c.name, err, len(rest))
		}
		if again := hex.EncodeToString(back.AppendBinary(nil)); again != c.bin {
			t.Errorf("%s: round trip encodes as %s, want %s", c.name, again, c.bin)
		}
	}
}

// TestValueSize holds Value at 32 bytes: rows are slices of Values, so
// its size sets the bytes every row copy moves.
func TestValueSize(t *testing.T) {
	if n := unsafe.Sizeof(Value{}); n != 32 {
		t.Errorf("unsafe.Sizeof(Value{}) = %d, want 32", n)
	}
}
