package value

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Binary codec: a reversible, typed serialization of Value for the
// durable storage layer (WAL records and heap-file cells). Unlike
// AppendKey — which canonicalizes for map-key equality and is lossy
// (INTEGER and FLOAT deliberately collide) — this codec round-trips
// every value exactly, including large int64s and NaN payload-free
// floats.
//
// Wire form: one tag byte followed by a tag-specific payload. Integers
// and dates use zig-zag varints; floats use 8-byte little-endian IEEE
// bits; strings are uvarint-length-framed, the same framing discipline
// as the composite key codec in package schema.
const (
	binNull  = 0x00
	binFalse = 0x01
	binTrue  = 0x02
	binInt   = 0x03
	binFloat = 0x04
	binStr   = 0x05
	binDate  = 0x06
)

// AppendBinary appends the value's binary encoding to dst and returns
// the extended slice.
func (v Value) AppendBinary(dst []byte) []byte {
	switch v.typ {
	case TypeNull:
		return append(dst, binNull)
	case TypeBool:
		if v.i != 0 {
			return append(dst, binTrue)
		}
		return append(dst, binFalse)
	case TypeInt:
		return binary.AppendVarint(append(dst, binInt), v.i)
	case TypeFloat:
		return binary.LittleEndian.AppendUint64(append(dst, binFloat), uint64(v.i))
	case TypeString:
		dst = binary.AppendUvarint(append(dst, binStr), uint64(len(v.s)))
		return append(dst, v.s...)
	case TypeDate:
		return binary.AppendVarint(append(dst, binDate), v.i)
	default:
		// Unreachable for values built through the constructors; encode
		// as NULL so a corrupt in-memory value cannot poison the log.
		return append(dst, binNull)
	}
}

// DecodeBinary decodes one value from the front of b, returning the
// value and the remaining bytes. It is the inverse of AppendBinary and
// fails (never panics) on truncated or unknown input.
func DecodeBinary(b []byte) (Value, []byte, error) {
	if len(b) == 0 {
		return Null, nil, fmt.Errorf("value: decode: empty input")
	}
	tag, rest := b[0], b[1:]
	switch tag {
	case binNull:
		return Null, rest, nil
	case binFalse:
		return NewBool(false), rest, nil
	case binTrue:
		return NewBool(true), rest, nil
	case binInt:
		i, n := binary.Varint(rest)
		if n <= 0 {
			return Null, nil, fmt.Errorf("value: decode: bad int varint")
		}
		return NewInt(i), rest[n:], nil
	case binFloat:
		if len(rest) < 8 {
			return Null, nil, fmt.Errorf("value: decode: short float")
		}
		return NewFloat(math.Float64frombits(binary.LittleEndian.Uint64(rest))), rest[8:], nil
	case binStr:
		l, n := binary.Uvarint(rest)
		if n <= 0 || uint64(len(rest)-n) < l {
			return Null, nil, fmt.Errorf("value: decode: bad string frame")
		}
		return NewString(string(rest[n : n+int(l)])), rest[n+int(l):], nil
	case binDate:
		i, n := binary.Varint(rest)
		if n <= 0 {
			return Null, nil, fmt.Errorf("value: decode: bad date varint")
		}
		return NewDateFromDays(i), rest[n:], nil
	default:
		return Null, nil, fmt.Errorf("value: decode: unknown tag 0x%02x", tag)
	}
}
