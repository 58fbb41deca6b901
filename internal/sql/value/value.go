// Package value defines the typed scalar values manipulated by the SQL
// engine: NULL, BOOL, INT, FLOAT, STRING and DATE, together with the
// comparison and arithmetic semantics of SQL92 (three-valued logic,
// numeric type promotion, date ordering).
//
// Values are small immutable structs passed by value. The zero Value is
// NULL, so freshly allocated rows are all-NULL without initialization.
package value

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"
)

// Type enumerates the scalar types supported by the engine.
type Type int

// Supported scalar types. TypeNull is the type of the SQL NULL literal
// before it is coerced by context.
const (
	TypeNull Type = iota
	TypeBool
	TypeInt
	TypeFloat
	TypeString
	TypeDate
)

// String returns the SQL spelling of the type.
func (t Type) String() string {
	switch t {
	case TypeNull:
		return "NULL"
	case TypeBool:
		return "BOOLEAN"
	case TypeInt:
		return "INTEGER"
	case TypeFloat:
		return "FLOAT"
	case TypeString:
		return "VARCHAR"
	case TypeDate:
		return "DATE"
	default:
		return fmt.Sprintf("Type(%d)", int(t))
	}
}

// Numeric reports whether the type participates in numeric promotion.
func (t Type) Numeric() bool { return t == TypeInt || t == TypeFloat }

// Value is a single SQL scalar. The zero Value is NULL.
//
// A FLOAT keeps its IEEE-754 bits in i, so a Value is 32 bytes rather
// than 40: rows, batches and join outputs are slices of Values, and
// every copy of one moves a fifth less memory. Only this file and
// codec.go read the fields.
type Value struct {
	s   string // TypeString
	i   int64  // TypeInt, TypeBool (0/1), TypeDate (days since epoch), TypeFloat (bits)
	typ Type
}

// Null is the SQL NULL value.
var Null = Value{}

// NewBool returns a BOOLEAN value.
func NewBool(b bool) Value {
	var i int64
	if b {
		i = 1
	}
	return Value{typ: TypeBool, i: i}
}

// NewInt returns an INTEGER value.
func NewInt(i int64) Value { return Value{typ: TypeInt, i: i} }

// NewFloat returns a FLOAT value.
func NewFloat(f float64) Value { return Value{typ: TypeFloat, i: int64(math.Float64bits(f))} }

// NewString returns a VARCHAR value.
func NewString(s string) Value { return Value{typ: TypeString, s: s} }

// NewDate returns a DATE value for the given civil date.
func NewDate(year int, month time.Month, day int) Value {
	t := time.Date(year, month, day, 0, 0, 0, 0, time.UTC)
	return Value{typ: TypeDate, i: t.Unix() / 86400}
}

// NewDateFromDays returns a DATE value from a count of days since the
// Unix epoch. It is the inverse of Value.Days.
func NewDateFromDays(days int64) Value { return Value{typ: TypeDate, i: days} }

// f returns a FLOAT's content; callers check the type first.
func (v Value) f() float64 { return math.Float64frombits(uint64(v.i)) }

// Type returns the value's type. NULL values report TypeNull.
func (v Value) Type() Type { return v.typ }

// IsNull reports whether the value is SQL NULL.
func (v Value) IsNull() bool { return v.typ == TypeNull }

// TypeError reports an accessor called on a value of the wrong type.
// Accessors panic with a *TypeError; executor entry points recover it
// into an ordinary typed error, so a mistyped expression surfaces as an
// error instead of crashing the process.
type TypeError struct {
	// Op is the accessor name ("Bool", "Int", "Float", "Str", "Days").
	Op string
	// Type is the value's actual type.
	Type Type
}

func (e *TypeError) Error() string { return fmt.Sprintf("value: %s() on %s", e.Op, e.Type) }

// Bool returns the boolean content. It panics with a *TypeError unless
// the value is a non-null BOOLEAN.
func (v Value) Bool() bool {
	if v.typ != TypeBool {
		panic(&TypeError{Op: "Bool", Type: v.typ})
	}
	return v.i != 0
}

// Int returns the integer content. It panics with a *TypeError unless
// the value is a non-null INTEGER.
func (v Value) Int() int64 {
	if v.typ != TypeInt {
		panic(&TypeError{Op: "Int", Type: v.typ})
	}
	return v.i
}

// Float returns the numeric content widened to float64. It accepts both
// INTEGER and FLOAT values and panics with a *TypeError otherwise.
func (v Value) Float() float64 {
	switch v.typ {
	case TypeFloat:
		return v.f()
	case TypeInt:
		return float64(v.i)
	default:
		panic(&TypeError{Op: "Float", Type: v.typ})
	}
}

// Str returns the string content. It panics with a *TypeError unless
// the value is a non-null VARCHAR.
func (v Value) Str() string {
	if v.typ != TypeString {
		panic(&TypeError{Op: "Str", Type: v.typ})
	}
	return v.s
}

// Days returns the DATE content as days since the Unix epoch. It panics
// with a *TypeError unless the value is a non-null DATE.
func (v Value) Days() int64 {
	if v.typ != TypeDate {
		panic(&TypeError{Op: "Days", Type: v.typ})
	}
	return v.i
}

// Time returns the DATE content as a time.Time at UTC midnight.
func (v Value) Time() time.Time {
	return time.Unix(v.Days()*86400, 0).UTC()
}

// String renders the value for display: NULL as "NULL", strings verbatim,
// dates as YYYY-MM-DD, floats with minimal digits.
func (v Value) String() string {
	switch v.typ {
	case TypeNull:
		return "NULL"
	case TypeBool:
		if v.i != 0 {
			return "TRUE"
		}
		return "FALSE"
	case TypeInt:
		return strconv.FormatInt(v.i, 10)
	case TypeFloat:
		return strconv.FormatFloat(v.f(), 'g', -1, 64)
	case TypeString:
		return v.s
	case TypeDate:
		return v.Time().Format("2006-01-02")
	default:
		return fmt.Sprintf("Value(%d)", int(v.typ))
	}
}

// SQL renders the value as a SQL literal that the engine's parser accepts
// (strings quoted and escaped, dates as DATE 'YYYY-MM-DD'). Floats keep a
// float spelling so the literal round-trips to the same type (0.0, not 0).
func (v Value) SQL() string {
	switch v.typ {
	case TypeString:
		return "'" + strings.ReplaceAll(v.s, "'", "''") + "'"
	case TypeDate:
		return "DATE '" + v.Time().Format("2006-01-02") + "'"
	case TypeFloat:
		s := strconv.FormatFloat(v.f(), 'g', -1, 64)
		if !strings.ContainsAny(s, ".eE") {
			s += ".0"
		}
		return s
	default:
		return v.String()
	}
}

// ParseDate parses a DATE literal in either ISO form (YYYY-MM-DD) or the
// paper's US form (M/D/YY or MM/DD/YYYY). Two-digit years are interpreted
// in 1970–2069, matching the paper's 1995 examples.
func ParseDate(s string) (Value, error) {
	if t, err := time.Parse("2006-01-02", s); err == nil {
		return NewDate(t.Year(), t.Month(), t.Day()), nil
	}
	parts := strings.Split(s, "/")
	if len(parts) == 3 {
		m, err1 := strconv.Atoi(parts[0])
		d, err2 := strconv.Atoi(parts[1])
		y, err3 := strconv.Atoi(parts[2])
		if err1 == nil && err2 == nil && err3 == nil {
			if y < 70 {
				y += 2000
			} else if y < 100 {
				y += 1900
			}
			if m >= 1 && m <= 12 && d >= 1 && d <= 31 {
				return NewDate(y, time.Month(m), d), nil
			}
		}
	}
	return Null, fmt.Errorf("value: cannot parse date %q", s)
}

// Compare orders two non-null values. It returns -1, 0 or +1, and an
// error when the types are not mutually comparable. Numeric types compare
// after promotion to float64 when mixed.
func Compare(a, b Value) (int, error) {
	if a.IsNull() || b.IsNull() {
		return 0, fmt.Errorf("value: Compare on NULL")
	}
	switch {
	case a.typ == TypeInt && b.typ == TypeInt:
		return cmpInt64(a.i, b.i), nil
	case a.typ.Numeric() && b.typ.Numeric():
		return cmpFloat64(a.Float(), b.Float()), nil
	case a.typ == TypeString && b.typ == TypeString:
		return strings.Compare(a.s, b.s), nil
	case a.typ == TypeDate && b.typ == TypeDate:
		return cmpInt64(a.i, b.i), nil
	case a.typ == TypeBool && b.typ == TypeBool:
		return cmpInt64(a.i, b.i), nil
	default:
		return 0, fmt.Errorf("value: cannot compare %s with %s", a.typ, b.typ)
	}
}

func cmpInt64(a, b int64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	default:
		return 0
	}
}

func cmpFloat64(a, b float64) int {
	// NaN orders before every number and equal to itself, which makes
	// the order total; without this, NaN vs anything fell through to 0
	// ("equal") while AppendKey kept NaN distinct, so GROUP BY/DISTINCT
	// buckets disagreed with ORDER BY and predicate equality.
	an, bn := math.IsNaN(a), math.IsNaN(b)
	switch {
	case an && bn:
		return 0
	case an:
		return -1
	case bn:
		return 1
	case a < b:
		return -1
	case a > b:
		return 1
	default:
		return 0
	}
}

// Equal reports SQL equality of two non-null values; NULL compared with
// anything is not equal (callers implementing three-valued logic should
// test IsNull first and produce UNKNOWN).
func Equal(a, b Value) bool {
	if a.IsNull() || b.IsNull() {
		return false
	}
	c, err := Compare(a, b)
	return err == nil && c == 0
}

// Key returns a string usable as a Go map key such that two values have
// the same key iff they are SQL-equal (after numeric promotion). NULLs
// all share one key, which matches SQL GROUP BY/DISTINCT semantics where
// NULLs form a single group.
func (v Value) Key() string {
	return string(v.AppendKey(make([]byte, 0, 24)))
}

// AppendKey appends Key's bytes to dst and returns the extended slice —
// the hot-path form: callers that probe maps in a loop reuse one buffer
// and index with string(buf), which the compiler compiles to an
// allocation-free map access.
func (v Value) AppendKey(dst []byte) []byte {
	switch v.typ {
	case TypeNull:
		return append(dst, 'n')
	case TypeBool:
		if v.i != 0 {
			return append(dst, 'b', 't')
		}
		return append(dst, 'b', 'f')
	case TypeInt:
		// Integer-valued floats must collide with equal ints, so ints
		// key through the same float64 canonicalization.
		return appendFloatKey(dst, float64(v.i))
	case TypeFloat:
		return appendFloatKey(dst, v.f())
	case TypeString:
		return append(append(dst, 's'), v.s...)
	case TypeDate:
		return strconv.AppendInt(append(dst, 'd'), v.i, 10)
	default:
		return append(dst, '?')
	}
}

// appendFloatKey writes the canonical 9-byte key of a numeric value: a
// tag plus the big-endian IEEE-754 bits of its float64 form, with -0.0
// collapsed onto +0.0 (they compare equal, so they must share a key)
// and every NaN payload collapsed onto one bit pattern, matching the
// NaN-total order of cmpFloat64. Fixed-width binary replaced the former
// strconv shortest-decimal formatting, which dominated group/join key
// building in profiles; the collision semantics are unchanged (distinct
// floats have distinct bit patterns).
func appendFloatKey(dst []byte, f float64) []byte {
	if f == 0 {
		f = 0 // true for -0.0 as well; rewrite to +0.0
	}
	bits := math.Float64bits(f)
	if math.IsNaN(f) {
		bits = math.Float64bits(math.NaN())
	}
	return append(dst, 'f',
		byte(bits>>56), byte(bits>>48), byte(bits>>40), byte(bits>>32),
		byte(bits>>24), byte(bits>>16), byte(bits>>8), byte(bits))
}

// Arith applies a binary arithmetic operator (+ - * /) with SQL numeric
// promotion and NULL propagation. Integer division of two INTEGERs
// truncates toward zero like SQL; division by zero is an error.
func Arith(op byte, a, b Value) (Value, error) {
	if a.IsNull() || b.IsNull() {
		return Null, nil
	}
	if op == '+' && a.typ == TypeDate && b.typ == TypeInt {
		return NewDateFromDays(a.i + b.i), nil
	}
	if op == '-' && a.typ == TypeDate {
		switch b.typ {
		case TypeInt:
			return NewDateFromDays(a.i - b.i), nil
		case TypeDate:
			return NewInt(a.i - b.i), nil
		}
	}
	if !a.typ.Numeric() || !b.typ.Numeric() {
		return Null, fmt.Errorf("value: %c on %s and %s", op, a.typ, b.typ)
	}
	if a.typ == TypeInt && b.typ == TypeInt {
		x, y := a.i, b.i
		switch op {
		case '+':
			return NewInt(x + y), nil
		case '-':
			return NewInt(x - y), nil
		case '*':
			return NewInt(x * y), nil
		case '/':
			if y == 0 {
				return Null, fmt.Errorf("value: division by zero")
			}
			return NewInt(x / y), nil
		}
	}
	x, y := a.Float(), b.Float()
	switch op {
	case '+':
		return NewFloat(x + y), nil
	case '-':
		return NewFloat(x - y), nil
	case '*':
		return NewFloat(x * y), nil
	case '/':
		if y == 0 {
			return Null, fmt.Errorf("value: division by zero")
		}
		return NewFloat(x / y), nil
	}
	return Null, fmt.Errorf("value: unknown operator %c", op)
}

// Neg returns the arithmetic negation with NULL propagation.
func Neg(a Value) (Value, error) {
	switch a.typ {
	case TypeNull:
		return Null, nil
	case TypeInt:
		return NewInt(-a.i), nil
	case TypeFloat:
		return NewFloat(-a.f()), nil
	default:
		return Null, fmt.Errorf("value: unary minus on %s", a.typ)
	}
}

// Coerce converts v to the target type when a lossless or conventional
// SQL cast exists (int↔float, string→date, anything→string). NULL
// coerces to NULL of any type.
func Coerce(v Value, t Type) (Value, error) {
	if v.IsNull() || v.typ == t {
		return v, nil
	}
	switch t {
	case TypeFloat:
		if v.typ == TypeInt {
			return NewFloat(float64(v.i)), nil
		}
	case TypeInt:
		if v.typ == TypeFloat {
			return NewInt(int64(v.f())), nil
		}
	case TypeDate:
		if v.typ == TypeString {
			return ParseDate(v.s)
		}
	case TypeString:
		return NewString(v.String()), nil
	}
	return Null, fmt.Errorf("value: cannot coerce %s to %s", v.typ, t)
}

// Tristate is SQL's three-valued logic domain.
type Tristate int

// The three logic values.
const (
	False Tristate = iota
	True
	Unknown
)

// TristateOf lifts a Go bool into the logic domain.
func TristateOf(b bool) Tristate {
	if b {
		return True
	}
	return False
}

// And implements three-valued AND.
func (t Tristate) And(o Tristate) Tristate {
	if t == False || o == False {
		return False
	}
	if t == True && o == True {
		return True
	}
	return Unknown
}

// Or implements three-valued OR.
func (t Tristate) Or(o Tristate) Tristate {
	if t == True || o == True {
		return True
	}
	if t == False && o == False {
		return False
	}
	return Unknown
}

// Not implements three-valued NOT.
func (t Tristate) Not() Tristate {
	switch t {
	case True:
		return False
	case False:
		return True
	default:
		return Unknown
	}
}

// Value converts the logic value to a SQL BOOLEAN (UNKNOWN → NULL).
func (t Tristate) Value() Value {
	switch t {
	case True:
		return NewBool(true)
	case False:
		return NewBool(false)
	default:
		return Null
	}
}

// TristateFromValue interprets a BOOLEAN (or NULL) value as a logic value.
func TristateFromValue(v Value) (Tristate, error) {
	if v.IsNull() {
		return Unknown, nil
	}
	if v.typ != TypeBool {
		return Unknown, fmt.Errorf("value: %s where BOOLEAN expected", v.typ)
	}
	return TristateOf(v.i != 0), nil
}
