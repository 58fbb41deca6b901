// Package wire defines the minerule network protocol: a simple
// length-framed, CRC-free request/response format shared by the server
// (internal/server) and the native database/sql driver (minerule/driver).
//
// Every message is one frame:
//
//	+------+----------------+---------------+
//	| type |  length (u32)  |    payload    |
//	| 1 B  |  big endian    |  length bytes |
//	+------+----------------+---------------+
//
// The transport (TCP) already guarantees integrity, so frames carry no
// checksum — unlike the storage WAL, whose frames must survive torn
// writes. A connection is strictly request/response: the client sends
// one request frame and reads response frames until Complete or Error;
// there is no pipelining, which keeps the session state machine (see
// DESIGN.md §15) two states big.
//
// Payloads are built from four primitives — u16, u32, u64 and
// length-prefixed strings — plus tagged values for row data. The
// Builder/Parser pair below implements them; both sides of the protocol
// share this code, so encode and decode cannot drift apart.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"time"
)

// ErrFrameTooLarge is wrapped by WriteFrame and ReadFrame when a
// payload (or a received length prefix) exceeds MaxFrame, so callers
// can distinguish the protocol-limit refusal from transport errors with
// errors.Is.
var ErrFrameTooLarge = errors.New("wire: frame exceeds size limit")

// ProtocolVersion is the version the Startup frame announces. A server
// refuses other versions with CodeProtocol.
const ProtocolVersion = 1

// MaxFrame bounds a frame payload. A length prefix beyond it means a
// corrupt or malicious stream; the connection is dropped rather than
// the length trusted.
const MaxFrame = 16 << 20

// Frame types, client to server.
const (
	MsgStartup   byte = 'S' // protocol version + options; first frame on a connection
	MsgQuery     byte = 'Q' // one SQL / MINE RULE statement (or ;-script) as text
	MsgPrepare   byte = 'P' // statement text with ? parameters -> Prepared
	MsgExecute   byte = 'E' // prepared statement id + arguments
	MsgCloseStmt byte = 'C' // discard a prepared statement id
	MsgTerminate byte = 'T' // clean goodbye; the server closes the connection
)

// Frame types, server to client.
const (
	MsgAuthOK   byte = 'K' // startup accepted; session id in payload
	MsgRowDesc  byte = 'R' // column names and type tags for the rows that follow
	MsgDataRow  byte = 'D' // one row of tagged values
	MsgRuleRow  byte = 'r' // one streamed mined rule (layout identical to DataRow)
	MsgComplete byte = 'Z' // request done: command tag + rows affected; server is ready
	MsgPrepared byte = 'p' // Prepare accepted: statement id + parameter count
	MsgError    byte = 'e' // request failed: code + message; server is ready again
)

// Error codes carried by MsgError. They mirror the engine's typed error
// taxonomy so a remote client can classify failures exactly like an
// embedded caller (see resource.Err*).
const (
	CodeAuth      = "AUTH"      // bad or missing credential at startup
	CodeAdmission = "ADMISSION" // connection cap reached, try later
	CodeProtocol  = "PROTOCOL"  // malformed frame or out-of-order message
	CodeInvalid   = "INVALID"   // statement failed to parse or check
	CodeCanceled  = "CANCELED"  // resource.ErrCanceled
	CodeBudget    = "BUDGET"    // resource.ErrBudgetExceeded
	CodeDegraded  = "DEGRADED"  // resource.ErrDegraded
	CodeCorrupt   = "CORRUPT"   // resource.ErrCorruptPage
	CodeIO        = "IO"        // resource.ErrIO (not degraded/corrupt)
	CodeShutdown  = "SHUTDOWN"  // server draining; reconnect elsewhere
	CodeInternal  = "INTERNAL"  // contained panic or unclassified failure
)

// Value type tags. Date travels as its ISO text; the driver surfaces it
// as time.Time.
const (
	TagNull   byte = 'n'
	TagInt    byte = 'i'
	TagFloat  byte = 'f'
	TagBool   byte = 'b'
	TagString byte = 's'
	TagDate   byte = 'd'
)

// WriteFrame writes one frame to w.
func WriteFrame(w io.Writer, typ byte, payload []byte) error {
	if len(payload) > MaxFrame {
		return fmt.Errorf("%w: payload %d bytes, limit %d", ErrFrameTooLarge, len(payload), MaxFrame)
	}
	var hdr [5]byte
	hdr[0] = typ
	binary.BigEndian.PutUint32(hdr[1:], uint32(len(payload)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// ReadFrame reads one frame from r, refusing payloads beyond MaxFrame.
func ReadFrame(r io.Reader) (typ byte, payload []byte, err error) {
	var hdr [5]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, nil, err
	}
	n := binary.BigEndian.Uint32(hdr[1:])
	if n > MaxFrame {
		return 0, nil, fmt.Errorf("%w: length prefix %d, limit %d", ErrFrameTooLarge, n, MaxFrame)
	}
	payload = make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return 0, nil, fmt.Errorf("wire: truncated frame: %w", err)
	}
	return hdr[0], payload, nil
}

// ---------------------------------------------------------------------------
// Payload building

// Builder appends payload primitives to a byte slice.
type Builder struct {
	B []byte
}

// PutU16 appends a big-endian uint16.
func (b *Builder) PutU16(v uint16) { b.B = binary.BigEndian.AppendUint16(b.B, v) }

// PutU32 appends a big-endian uint32.
func (b *Builder) PutU32(v uint32) { b.B = binary.BigEndian.AppendUint32(b.B, v) }

// PutU64 appends a big-endian uint64.
func (b *Builder) PutU64(v uint64) { b.B = binary.BigEndian.AppendUint64(b.B, v) }

// PutString appends a u32 length prefix and the bytes of s.
func (b *Builder) PutString(s string) {
	b.PutU32(uint32(len(s)))
	b.B = append(b.B, s...)
}

// PutValue appends one tagged value. Accepted dynamic types are nil,
// int64, float64, bool, string, []byte (as string) and time.Time (as a
// date); anything else is rendered via fmt as a string so a row can
// always be encoded.
func (b *Builder) PutValue(v interface{}) {
	switch x := v.(type) {
	case nil:
		b.B = append(b.B, TagNull)
	case int64:
		b.B = append(b.B, TagInt)
		b.PutU64(uint64(x))
	case float64:
		b.B = append(b.B, TagFloat)
		b.PutU64(math.Float64bits(x))
	case bool:
		b.B = append(b.B, TagBool)
		if x {
			b.B = append(b.B, 1)
		} else {
			b.B = append(b.B, 0)
		}
	case string:
		b.B = append(b.B, TagString)
		b.PutString(x)
	case []byte:
		b.B = append(b.B, TagString)
		b.PutString(string(x))
	case time.Time:
		b.B = append(b.B, TagDate)
		b.PutString(x.Format("2006-01-02"))
	default:
		b.B = append(b.B, TagString)
		b.PutString(fmt.Sprint(x))
	}
}

// ---------------------------------------------------------------------------
// Payload parsing

// Parser consumes payload primitives from a byte slice. The first
// malformed read latches an error; callers check Err once at the end
// instead of after every field.
type Parser struct {
	B   []byte
	off int
	err error
}

// Err returns the first decode error, if any.
func (p *Parser) Err() error { return p.err }

func (p *Parser) fail() {
	if p.err == nil {
		p.err = fmt.Errorf("wire: truncated payload at offset %d", p.off)
	}
}

func (p *Parser) take(n int) []byte {
	if p.err != nil || p.off+n > len(p.B) {
		p.fail()
		return nil
	}
	out := p.B[p.off : p.off+n]
	p.off += n
	return out
}

// Byte reads one raw byte (used for value type tags in RowDesc).
func (p *Parser) Byte() byte {
	b := p.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

// U16 reads a big-endian uint16.
func (p *Parser) U16() uint16 {
	b := p.take(2)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint16(b)
}

// U32 reads a big-endian uint32.
func (p *Parser) U32() uint32 {
	b := p.take(4)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint32(b)
}

// U64 reads a big-endian uint64.
func (p *Parser) U64() uint64 {
	b := p.take(8)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint64(b)
}

// String reads a length-prefixed string.
func (p *Parser) String() string {
	n := p.U32()
	if p.err != nil {
		return ""
	}
	if int(n) > len(p.B)-p.off {
		p.fail()
		return ""
	}
	return string(p.take(int(n)))
}

// Value reads one tagged value into its Go representation (the inverse
// of Builder.PutValue; dates come back as time.Time in UTC).
func (p *Parser) Value() interface{} {
	b := p.take(1)
	if b == nil {
		return nil
	}
	switch b[0] {
	case TagNull:
		return nil
	case TagInt:
		return int64(p.U64())
	case TagFloat:
		return math.Float64frombits(p.U64())
	case TagBool:
		v := p.take(1)
		return v != nil && v[0] != 0
	case TagString:
		return p.String()
	case TagDate:
		s := p.String()
		if p.err != nil {
			return nil
		}
		t, err := time.Parse("2006-01-02", s)
		if err != nil {
			p.err = fmt.Errorf("wire: bad date %q: %w", s, err)
			return nil
		}
		return t
	default:
		p.err = fmt.Errorf("wire: unknown value tag %q", b[0])
		return nil
	}
}

// Rest reports whether the whole payload was consumed (a guard against
// version skew: trailing bytes mean the peer sent a newer layout).
func (p *Parser) Rest() int { return len(p.B) - p.off }
