// Package driver is the native database/sql driver for a minerule
// server (cmd/minerule-serve or minerule.Serve). Import it blank and
// open with the "minerule" driver name:
//
//	import (
//	    "database/sql"
//	    _ "minerule/driver"
//	)
//
//	db, err := sql.Open("minerule", "tcp://localhost:7733?max_rows=100000")
//
// The DSN is a URL: tcp://host:port with optional query parameters
// token (startup credential), max_rows, max_candidates, max_page_io,
// max_runtime_ms (per-session resource limits, capped by the server's
// defaults) and mine_replace=0 to make MINE RULE fail instead of
// replacing an existing output table.
//
// Statements go through the ordinary database/sql surface, including
// MINE RULE: a Query whose text is a MINE RULE statement streams the
// mined rules back as rows with columns BODY, HEAD, SUPPORT and
// CONFIDENCE. Parameters use '?': arguments travel as typed values the
// server binds when the statement runs, and Prepare checks the text on
// the server, MINE RULE included. Errors carry the server's typed
// code and unwrap to the same sentinels the embedded API returns, so
// errors.Is(err, minerule.ErrBudgetExceeded) works identically in both
// deployments.
package driver

import (
	"bufio"
	"context"
	"database/sql"
	sqldriver "database/sql/driver"
	"errors"
	"fmt"
	"io"
	"net"
	"net/url"
	"sync/atomic"

	"minerule/internal/resource"
	"minerule/internal/server/wire"
)

func init() {
	sql.Register("minerule", &Driver{})
}

// Driver implements database/sql/driver for the minerule wire protocol.
type Driver struct{}

// Open dials and performs the startup handshake.
func (d *Driver) Open(dsn string) (sqldriver.Conn, error) {
	return d.open(context.Background(), dsn)
}

func (d *Driver) open(ctx context.Context, dsn string) (sqldriver.Conn, error) {
	c, err := d.OpenConnector(dsn)
	if err != nil {
		return nil, err
	}
	return c.(*connector).connect(ctx)
}

// OpenConnector parses the DSN once; database/sql dials through the
// returned connector with the caller's context.
func (d *Driver) OpenConnector(dsn string) (sqldriver.Connector, error) {
	cfg, err := parseDSN(dsn)
	if err != nil {
		return nil, err
	}
	return &connector{drv: d, cfg: cfg}, nil
}

// config is a parsed DSN.
type config struct {
	addr    string
	options map[string]string // startup options, verbatim
}

func parseDSN(dsn string) (config, error) {
	u, err := url.Parse(dsn)
	if err != nil {
		return config{}, fmt.Errorf("minerule driver: bad DSN %q: %w", dsn, err)
	}
	if u.Scheme != "tcp" {
		return config{}, fmt.Errorf("minerule driver: unsupported DSN scheme %q (want tcp://host:port)", u.Scheme)
	}
	if u.Host == "" {
		return config{}, fmt.Errorf("minerule driver: DSN %q has no host", dsn)
	}
	cfg := config{addr: u.Host, options: make(map[string]string)}
	for k, vs := range u.Query() {
		switch k {
		case "token", "max_rows", "max_candidates", "max_page_io", "max_runtime_ms", "mine_replace":
			if len(vs) > 0 {
				cfg.options[k] = vs[0]
			}
		default:
			return config{}, fmt.Errorf("minerule driver: unknown DSN parameter %q", k)
		}
	}
	return cfg, nil
}

type connector struct {
	drv *Driver
	cfg config
}

func (c *connector) Driver() sqldriver.Driver { return c.drv }

func (c *connector) Connect(ctx context.Context) (sqldriver.Conn, error) {
	return c.connect(ctx)
}

func (c *connector) connect(ctx context.Context) (*conn, error) {
	var d net.Dialer
	nc, err := d.DialContext(ctx, "tcp", c.cfg.addr)
	if err != nil {
		return nil, fmt.Errorf("minerule driver: dial %s: %w", c.cfg.addr, err)
	}
	cn := &conn{
		nc: nc,
		br: bufio.NewReader(nc),
		bw: bufio.NewWriter(nc),
	}
	if err := cn.startup(ctx, c.cfg.options); err != nil {
		nc.Close()
		return nil, err
	}
	return cn, nil
}

// conn is one wire connection. database/sql guarantees a conn is used
// by one goroutine at a time; the only concurrent access is the
// context watchdog, which closes the socket to interrupt a blocking
// read and marks the conn bad through an atomic.
type conn struct {
	nc        net.Conn
	br        *bufio.Reader
	bw        *bufio.Writer
	sessionID uint64
	bad       atomic.Bool
	closed    bool
}

// Error is a typed failure reported by the server. Code is one of the
// wire codes (CANCELED, BUDGET, DEGRADED, CORRUPT, IO, INVALID, AUTH,
// ADMISSION, SHUTDOWN, PROTOCOL, INTERNAL); Unwrap maps it to the
// matching sentinel of the embedded API's error taxonomy.
type Error struct {
	Code string
	Msg  string
}

func (e *Error) Error() string { return e.Msg }

// Unwrap maps the wire code onto the embedded error taxonomy, so
// errors.Is against minerule.Err* works for remote failures too.
func (e *Error) Unwrap() error {
	switch e.Code {
	case wire.CodeCanceled:
		return resource.ErrCanceled
	case wire.CodeBudget:
		return resource.ErrBudgetExceeded
	case wire.CodeDegraded:
		return resource.ErrDegraded
	case wire.CodeCorrupt:
		return resource.ErrCorruptPage
	case wire.CodeIO:
		return resource.ErrIO
	default:
		return nil
	}
}

func (c *conn) startup(ctx context.Context, options map[string]string) error {
	stop := c.watch(ctx)
	defer stop()
	var b wire.Builder
	b.PutU32(wire.ProtocolVersion)
	b.PutU16(uint16(len(options)))
	for k, v := range options {
		b.PutString(k)
		b.PutString(v)
	}
	if err := c.send(wire.MsgStartup, b.B); err != nil {
		return err
	}
	typ, payload, err := wire.ReadFrame(c.br)
	if err != nil {
		return fmt.Errorf("minerule driver: startup: %w", err)
	}
	switch typ {
	case wire.MsgAuthOK:
		p := wire.Parser{B: payload}
		c.sessionID = p.U64()
		return p.Err()
	case wire.MsgError:
		return decodeError(payload)
	default:
		return fmt.Errorf("minerule driver: unexpected startup response frame %q", typ)
	}
}

// watch interrupts a blocking round-trip when ctx is canceled by
// closing the socket (the protocol has no out-of-band cancel); the
// conn is then bad and database/sql discards it.
func (c *conn) watch(ctx context.Context) (stop func()) {
	if ctx == nil || ctx.Done() == nil {
		return func() {}
	}
	done := make(chan struct{})
	go func() {
		select {
		case <-ctx.Done():
			c.bad.Store(true)
			c.nc.Close()
		case <-done:
		}
	}()
	return func() { close(done) }
}

func (c *conn) send(typ byte, payload []byte) error {
	if err := wire.WriteFrame(c.bw, typ, payload); err != nil {
		c.bad.Store(true)
		return sqldriver.ErrBadConn
	}
	if err := c.bw.Flush(); err != nil {
		c.bad.Store(true)
		return sqldriver.ErrBadConn
	}
	return nil
}

// read returns the next response frame, converting transport failures
// into ErrBadConn so the pool retires the connection.
func (c *conn) read(ctx context.Context) (byte, []byte, error) {
	typ, payload, err := wire.ReadFrame(c.br)
	if err != nil {
		c.bad.Store(true)
		if ctx != nil && ctx.Err() != nil {
			return 0, nil, ctx.Err()
		}
		return 0, nil, sqldriver.ErrBadConn
	}
	return typ, payload, nil
}

func decodeError(payload []byte) error {
	p := wire.Parser{B: payload}
	code := p.String()
	msg := p.String()
	if p.Err() != nil {
		return fmt.Errorf("minerule driver: malformed error frame: %w", p.Err())
	}
	return &Error{Code: code, Msg: msg}
}

// ---------------------------------------------------------------------------
// driver.Conn

func (c *conn) Prepare(query string) (sqldriver.Stmt, error) {
	return c.PrepareContext(context.TODO(), query)
}

func (c *conn) PrepareContext(ctx context.Context, query string) (sqldriver.Stmt, error) {
	if c.bad.Load() {
		return nil, sqldriver.ErrBadConn
	}
	stop := c.watch(ctx)
	defer stop()
	var b wire.Builder
	b.PutString(query)
	if err := c.send(wire.MsgPrepare, b.B); err != nil {
		return nil, err
	}
	typ, payload, err := c.read(ctx)
	if err != nil {
		return nil, err
	}
	switch typ {
	case wire.MsgPrepared:
		p := wire.Parser{B: payload}
		id := p.U32()
		n := int(p.U16())
		if err := p.Err(); err != nil {
			c.bad.Store(true)
			return nil, sqldriver.ErrBadConn
		}
		return &stmt{c: c, id: id, numInput: n}, nil
	case wire.MsgError:
		return nil, decodeError(payload)
	default:
		c.bad.Store(true)
		return nil, sqldriver.ErrBadConn
	}
}

func (c *conn) Close() error {
	if c.closed {
		return nil
	}
	c.closed = true
	if !c.bad.Load() {
		// Best effort: tell the server we are leaving cleanly.
		wire.WriteFrame(c.bw, wire.MsgTerminate, nil)
		c.bw.Flush()
	}
	return c.nc.Close()
}

// Begin is required by driver.Conn; database/sql prefers BeginTx.
func (c *conn) Begin() (sqldriver.Tx, error) {
	return c.BeginTx(context.Background(), sqldriver.TxOptions{})
}

// BeginTx opens an explicit transaction on the session by sending BEGIN
// as an ordinary Query frame; Commit and Rollback send COMMIT/ROLLBACK
// the same way. The engine runs snapshot isolation, so only the default
// and snapshot isolation levels are accepted; ReadOnly is advisory (all
// reads are snapshot reads regardless).
func (c *conn) BeginTx(ctx context.Context, opts sqldriver.TxOptions) (sqldriver.Tx, error) {
	switch sql.IsolationLevel(opts.Isolation) {
	case sql.LevelDefault, sql.LevelSnapshot:
	default:
		return nil, fmt.Errorf("minerule driver: isolation level %s is not supported (the engine runs snapshot isolation)", sql.IsolationLevel(opts.Isolation))
	}
	if c.bad.Load() {
		return nil, sqldriver.ErrBadConn
	}
	if err := c.txnControl(ctx, "BEGIN"); err != nil {
		return nil, err
	}
	return &tx{c: c}, nil
}

// txnControl round-trips one transaction-control statement.
func (c *conn) txnControl(ctx context.Context, stmt string) error {
	var b wire.Builder
	b.PutString(stmt)
	_, err := c.roundTripExec(ctx, wire.MsgQuery, b.B)
	return err
}

// tx is an open explicit transaction on its conn. database/sql
// guarantees exactly one of Commit/Rollback is called, on the same
// goroutine that uses the conn.
type tx struct{ c *conn }

// Commit and Rollback are the API layer for transaction teardown —
// database/sql's driver.Tx interface carries no context, so they mint
// the background one.
func (t *tx) Commit() error { return t.c.finishTxn(context.Background(), "COMMIT") }

func (t *tx) Rollback() error { return t.c.finishTxn(context.Background(), "ROLLBACK") }

func (c *conn) finishTxn(ctx context.Context, stmt string) error {
	if c.bad.Load() {
		return sqldriver.ErrBadConn
	}
	return c.txnControl(ctx, stmt)
}

// IsValid keeps database/sql from handing out a conn whose socket was
// closed by a cancellation watchdog.
func (c *conn) IsValid() bool { return !c.bad.Load() }

// ---------------------------------------------------------------------------
// Direct query/exec (no server-side prepare round trip)

func (c *conn) QueryContext(ctx context.Context, query string, args []sqldriver.NamedValue) (sqldriver.Rows, error) {
	if len(args) > 0 {
		return nil, sqldriver.ErrSkip // fall back to Prepare/Execute
	}
	if c.bad.Load() {
		return nil, sqldriver.ErrBadConn
	}
	var b wire.Builder
	b.PutString(query)
	return c.roundTripQuery(ctx, wire.MsgQuery, b.B)
}

func (c *conn) ExecContext(ctx context.Context, query string, args []sqldriver.NamedValue) (sqldriver.Result, error) {
	if len(args) > 0 {
		return nil, sqldriver.ErrSkip
	}
	if c.bad.Load() {
		return nil, sqldriver.ErrBadConn
	}
	var b wire.Builder
	b.PutString(query)
	return c.roundTripExec(ctx, wire.MsgQuery, b.B)
}

// roundTripQuery sends a request whose response is a row stream and
// returns lazily-reading Rows. The context watchdog stays armed until
// the rows are closed: canceling mid-stream closes the socket and the
// in-flight statement dies server-side.
func (c *conn) roundTripQuery(ctx context.Context, typ byte, payload []byte) (sqldriver.Rows, error) {
	stop := c.watch(ctx)
	if err := c.send(typ, payload); err != nil {
		stop()
		return nil, err
	}
	for {
		ftyp, fp, err := c.read(ctx)
		if err != nil {
			stop()
			return nil, err
		}
		switch ftyp {
		case wire.MsgRowDesc:
			p := wire.Parser{B: fp}
			n := int(p.U16())
			cols := make([]string, 0, n)
			tags := make([]byte, 0, n)
			for i := 0; i < n; i++ {
				cols = append(cols, p.String())
				tags = append(tags, p.Byte())
			}
			if err := p.Err(); err != nil {
				stop()
				c.bad.Store(true)
				return nil, sqldriver.ErrBadConn
			}
			return &rows{c: c, ctx: ctx, stop: stop, cols: cols, tags: tags}, nil
		case wire.MsgComplete:
			// Statement produced no rows (e.g. DDL run through Query):
			// surface an empty, already-done row set.
			stop()
			return &rows{c: c, ctx: ctx, stop: func() {}, done: true}, nil
		case wire.MsgError:
			stop()
			return nil, decodeError(fp)
		default:
			stop()
			c.bad.Store(true)
			return nil, sqldriver.ErrBadConn
		}
	}
}

// roundTripExec sends a request and drains its response, returning the
// rows-affected count from the Complete frame.
func (c *conn) roundTripExec(ctx context.Context, typ byte, payload []byte) (sqldriver.Result, error) {
	stop := c.watch(ctx)
	defer stop()
	if err := c.send(typ, payload); err != nil {
		return nil, err
	}
	for {
		ftyp, fp, err := c.read(ctx)
		if err != nil {
			return nil, err
		}
		switch ftyp {
		case wire.MsgRowDesc, wire.MsgDataRow, wire.MsgRuleRow:
			continue // Exec on a query: drain the rows
		case wire.MsgComplete:
			p := wire.Parser{B: fp}
			_ = p.String() // command tag
			n := p.U64()
			if err := p.Err(); err != nil {
				c.bad.Store(true)
				return nil, sqldriver.ErrBadConn
			}
			return result{rows: int64(n)}, nil
		case wire.MsgError:
			return nil, decodeError(fp)
		default:
			c.bad.Store(true)
			return nil, sqldriver.ErrBadConn
		}
	}
}

type result struct{ rows int64 }

func (r result) LastInsertId() (int64, error) {
	return 0, errors.New("minerule driver: LastInsertId is not supported")
}
func (r result) RowsAffected() (int64, error) { return r.rows, nil }

// ---------------------------------------------------------------------------
// Prepared statements

type stmt struct {
	c        *conn
	id       uint32
	numInput int
	closed   bool
}

func (s *stmt) Close() error {
	if s.closed || s.c.bad.Load() || s.c.closed {
		return nil
	}
	s.closed = true
	var b wire.Builder
	b.PutU32(s.id)
	if err := s.c.send(wire.MsgCloseStmt, b.B); err != nil {
		return err
	}
	for {
		typ, fp, err := s.c.read(nil) // read tolerates a nil ctx
		if err != nil {
			return err
		}
		switch typ {
		case wire.MsgComplete:
			return nil
		case wire.MsgError:
			return decodeError(fp)
		}
	}
}

func (s *stmt) NumInput() int { return s.numInput }

func (s *stmt) executePayload(args []sqldriver.NamedValue) []byte {
	var b wire.Builder
	b.PutU32(s.id)
	b.PutU16(uint16(len(args)))
	for _, a := range args {
		b.PutValue(a.Value)
	}
	return b.B
}

func (s *stmt) Exec(args []sqldriver.Value) (sqldriver.Result, error) {
	return s.ExecContext(context.TODO(), namedValues(args))
}

func (s *stmt) Query(args []sqldriver.Value) (sqldriver.Rows, error) {
	return s.QueryContext(context.TODO(), namedValues(args))
}

func (s *stmt) ExecContext(ctx context.Context, args []sqldriver.NamedValue) (sqldriver.Result, error) {
	if s.c.bad.Load() {
		return nil, sqldriver.ErrBadConn
	}
	return s.c.roundTripExec(ctx, wire.MsgExecute, s.executePayload(args))
}

func (s *stmt) QueryContext(ctx context.Context, args []sqldriver.NamedValue) (sqldriver.Rows, error) {
	if s.c.bad.Load() {
		return nil, sqldriver.ErrBadConn
	}
	return s.c.roundTripQuery(ctx, wire.MsgExecute, s.executePayload(args))
}

func namedValues(vals []sqldriver.Value) []sqldriver.NamedValue {
	out := make([]sqldriver.NamedValue, len(vals))
	for i, v := range vals {
		out[i] = sqldriver.NamedValue{Ordinal: i + 1, Value: v}
	}
	return out
}

// ---------------------------------------------------------------------------
// Rows

// rows streams response frames lazily: each Next reads one frame, so a
// large result (or a long rule stream) never materializes client-side.
type rows struct {
	c     *conn
	ctx   context.Context
	stop  func() // disarms the cancellation watchdog
	cols  []string
	tags  []byte
	done  bool
	rowsN int64
}

func (r *rows) Columns() []string { return r.cols }

func (r *rows) Close() error {
	if r.done {
		r.stop()
		return nil
	}
	// Drain the remaining frames so the connection returns to ready.
	for {
		typ, _, err := r.c.read(r.ctx)
		if err != nil {
			r.done = true
			r.stop()
			return err
		}
		if typ == wire.MsgComplete || typ == wire.MsgError {
			r.done = true
			r.stop()
			return nil
		}
	}
}

func (r *rows) Next(dest []sqldriver.Value) error {
	if r.done {
		return io.EOF
	}
	typ, fp, err := r.c.read(r.ctx)
	if err != nil {
		r.done = true
		r.stop()
		return err
	}
	switch typ {
	case wire.MsgDataRow, wire.MsgRuleRow:
		p := wire.Parser{B: fp}
		n := int(p.U16())
		if n != len(dest) {
			r.c.bad.Store(true)
			r.done = true
			r.stop()
			return fmt.Errorf("minerule driver: row has %d values, want %d", n, len(dest))
		}
		for i := 0; i < n; i++ {
			dest[i] = p.Value()
		}
		if err := p.Err(); err != nil {
			r.c.bad.Store(true)
			r.done = true
			r.stop()
			return sqldriver.ErrBadConn
		}
		r.rowsN++
		return nil
	case wire.MsgComplete:
		r.done = true
		r.stop()
		return io.EOF
	case wire.MsgError:
		r.done = true
		r.stop()
		return decodeError(fp)
	default:
		r.c.bad.Store(true)
		r.done = true
		r.stop()
		return sqldriver.ErrBadConn
	}
}

// ColumnTypeDatabaseTypeName surfaces the wire tag as a type name.
func (r *rows) ColumnTypeDatabaseTypeName(index int) string {
	if index >= len(r.tags) {
		return ""
	}
	switch r.tags[index] {
	case wire.TagInt:
		return "INT"
	case wire.TagFloat:
		return "FLOAT"
	case wire.TagBool:
		return "BOOL"
	case wire.TagDate:
		return "DATE"
	default:
		return "STRING"
	}
}

// Compile-time interface checks.
var (
	_ sqldriver.DriverContext                  = (*Driver)(nil)
	_ sqldriver.Conn                           = (*conn)(nil)
	_ sqldriver.ConnPrepareContext             = (*conn)(nil)
	_ sqldriver.QueryerContext                 = (*conn)(nil)
	_ sqldriver.ExecerContext                  = (*conn)(nil)
	_ sqldriver.Validator                      = (*conn)(nil)
	_ sqldriver.ConnBeginTx                    = (*conn)(nil)
	_ sqldriver.StmtExecContext                = (*stmt)(nil)
	_ sqldriver.StmtQueryContext               = (*stmt)(nil)
	_ sqldriver.RowsColumnTypeDatabaseTypeName = (*rows)(nil)
)
