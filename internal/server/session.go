package server

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"strconv"
	"strings"
	"sync"
	"time"

	"minerule/internal/core"
	mrparse "minerule/internal/minerule/parse"
	"minerule/internal/obsv"
	"minerule/internal/resource"
	"minerule/internal/server/wire"
	"minerule/internal/sql/engine"
	"minerule/internal/sql/lex"
	"minerule/internal/sql/schema"
	"minerule/internal/sql/value"
)

// session is one admitted connection: its credentials were checked at
// startup, it carries its own resource limits and prepared-statement
// table, and a dedicated reader goroutine turns a client disconnect
// into cancellation of whatever statement the session is running.
//
// The state machine is deliberately small: after a successful startup
// the session alternates between *ready* (blocked reading the next
// request frame) and *busy* (executing it, response frames streaming
// out). Nothing is pipelined, so an Error frame always answers the
// request that caused it.
type session struct {
	srv  *Server
	conn net.Conn
	id   uint64
	br   *bufio.Reader
	bw   *bufio.Writer

	limits      resource.Limits
	mineReplace bool

	// econn is the session's own engine connection: the unit of
	// transaction scope, so a remote BEGIN holds its transaction open
	// across round trips without affecting other sessions.
	econn *engine.Conn

	frames  chan frame    // reader goroutine -> run loop; closed on read failure
	done    chan struct{} // closed when run returns; unblocks a reader mid-send
	readErr error         // sticky first read error, written before frames closes

	mu        sync.Mutex
	curCancel context.CancelFunc // guarded by mu; cancels the in-flight statement, nil when ready
	busy      bool               // guarded by mu
	draining  bool               // guarded by mu

	stmts    map[uint32]*prepStmt
	nextStmt uint32
}

// frame is one request read off the wire.
type frame struct {
	typ     byte
	payload []byte
}

// prepStmt is a statement text classified for its runner; a prepared
// handle also holds its ? parameter count. Execute binds arguments as
// values, so a handle names one stmtcache entry however many distinct
// arguments it runs with.
type prepStmt struct {
	kind   stmtKind
	sql    string
	params int
}

// stmtKind is the runner a statement text goes to.
type stmtKind int

const (
	kindSQL         stmtKind = iota // one engine statement
	kindScript                      // several ';'-separated engine statements
	kindMine                        // MINE RULE, run by the kernel
	kindExplainMine                 // EXPLAIN MINE RULE, rendered by the translator
)

// classify routes a text by its tokens: MINE RULE (bare or after
// EXPLAIN) to the kernel, multi-statement texts to the script path,
// everything else to the engine.
func classify(text string) *prepStmt {
	st := &prepStmt{kind: kindSQL, sql: strings.TrimSpace(text)}
	if rest, explain, ok := mrparse.Target(st.sql); ok {
		st.kind, st.sql = kindMine, rest
		if explain {
			st.kind = kindExplainMine
		}
	} else if sts, _ := lex.Split(st.sql); len(sts) > 1 {
		st.kind = kindScript
	}
	return st
}

// countReader / countWriter feed the wire byte counters.
type countReader struct {
	r io.Reader
	n *obsv.Counter
}

func (c countReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n.Add(int64(n))
	return n, err
}

type countWriter struct {
	w io.Writer
	n *obsv.Counter
}

func (c countWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n.Add(int64(n))
	return n, err
}

func newSession(srv *Server, conn net.Conn, id uint64) *session {
	return &session{
		srv:    srv,
		conn:   conn,
		id:     id,
		br:     bufio.NewReader(countReader{conn, &srv.met.SrvBytesRead}),
		bw:     bufio.NewWriter(countWriter{conn, &srv.met.SrvBytesWritten}),
		econn:  srv.db.Conn(),
		frames: make(chan frame),
		done:   make(chan struct{}),
		stmts:  make(map[uint32]*prepStmt),
	}
}

// refuseConn answers an unadmitted connection with one typed error
// frame and closes it; a short write deadline keeps a stuck client from
// pinning the accept loop's goroutine.
func refuseConn(conn net.Conn, code, msg string) {
	conn.SetWriteDeadline(time.Now().Add(2 * time.Second))
	var b wire.Builder
	b.PutString(code)
	b.PutString(msg)
	wire.WriteFrame(conn, wire.MsgError, b.B)
	conn.Close()
}

func wireAdmissionCode(draining bool) string {
	if draining {
		return wire.CodeShutdown
	}
	return wire.CodeAdmission
}

// run drives the session to completion. ctx is the server's session
// context: it stays open through graceful drain and is canceled only at
// the drain deadline.
func (sess *session) run(ctx context.Context) {
	// Closing done releases a readLoop parked on the frames send when
	// run leaves early (drain, write failure, Terminate race): closing
	// the connection only unblocks a reader stuck in a *read*, not one
	// already holding a frame nobody will receive.
	defer close(sess.done)
	defer sess.conn.Close()
	// A session that dies mid-transaction must not leave its locks and
	// snapshot behind: closing the engine connection rolls back any open
	// explicit transaction.
	defer sess.econn.Close()
	if !sess.startup() {
		return
	}
	go sess.readLoop()
	for {
		f, ok := <-sess.frames
		if !ok {
			return // client went away (or read failed); readLoop canceled any statement
		}
		if f.typ == wire.MsgTerminate {
			return
		}
		sess.srv.met.SrvRequests.Inc()
		sess.setBusy(true)
		err := sess.handle(ctx, f)
		sess.setBusy(false)
		if err != nil {
			sess.srv.logf("server: session %d: %v", sess.id, err)
			return
		}
		if sess.isDraining() {
			// Finish the in-flight request, then leave: the client's next
			// use of the connection fails cleanly and it can reconnect.
			return
		}
	}
}

// startup performs the handshake: one Startup frame within the startup
// timeout, version and credential checks, session-limit negotiation.
// It reports whether the session may proceed.
func (sess *session) startup() bool {
	srv := sess.srv
	sess.conn.SetReadDeadline(time.Now().Add(srv.cfg.StartupTimeout))
	typ, payload, err := wire.ReadFrame(sess.br)
	if err != nil {
		return false
	}
	sess.conn.SetReadDeadline(time.Time{})
	if typ != wire.MsgStartup {
		sess.sendError(wire.CodeProtocol, "server: expected Startup frame")
		return false
	}
	p := wire.Parser{B: payload}
	ver := p.U32()
	n := int(p.U16())
	opts := make(map[string]string, n)
	for i := 0; i < n; i++ {
		k := p.String()
		v := p.String()
		opts[k] = v
	}
	if p.Err() != nil {
		sess.sendError(wire.CodeProtocol, "server: malformed Startup frame")
		return false
	}
	if ver != wire.ProtocolVersion {
		sess.sendError(wire.CodeProtocol, fmt.Sprintf("server: protocol version %d not supported (want %d)", ver, wire.ProtocolVersion))
		return false
	}
	if !srv.checkToken(opts["token"]) {
		srv.met.SrvAuthFailures.Inc()
		sess.sendError(wire.CodeAuth, "server: authentication failed")
		return false
	}
	atoi := func(key string) int {
		v, _ := strconv.Atoi(opts[key])
		return v
	}
	req := resource.Limits{
		MaxRows:       atoi("max_rows"),
		MaxCandidates: atoi("max_candidates"),
		MaxPageIO:     atoi("max_page_io"),
		MaxRuntime:    time.Duration(atoi("max_runtime_ms")) * time.Millisecond,
	}
	sess.limits = capLimits(srv.cfg.DefaultLimits, req)
	sess.mineReplace = opts["mine_replace"] != "0"

	var b wire.Builder
	b.PutU64(sess.id)
	return sess.send(wire.MsgAuthOK, b.B) == nil
}

// readLoop pulls frames off the wire for the run loop. While a
// statement executes, the loop sits in the next blocking read — which
// is exactly how a mid-query client disconnect surfaces: the read
// fails, the in-flight statement's context is canceled, and the
// engine's cancellation path unwinds the work.
func (sess *session) readLoop() {
	for {
		typ, payload, err := wire.ReadFrame(sess.br)
		if err != nil {
			sess.readErr = err
			if sess.cancelCurrent() {
				sess.srv.met.SrvCanceled.Inc()
			}
			close(sess.frames)
			return
		}
		select {
		case sess.frames <- frame{typ, payload}:
		case <-sess.done:
			return // run loop already left; the frame has no receiver
		}
		if typ == wire.MsgTerminate {
			return // run loop closes the connection
		}
	}
}

func (sess *session) setBusy(b bool) {
	sess.mu.Lock()
	sess.busy = b
	sess.mu.Unlock()
}

func (sess *session) isDraining() bool {
	sess.mu.Lock()
	defer sess.mu.Unlock()
	return sess.draining
}

// beginDrain marks the session draining and, when it is idle, closes
// the connection to unblock its reader. A busy session finishes its
// current request first (run checks the flag afterwards).
func (sess *session) beginDrain() {
	sess.mu.Lock()
	sess.draining = true
	busy := sess.busy
	sess.mu.Unlock()
	if !busy {
		sess.conn.Close()
	}
}

func (sess *session) setCancel(c context.CancelFunc) {
	sess.mu.Lock()
	sess.curCancel = c
	sess.mu.Unlock()
}

// cancelCurrent cancels the in-flight statement, reporting whether one
// was running.
func (sess *session) cancelCurrent() bool {
	sess.mu.Lock()
	c := sess.curCancel
	sess.mu.Unlock()
	if c != nil {
		c()
	}
	return c != nil
}

// handle dispatches one request frame. A nil return keeps the session
// alive (including after statement errors, which are answered with an
// Error frame); a non-nil return tears it down (write failures,
// protocol violations).
func (sess *session) handle(ctx context.Context, f frame) error {
	stCtx, cancel := context.WithCancel(ctx)
	if sess.limits.MaxRuntime > 0 {
		stCtx, cancel = context.WithTimeout(stCtx, sess.limits.MaxRuntime)
	}
	sess.setCancel(cancel)
	defer func() {
		sess.setCancel(nil)
		cancel()
	}()
	stCtx = resource.WithLimits(stCtx, sess.limits)

	switch f.typ {
	case wire.MsgQuery:
		p := wire.Parser{B: f.payload}
		text := p.String()
		if p.Err() != nil {
			return sess.protocolViolation("malformed Query frame")
		}
		return sess.runText(stCtx, classify(text), nil)

	case wire.MsgPrepare:
		p := wire.Parser{B: f.payload}
		text := p.String()
		if p.Err() != nil {
			return sess.protocolViolation("malformed Prepare frame")
		}
		return sess.prepare(text)

	case wire.MsgExecute:
		p := wire.Parser{B: f.payload}
		id := p.U32()
		nargs := int(p.U16())
		args := make([]value.Value, 0, nargs)
		for i := 0; i < nargs; i++ {
			args = append(args, argValue(p.Value()))
		}
		if p.Err() != nil {
			return sess.protocolViolation("malformed Execute frame")
		}
		st, ok := sess.stmts[id]
		if !ok {
			return sess.sendError(wire.CodeInvalid, fmt.Sprintf("server: unknown prepared statement %d", id))
		}
		if len(args) != st.params {
			return sess.sendError(wire.CodeInvalid, fmt.Sprintf("server: statement has %d parameter(s), got %d argument(s)", st.params, len(args)))
		}
		return sess.runText(stCtx, st, args)

	case wire.MsgCloseStmt:
		p := wire.Parser{B: f.payload}
		id := p.U32()
		if p.Err() != nil {
			return sess.protocolViolation("malformed Close frame")
		}
		delete(sess.stmts, id)
		return sess.sendComplete("CLOSE", 0)

	default:
		return sess.protocolViolation(fmt.Sprintf("unexpected frame type %q", f.typ))
	}
}

// protocolViolation answers with a PROTOCOL error and tears the session
// down: after a framing-level confusion the stream cannot be trusted.
func (sess *session) protocolViolation(msg string) error {
	sess.sendError(wire.CodeProtocol, "server: "+msg)
	return errors.New("server: protocol violation: " + msg)
}

// prepare registers a statement handle after checking the text with
// the parser that will run it: MINE RULE texts with the MINE RULE
// parser, everything else with engine.Prepare, which also counts the ?
// parameters. A typo fails at Prepare like on any database.
func (sess *session) prepare(text string) error {
	st := classify(text)
	var err error
	if st.kind == kindMine || st.kind == kindExplainMine {
		_, err = mrparse.Parse(st.sql)
	} else {
		st.params, err = sess.srv.db.Prepare(st.sql)
	}
	if err == nil && st.params > math.MaxUint16 {
		// Prepared and Execute frames carry the count as a u16.
		err = fmt.Errorf("server: statement has %d parameters, at most %d can be bound", st.params, math.MaxUint16)
	}
	if err != nil {
		return sess.sendStatementError(err)
	}
	sess.nextStmt++
	id := sess.nextStmt
	sess.stmts[id] = st
	var b wire.Builder
	b.PutU32(id)
	b.PutU16(uint16(st.params))
	return sess.send(wire.MsgPrepared, b.B)
}

// argValue converts one wire argument into the value it binds.
func argValue(v interface{}) value.Value {
	switch x := v.(type) {
	case int64:
		return value.NewInt(x)
	case float64:
		return value.NewFloat(x)
	case bool:
		return value.NewBool(x)
	case string:
		return value.NewString(x)
	case time.Time:
		return value.NewDate(x.Year(), x.Month(), x.Day())
	default:
		return value.Null
	}
}

// runText executes one classified text with its bound arguments: MINE
// RULE on the kernel (rules stream back), EXPLAIN MINE RULE on the
// translator, scripts and single statements on the session's engine
// connection.
func (sess *session) runText(ctx context.Context, st *prepStmt, args []value.Value) error {
	switch st.kind {
	case kindExplainMine:
		return sess.explainMine(st.sql)
	case kindMine:
		return sess.runMine(ctx, st.sql)
	case kindScript:
		if err := sess.econn.ExecScriptContext(ctx, st.sql, args...); err != nil {
			return sess.sendStatementError(err)
		}
		return sess.sendComplete("SCRIPT", 0)
	}
	res, err := sess.econn.ExecContext(ctx, st.sql, args...)
	if err != nil {
		return sess.sendStatementError(err)
	}
	if res.Schema == nil {
		return sess.sendComplete("EXEC", res.RowsAffected)
	}
	if err := sess.sendRowDesc(res.Schema); err != nil {
		return err
	}
	for _, row := range res.Rows {
		if err := sess.sendRow(wire.MsgDataRow, row); err != nil {
			return err
		}
	}
	return sess.sendComplete(fmt.Sprintf("SELECT %d", len(res.Rows)), len(res.Rows))
}

// runMine evaluates a MINE RULE statement under the session's limits
// and streams the decoded rules back as RuleRow frames.
func (sess *session) runMine(ctx context.Context, text string) error {
	opts := core.Options{ReplaceOutput: sess.mineReplace, Limits: sess.limits}
	res, err := core.MineContext(ctx, sess.srv.db, text, opts)
	if err != nil {
		return sess.sendStatementError(err)
	}
	rules, err := core.ReadRules(sess.srv.db, res)
	if err != nil {
		return sess.sendStatementError(err)
	}
	var b wire.Builder
	b.PutU16(4)
	for _, c := range []struct {
		name string
		tag  byte
	}{{"BODY", wire.TagString}, {"HEAD", wire.TagString}, {"SUPPORT", wire.TagFloat}, {"CONFIDENCE", wire.TagFloat}} {
		b.PutString(c.name)
		b.B = append(b.B, c.tag)
	}
	if err := sess.send(wire.MsgRowDesc, b.B); err != nil {
		return err
	}
	for _, r := range rules {
		var rb wire.Builder
		rb.PutU16(4)
		rb.PutValue(renderSide(r.Body))
		rb.PutValue(renderSide(r.Head))
		rb.PutValue(r.Support)
		rb.PutValue(r.Confidence)
		if err := sess.send(wire.MsgRuleRow, rb.B); err != nil {
			return err
		}
	}
	return sess.sendComplete(fmt.Sprintf("MINE %d", len(rules)), len(rules))
}

// renderSide renders one rule side like the paper's Figure 2.b rows.
func renderSide(els [][]string) string {
	parts := make([]string, len(els))
	for i, t := range els {
		parts[i] = strings.Join(t, "/")
	}
	return "{" + strings.Join(parts, ", ") + "}"
}

// explainMine renders the translator's programs for a MINE RULE
// statement without executing anything.
func (sess *session) explainMine(text string) error {
	ex, err := core.Explain(sess.srv.db, text)
	if err != nil {
		return sess.sendStatementError(err)
	}
	return sess.sendPlanRows(ex.Lines())
}

// sendPlanRows streams one-column text rows named QUERY PLAN.
func (sess *session) sendPlanRows(lines []string) error {
	var b wire.Builder
	b.PutU16(1)
	b.PutString("QUERY PLAN")
	b.B = append(b.B, wire.TagString)
	if err := sess.send(wire.MsgRowDesc, b.B); err != nil {
		return err
	}
	for _, l := range lines {
		var rb wire.Builder
		rb.PutU16(1)
		rb.PutValue(l)
		if err := sess.send(wire.MsgDataRow, rb.B); err != nil {
			return err
		}
	}
	return sess.sendComplete(fmt.Sprintf("EXPLAIN %d", len(lines)), len(lines))
}

func (sess *session) sendRowDesc(s *schema.Schema) error {
	var b wire.Builder
	b.PutU16(uint16(s.Len()))
	for i := 0; i < s.Len(); i++ {
		col := s.Col(i)
		b.PutString(col.Name)
		b.B = append(b.B, wireTag(col.Type))
	}
	return sess.send(wire.MsgRowDesc, b.B)
}

func (sess *session) sendRow(typ byte, row schema.Row) error {
	var b wire.Builder
	b.PutU16(uint16(len(row)))
	for _, v := range row {
		b.PutValue(wireValue(v))
	}
	return sess.send(typ, b.B)
}

func (sess *session) sendComplete(tag string, rows int) error {
	var b wire.Builder
	b.PutString(tag)
	b.PutU64(uint64(rows))
	return sess.send(wire.MsgComplete, b.B)
}

// sendStatementError maps a statement failure onto its typed wire code
// and keeps the session alive; only a write failure propagates.
func (sess *session) sendStatementError(err error) error {
	sess.srv.met.SrvRequestErrors.Inc()
	return sess.sendError(errorCode(err), err.Error())
}

func (sess *session) sendError(code, msg string) error {
	var b wire.Builder
	b.PutString(code)
	b.PutString(msg)
	return sess.send(wire.MsgError, b.B)
}

// send writes one frame. Row frames stay in the buffer, which writes
// through to the connection whenever it fills, so a long result streams
// at one write per buffer rather than per row; every other frame ends a
// response (AuthOK, Prepared, Complete, Error) and flushes, so the whole
// answer reaches the client before the session blocks on the next
// request.
func (sess *session) send(typ byte, payload []byte) error {
	if err := wire.WriteFrame(sess.bw, typ, payload); err != nil {
		return err
	}
	switch typ {
	case wire.MsgRowDesc, wire.MsgDataRow, wire.MsgRuleRow:
		return nil
	}
	return sess.bw.Flush()
}

// wireTag maps an engine column type to its wire value tag.
func wireTag(t value.Type) byte {
	switch t {
	case value.TypeInt:
		return wire.TagInt
	case value.TypeFloat:
		return wire.TagFloat
	case value.TypeBool:
		return wire.TagBool
	case value.TypeDate:
		return wire.TagDate
	default:
		return wire.TagString
	}
}

// wireValue converts an engine value into its wire representation.
func wireValue(v value.Value) interface{} {
	switch v.Type() {
	case value.TypeNull:
		return nil
	case value.TypeInt:
		return v.Int()
	case value.TypeFloat:
		return v.Float()
	case value.TypeBool:
		return v.Bool()
	case value.TypeString:
		return v.Str()
	case value.TypeDate:
		return v.Time()
	default:
		return v.String()
	}
}

// errorCode classifies a statement failure for the wire, mirroring the
// engine's typed taxonomy.
func errorCode(err error) string {
	var ie *resource.InternalError
	switch {
	case errors.Is(err, resource.ErrCanceled):
		return wire.CodeCanceled
	case errors.Is(err, resource.ErrBudgetExceeded):
		return wire.CodeBudget
	case errors.Is(err, resource.ErrDegraded):
		return wire.CodeDegraded
	case errors.Is(err, resource.ErrCorruptPage):
		return wire.CodeCorrupt
	case errors.Is(err, resource.ErrIO):
		return wire.CodeIO
	case errors.As(err, &ie):
		return wire.CodeInternal
	default:
		return wire.CodeInvalid
	}
}
