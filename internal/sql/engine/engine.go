// Package engine exposes the embedded relational server: a Database that
// accepts SQL text, maintains the catalog (the paper's DBMS + Data
// Dictionary box in Figure 3), and imports/exports CSV. It is the only
// surface the mining kernel talks to, which is exactly the paper's
// portability requirement — everything the kernel asks for is SQL.
package engine

import (
	"context"
	"encoding/csv"
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"minerule/internal/obsv"
	"minerule/internal/resource"
	"minerule/internal/sql/exec"
	"minerule/internal/sql/lex"
	"minerule/internal/sql/schema"
	"minerule/internal/sql/semck"
	"minerule/internal/sql/storage"
	"minerule/internal/sql/txn"
	"minerule/internal/sql/value"
	"minerule/internal/sql/vfs"
)

// Database is an embedded in-memory SQL92-subset database. It is safe
// for concurrent use: every statement runs inside a transaction — the
// session's explicit one, or an ephemeral autocommit transaction — so
// reads execute lock-free against a consistent snapshot while writers
// proceed under per-table locks; statements from different connections
// run genuinely concurrently. Each statement resolves its resource
// bounds at start — a context-carried resource.WithLimits value
// overrides the engine-wide default — so concurrent sessions can run
// under different budgets without touching shared state.
type Database struct {
	cat *storage.Catalog
	// mgr is the transaction manager: snapshot registry, lock manager,
	// and commit path. Set once at construction (after recovery on
	// durable databases), immutable afterwards.
	mgr *txn.Manager
	// def is the default connection behind the Database-level Exec
	// surface; sessions wanting their own transaction scope call Conn().
	def *Conn
	// rtPool recycles executor runtimes: one is taken per statement, so
	// concurrent statements never share bind-time state, and a pooled
	// runtime keeps its view-plan and join-order caches warm.
	rtPool sync.Pool
	// defLimits is the engine-wide default statement bounds, replaced
	// atomically by SetLimits so configuring limits never races running
	// statements (which copy it at statement start).
	defLimits atomic.Pointer[resource.Limits]
	// cache is the prepared-program cache: each distinct statement text
	// parses once and re-executes from its AST (see stmtcache.go).
	cache stmtCache
	// met is the always-on counter registry (statement, cache, and row
	// stats); atomic adds only, so keeping it on costs no allocation.
	met *obsv.Metrics
	// hook, when set, runs before every statement with its SQL text;
	// returning an error aborts the statement. Test-only fault injection
	// — see internal/fault.
	hook atomic.Pointer[func(sql string) error]
	// store is the durable backend (WAL + checkpoints); nil on in-memory
	// databases, which is the default.
	store *store
}

// newDatabase builds the catalog, metrics, and pools common to the
// in-memory and durable constructors. The transaction manager is
// attached by the caller — on durable databases it must come after
// recovery, because attaching it turns on catalog history.
func newDatabase() *Database {
	cat := storage.NewCatalog()
	met := &obsv.Metrics{}
	db := &Database{cat: cat, met: met}
	db.def = &Conn{db: db}
	db.rtPool.New = func() any { return &exec.Runtime{Met: met} }
	return db
}

// New returns an empty database.
func New() *Database {
	db := newDatabase()
	db.mgr = txn.NewManager(db.cat, nil, db.met, 0)
	return db
}

// Open returns a database durably backed by the given directory,
// creating it when empty and otherwise recovering: the last checkpoint
// generation is loaded and the write-ahead log replayed over it, so any
// crash-time prefix of the log yields a consistent catalog. poolPages
// sizes the buffer pool (<= 0 means the default).
func Open(dir string, poolPages int) (*Database, error) {
	return OpenFS(vfs.OS, dir, poolPages)
}

// OpenFS is Open over an explicit filesystem — the seam fault-injection
// tests use to run the full storage stack against a vfs.FaultFS. The
// transaction manager attaches only after recovery completes: replay
// applies the log with catalog history off, so it never pays for
// version retention no live snapshot could need.
func OpenFS(fsys vfs.FS, dir string, poolPages int) (*Database, error) {
	db := newDatabase()
	st, err := openStore(fsys, dir, poolPages, db.cat, db.met)
	if err != nil {
		return nil, err
	}
	db.store = st
	db.mgr = txn.NewManager(db.cat, st, db.met, 0)
	return db, nil
}

// Durable reports whether the database is backed by a storage directory.
func (db *Database) Durable() bool { return db.store != nil }

// DegradedErr returns the typed *resource.DegradedError when the store
// has lost its durability guarantee (a failed WAL fsync or an
// unrepairable append), nil while it is healthy or in-memory. A
// degraded database still answers queries; every mutation fails with
// this same error until the directory is closed and reopened.
func (db *Database) DegradedErr() error {
	if db.store == nil {
		return nil
	}
	return db.store.degradedErr()
}

// TxnManager exposes the transaction manager (tests and the network
// session layer's diagnostics).
func (db *Database) TxnManager() *txn.Manager { return db.mgr }

// Close releases the durable backend's files after a final group fsync.
// It does not checkpoint — reopening replays the log — and is a no-op
// on in-memory databases.
func (db *Database) Close() error {
	if db.store == nil {
		return nil
	}
	db.cat.SetJournal(nil)
	return db.store.close()
}

// Checkpoint forces a checkpoint: the catalog is snapshotted to a new
// generation and the log restarted, bounding the next open's replay
// work. No-op on in-memory databases.
func (db *Database) Checkpoint() error {
	if db.store == nil {
		return nil
	}
	return db.store.checkpoint()
}

// Metrics exposes the engine's counter registry (never nil). Callers
// export it with obsv.Metrics.WritePrometheus.
func (db *Database) Metrics() *obsv.Metrics { return db.met }

// Catalog exposes the data dictionary (read-mostly; used by the
// translator for semantic checks).
func (db *Database) Catalog() *storage.Catalog { return db.cat }

// SetLimits replaces the engine-wide default statement bounds; the zero
// Limits removes all bounds. Statements already running keep the bounds
// they started with — the default is copied at statement start, so
// SetLimits never races execution. A context carrying
// resource.WithLimits overrides the default for its own statements.
func (db *Database) SetLimits(l resource.Limits) { db.defLimits.Store(&l) }

// Limits returns the engine-wide default execution bounds.
func (db *Database) Limits() resource.Limits {
	if p := db.defLimits.Load(); p != nil {
		return *p
	}
	return resource.Limits{}
}

// effLimits resolves the bounds for one statement: a context-carried
// override (resource.WithLimits) wins over the engine-wide default.
func (db *Database) effLimits(ctx context.Context) resource.Limits {
	if l, ok := resource.LimitsFrom(ctx); ok {
		return l
	}
	return db.Limits()
}

// SetExecHook installs (or, with nil, removes) a pre-statement hook used
// by fault-injection tests; the hook receives each statement's SQL text
// before execution and may abort it by returning an error.
func (db *Database) SetExecHook(hook func(sql string) error) {
	if hook == nil {
		db.hook.Store(nil)
		return
	}
	db.hook.Store(&hook)
}

// Exec parses and executes one SQL statement on the database's default
// connection (sessions needing their own transaction scope use Conn).
func (db *Database) Exec(sql string) (*exec.Result, error) {
	return db.def.Exec(sql)
}

// ExecContext parses and executes one SQL statement under a cancellation
// context. Execution is bounded by the database Limits and guarded by
// the executor's panic-containment boundary.
func (db *Database) ExecContext(ctx context.Context, sql string) (*exec.Result, error) {
	return db.def.ExecContext(ctx, sql)
}

// ExecScript executes a semicolon-separated sequence of statements,
// stopping at the first error.
func (db *Database) ExecScript(sql string) error {
	return db.ExecScriptContext(context.Background(), sql)
}

// ExecScriptContext is ExecScript under a cancellation context, checked
// before (and during) every statement. The script was semantically
// checked as a unit (DDL effects threaded through an overlay), so the
// per-statement verdict cache is bypassed.
func (db *Database) ExecScriptContext(ctx context.Context, sql string) error {
	return db.def.ExecScriptContext(ctx, sql)
}

// Query executes a SELECT and returns its result.
func (db *Database) Query(sql string) (*exec.Result, error) {
	return db.QueryContext(context.Background(), sql)
}

// QueryContext executes a SELECT under a cancellation context.
func (db *Database) QueryContext(ctx context.Context, sql string) (*exec.Result, error) {
	res, err := db.ExecContext(ctx, sql)
	if err != nil {
		return nil, err
	}
	if res.Schema == nil {
		return nil, fmt.Errorf("engine: statement is not a query: %s", compact(sql))
	}
	return res, nil
}

// Prepare parses and semantically checks a statement or script without
// executing it, priming the prepared-program cache, and returns the
// number of ? parameters an execution must bind. The check runs
// against the live catalog; execution re-validates against its own
// transaction's snapshot. The network session layer uses Prepare to
// fail a bad statement eagerly, the way any remote database does.
func (db *Database) Prepare(sql string) (int, error) {
	if sts, _ := lex.Split(sql); len(sts) > 1 {
		_, params, err := db.prepareScript(sql)
		if err != nil {
			return 0, fmt.Errorf("engine: %w", err)
		}
		return params, nil
	}
	t0 := time.Now()
	p, err := db.parseStmt(sql)
	db.met.ParseNanos.Add(int64(time.Since(t0)))
	if err == nil {
		err = db.verdict(p, sql, semck.FromStorage(db.cat), db.cat.Version())
	}
	if err != nil {
		db.met.StmtErrors.Inc()
		return 0, fmt.Errorf("engine: %w\n  in: %s", err, compact(sql))
	}
	return p.params, nil
}

// ExplainSQL executes a query with executor tracing enabled and returns
// the decision log (scan sources, join strategies, index use, filter
// selectivities) followed by the result cardinality — an EXPLAIN
// ANALYZE for the embedded engine. args bind the query's ? parameters.
func (db *Database) ExplainSQL(sql string, args ...value.Value) (string, error) {
	return db.ExplainSQLContext(context.Background(), sql, args...)
}

// ExplainSQLContext is ExplainSQL under a cancellation context. The
// trace hook is installed on the statement's own pooled runtime, so
// concurrent sessions never observe each other's decision logs.
func (db *Database) ExplainSQLContext(ctx context.Context, sql string, args ...value.Value) (string, error) {
	t0 := time.Now()
	p, err := db.parseStmt(sql)
	db.met.ParseNanos.Add(int64(time.Since(t0)))
	if err == nil {
		err = checkArity(p.params, args)
	}
	if err != nil {
		db.met.StmtErrors.Inc()
		return "", fmt.Errorf("engine: %w\n  in: %s", err, compact(sql))
	}
	var lines []string
	res, err := db.def.execParsed(ctx, p.st, p, sql, sql, func(l string) { lines = append(lines, l) }, args)
	if err != nil {
		return "", err
	}
	if res.Schema == nil {
		return "", fmt.Errorf("engine: statement is not a query: %s", compact(sql))
	}
	var b strings.Builder
	for _, l := range lines {
		b.WriteString(l)
		b.WriteByte('\n')
	}
	fmt.Fprintf(&b, "result: %d row(s)\n", len(res.Rows))
	return b.String(), nil
}

// QueryInt runs a single-row single-column query and returns the integer
// result (the idiom behind the paper's "SELECT COUNT(*) INTO :totg").
func (db *Database) QueryInt(sql string) (int64, error) {
	return db.QueryIntContext(context.Background(), sql)
}

// QueryIntContext is QueryInt under a cancellation context.
func (db *Database) QueryIntContext(ctx context.Context, sql string) (int64, error) {
	res, err := db.QueryContext(ctx, sql)
	if err != nil {
		return 0, err
	}
	if len(res.Rows) != 1 || len(res.Rows[0]) != 1 {
		return 0, fmt.Errorf("engine: expected one value, got %d row(s): %s", len(res.Rows), compact(sql))
	}
	v := res.Rows[0][0]
	switch v.Type() {
	case value.TypeInt:
		return v.Int(), nil
	case value.TypeFloat:
		return int64(v.Float()), nil
	default:
		return 0, fmt.Errorf("engine: expected numeric value, got %s", v.Type())
	}
}

// posSuffix renders " (line L, column C)" when the executor tagged err
// with the source offset of the failing node (exec.PosError); offsets
// are relative to the statement or script text the engine prepared.
func posSuffix(err error, src string) string {
	var pe *exec.PosError
	if !errors.As(err, &pe) {
		return ""
	}
	line, col := lex.Position(src, pe.Off)
	return fmt.Sprintf(" (line %d, column %d)", line, col)
}

func compact(sql string) string {
	f := strings.Join(strings.Fields(sql), " ")
	if len(f) > 160 {
		f = f[:157] + "..."
	}
	return f
}

// ---------------------------------------------------------------------------
// CSV

// ImportCSV creates table name with the given typed header and loads all
// records from r. The header format is "col:type" per column, with type
// one of int, float, string, date, bool. Empty fields load as NULL.
func (db *Database) ImportCSV(name string, header []string, r io.Reader) (int, error) {
	return db.ImportCSVContext(context.Background(), name, header, r)
}

// ImportCSVContext is ImportCSV under a cancellation context. The
// import runs as one transaction on a private connection, bounded by
// the context's effective limits: the row batch becomes visible
// atomically and shares one group fsync at commit. Table creation is
// DDL and therefore survives a failed load (as a created-then-empty
// table), matching how a CREATE TABLE + failed INSERT script behaves.
func (db *Database) ImportCSVContext(ctx context.Context, name string, header []string, r io.Reader) (int, error) {
	cr := csv.NewReader(r)
	cr.TrimLeadingSpace = true
	cols := make([]schema.Column, len(header))
	for i, h := range header {
		parts := strings.SplitN(h, ":", 2)
		if len(parts) != 2 {
			return 0, fmt.Errorf("engine: header %q must be name:type", h)
		}
		t, err := typeFromName(parts[1])
		if err != nil {
			return 0, err
		}
		cols[i] = schema.Column{Name: parts[0], Type: t}
	}
	// A private connection opened inside tx: AppendRows joins tx, and
	// Close rolls the load back and releases tx unless it committed.
	tx := db.mgr.Begin()
	c := &Conn{db: db, tx: tx}
	defer c.Close()
	if _, err := tx.CreateTable(ctx, name, schema.New(name, cols...)); err != nil {
		return 0, err
	}
	var rows []schema.Row
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return 0, fmt.Errorf("engine: csv: %w", err)
		}
		if len(rec) != len(cols) {
			return 0, fmt.Errorf("engine: csv record has %d fields, want %d", len(rec), len(cols))
		}
		row := make(schema.Row, len(cols))
		for i, f := range rec {
			v, err := parseField(f, cols[i].Type)
			if err != nil {
				return 0, fmt.Errorf("engine: csv field %q: %w", f, err)
			}
			row[i] = v
		}
		rows = append(rows, row)
	}
	if err := c.AppendRows(ctx, name, rows); err != nil {
		return 0, err
	}
	if err := tx.Commit(ctx); err != nil {
		return 0, fmt.Errorf("engine: %w", err)
	}
	return len(rows), nil
}

// ExportCSV writes a query result as CSV with a plain column-name header.
func (db *Database) ExportCSV(w io.Writer, sql string) error {
	res, err := db.Query(sql)
	if err != nil {
		return err
	}
	cw := csv.NewWriter(w)
	header := make([]string, res.Schema.Len())
	for i := 0; i < res.Schema.Len(); i++ {
		header[i] = res.Schema.Col(i).Name
	}
	if err := cw.Write(header); err != nil {
		return err
	}
	rec := make([]string, res.Schema.Len())
	for _, row := range res.Rows {
		for i, v := range row {
			if v.IsNull() {
				rec[i] = ""
			} else {
				rec[i] = v.String()
			}
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

func typeFromName(s string) (value.Type, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "int", "integer":
		return value.TypeInt, nil
	case "float", "real", "double":
		return value.TypeFloat, nil
	case "string", "varchar", "text":
		return value.TypeString, nil
	case "date":
		return value.TypeDate, nil
	case "bool", "boolean":
		return value.TypeBool, nil
	default:
		return value.TypeNull, fmt.Errorf("engine: unknown csv type %q", s)
	}
}

func parseField(f string, t value.Type) (value.Value, error) {
	if f == "" {
		return value.Null, nil
	}
	switch t {
	case value.TypeInt:
		i, err := strconv.ParseInt(f, 10, 64)
		if err != nil {
			return value.Null, err
		}
		return value.NewInt(i), nil
	case value.TypeFloat:
		fl, err := strconv.ParseFloat(f, 64)
		if err != nil {
			return value.Null, err
		}
		return value.NewFloat(fl), nil
	case value.TypeString:
		return value.NewString(f), nil
	case value.TypeDate:
		return value.ParseDate(f)
	case value.TypeBool:
		b, err := strconv.ParseBool(strings.ToLower(f))
		if err != nil {
			return value.Null, err
		}
		return value.NewBool(b), nil
	}
	return value.Null, fmt.Errorf("engine: unsupported type %s", t)
}

// FormatResult renders a result as an aligned text table for tooling.
func FormatResult(res *exec.Result) string {
	if res.Schema == nil {
		return fmt.Sprintf("%d row(s) affected\n", res.RowsAffected)
	}
	n := res.Schema.Len()
	widths := make([]int, n)
	header := make([]string, n)
	for i := 0; i < n; i++ {
		header[i] = res.Schema.Col(i).Name
		widths[i] = len(header[i])
	}
	cells := make([][]string, len(res.Rows))
	for r, row := range res.Rows {
		cells[r] = make([]string, n)
		for i, v := range row {
			s := v.String()
			cells[r][i] = s
			if len(s) > widths[i] {
				widths[i] = len(s)
			}
		}
	}
	var b strings.Builder
	writeRow := func(vals []string) {
		for i, s := range vals {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(s)
			b.WriteString(strings.Repeat(" ", widths[i]-len(s)))
		}
		b.WriteByte('\n')
	}
	writeRow(header)
	sep := make([]string, n)
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range cells {
		writeRow(row)
	}
	fmt.Fprintf(&b, "(%d rows)\n", len(res.Rows))
	return b.String()
}
