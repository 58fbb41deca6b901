// Package minerule is a tightly-coupled data mining system: an embedded
// SQL92-subset relational engine with the MINE RULE operator of Meo,
// Psaila and Ceri integrated on top, reproducing the architecture of
// "A Tightly-Coupled Architecture for Data Mining" (ICDE 1998).
//
// A System is a database plus the mining kernel. Load data with SQL or
// CSV, then evaluate MINE RULE statements; results are stored back into
// the database as ordinary tables and also returned decoded:
//
//	sys, _ := minerule.Open()
//	sys.ExecScript(`CREATE TABLE Purchase (...); INSERT INTO Purchase VALUES (...);`)
//	res, err := sys.Mine(`
//	    MINE RULE FrequentSets AS
//	    SELECT DISTINCT 1..n item AS BODY, 1..1 item AS HEAD, SUPPORT, CONFIDENCE
//	    FROM Purchase
//	    GROUP BY cust
//	    EXTRACTING RULES WITH SUPPORT: 0.1, CONFIDENCE: 0.5`)
//	for _, r := range res.Rules { fmt.Println(r) }
//
// The kernel follows the paper exactly: a translator classifies the
// statement (H, W, M, G, C, K, F, R) and emits SQL translation programs;
// the preprocessor runs them on the engine, producing encoded tables;
// the core operator (a pool of itemset algorithms for simple rules, the
// m×n rule lattice for general rules) mines the encoded data; the
// postprocessor decodes the result into <name>, <name>_Bodies and
// <name>_Heads tables.
package minerule

import (
	"context"
	"fmt"
	"io"
	"net"
	"strings"
	"time"

	"minerule/internal/core"
	"minerule/internal/obsv"
	"minerule/internal/resource"
	"minerule/internal/server"
	"minerule/internal/sql/engine"
)

// Limits bounds the resources one Mine, Exec or Query call may consume:
// MaxRows caps the rows any one SQL statement materializes, MaxCandidates
// caps the mining candidate count, MaxRuntime deadline-bounds a Mine
// call, and MaxPageIO caps the WAL pages of each commit frame (one per
// autocommit statement, explicit transaction, CSV import, or mine
// output) on systems opened with WithStorage.
// The zero value is unbounded.
type Limits = resource.Limits

// Error taxonomy. A failed call wraps exactly one of these sentinels (or
// is an *InternalError), so callers can dispatch with errors.Is:
//
//   - ErrCanceled — the context was canceled or a deadline (including
//     Limits.MaxRuntime) expired;
//   - ErrBudgetExceeded — a Limits bound tripped (errors.As to
//     *resource.BudgetError tells which);
//   - ErrIO — a durable-storage operation failed (errors.As to *IOError
//     names the operation and the OS error);
//   - ErrDegraded — the durable store lost its durability guarantee (a
//     failed WAL fsync, an unrepairable torn append) and is read-only
//     until reopened; matches ErrIO too via the wrapped cause;
//   - ErrCorruptPage — a heap page failed its CRC-32C at read time
//     (bit-rot, torn write, or a lost write); matches ErrIO too;
//   - *InternalError — a panic inside the kernel was contained at the
//     recover boundary and converted to an error.
var (
	ErrCanceled       = resource.ErrCanceled
	ErrBudgetExceeded = resource.ErrBudgetExceeded
	ErrIO             = resource.ErrIO
	ErrDegraded       = resource.ErrDegraded
	ErrCorruptPage    = resource.ErrCorruptPage
)

// InternalError is a contained kernel panic: Op names the boundary that
// recovered it, Recovered holds the panic value and Stack the goroutine
// stack at recovery.
type InternalError = resource.InternalError

// IOError is a failed durable-storage operation (WAL append or fsync,
// heap page I/O, checkpoint swap); it matches ErrIO and unwraps to the
// OS error.
type IOError = resource.IOError

// DegradedError is the sticky error of a store whose durability is
// gone; it matches ErrDegraded and unwraps to the poisoning IOError.
type DegradedError = resource.DegradedError

// System is one embedded database with the mining kernel attached.
// It is safe for concurrent use: the engine serializes statement
// execution internally, so goroutines (and network sessions, see
// Serve) interleave at statement granularity, each under its own
// context and limits.
type System struct {
	db *engine.Database
}

// OpenOption configures Open.
type OpenOption func(*openConfig)

type openConfig struct {
	dir       string
	poolPages int
}

// WithStorage backs the system with the durable storage subsystem rooted
// at dir: every mutation reaches a write-ahead log before it applies,
// checkpoints bound recovery time, and a crash at any moment — even mid
// log record — recovers to a consistent catalog on the next Open. An
// empty dir (or omitting the option) keeps the default in-memory system.
func WithStorage(dir string) OpenOption {
	return func(c *openConfig) { c.dir = dir }
}

// WithBufferPool sizes the durable subsystem's page buffer pool (in
// 4 KiB pages; <= 0 means the default of 256). Only meaningful together
// with WithStorage.
func WithBufferPool(pages int) OpenOption {
	return func(c *openConfig) { c.poolPages = pages }
}

// Open creates a system: in-memory by default, durably backed when
// WithStorage is given (creating the directory on first open and
// recovering from the log on later ones).
func Open(opts ...OpenOption) (*System, error) {
	var c openConfig
	for _, o := range opts {
		o(&c)
	}
	if c.dir == "" {
		return &System{db: engine.New()}, nil
	}
	db, err := engine.Open(c.dir, c.poolPages)
	if err != nil {
		return nil, fmt.Errorf("minerule: open %s: %w", c.dir, err)
	}
	return &System{db: db}, nil
}

// Close releases the durable backend's files after a final group fsync;
// it is a no-op on in-memory systems. The directory reopens with
// recovery replaying anything after the last checkpoint.
func (s *System) Close() error { return s.db.Close() }

// Checkpoint snapshots the database to a fresh generation and restarts
// the log, bounding the next Open's recovery work. No-op in memory.
func (s *System) Checkpoint() error { return s.db.Checkpoint() }

// Durable reports whether the system was opened with WithStorage.
func (s *System) Durable() bool { return s.db.Durable() }

// StorageStats is a point-in-time snapshot of the durable subsystem's
// counters (all zero on an in-memory system).
type StorageStats struct {
	WalAppends      int64 // redo-log records appended
	WalBytes        int64 // redo-log bytes appended
	WalFsyncs       int64 // group commits (at most one per statement)
	PageReads       int64 // heap pages read from disk
	PageWrites      int64 // heap pages written to disk
	PoolHits        int64 // buffer-pool frame hits
	PoolMisses      int64 // buffer-pool frame misses
	PoolEvictions   int64 // frames evicted by the clock sweep
	Checkpoints     int64 // checkpoints taken
	RecoveryRecords int64 // records replayed by the last Open

	TornTailTruncations int64 // torn WAL tails dropped at recovery
	PageCRCErrors       int64 // heap pages failing their checksum
	IORetries           int64 // transient I/O faults retried
	EnospcVetoes        int64 // mutations vetoed cleanly on a full disk
	CheckpointFailures  int64 // checkpoints that failed and were discarded

	// Degraded reports that the store lost its durability guarantee and
	// is read-only until reopened; DegradedCause is the poisoning error
	// ("" while healthy).
	Degraded      bool
	DegradedCause string
}

// PoolHitRatio is hits/(hits+misses), or 0 before any page traffic.
func (st StorageStats) PoolHitRatio() float64 {
	total := st.PoolHits + st.PoolMisses
	if total == 0 {
		return 0
	}
	return float64(st.PoolHits) / float64(total)
}

// StorageStats reads the durable subsystem's counters (also exported in
// Prometheus form by WriteMetrics).
func (s *System) StorageStats() StorageStats {
	m := s.db.Metrics()
	st := StorageStats{
		WalAppends:      m.WalAppends.Load(),
		WalBytes:        m.WalBytes.Load(),
		WalFsyncs:       m.WalFsyncs.Load(),
		PageReads:       m.PageReads.Load(),
		PageWrites:      m.PageWrites.Load(),
		PoolHits:        m.PoolHits.Load(),
		PoolMisses:      m.PoolMisses.Load(),
		PoolEvictions:   m.PoolEvictions.Load(),
		Checkpoints:     m.Checkpoints.Load(),
		RecoveryRecords: m.RecoveryRecords.Load(),

		TornTailTruncations: m.WalTornTruncations.Load(),
		PageCRCErrors:       m.PageCRCErrors.Load(),
		IORetries:           m.IORetries.Load(),
		EnospcVetoes:        m.EnospcVetoes.Load(),
		CheckpointFailures:  m.CheckpointFailures.Load(),
	}
	if err := s.db.DegradedErr(); err != nil {
		st.Degraded = true
		st.DegradedCause = err.Error()
	}
	return st
}

// DegradedErr returns the typed error (matching ErrDegraded) when the
// durable store has lost its durability guarantee and is read-only,
// nil while healthy or in-memory. Reopening the directory recovers the
// on-disk state and restores writability.
func (s *System) DegradedErr() error { return s.db.DegradedErr() }

// DB exposes the underlying engine for in-module tooling (the cmd/
// binaries and benchmarks); it is internal machinery, not API surface.
func (s *System) DB() *engine.Database { return s.db }

// SetLimits sets the engine-wide default bounds for every subsequent
// statement that does not carry its own limits (via ContextWithLimits,
// a Mine WithLimits option, or a network session's negotiated limits).
// The zero Limits removes all bounds. Safe to call concurrently with
// running statements: in-flight ones keep the bounds they started with.
func (s *System) SetLimits(l Limits) { s.db.SetLimits(l) }

// ContextWithLimits returns a context that carries per-call resource
// limits: any Exec, Query or Mine evaluated under the returned context
// is bounded by l instead of the engine-wide default, without touching
// shared state — the mechanism behind per-session limits on the network
// server, available to embedded callers too.
func ContextWithLimits(ctx context.Context, l Limits) context.Context {
	return resource.WithLimits(ctx, l)
}

// Exec runs one SQL statement (DDL, DML or query, discarding rows).
func (s *System) Exec(sql string) error {
	return s.ExecContext(context.Background(), sql)
}

// ExecContext is Exec under a cancellation context: execution aborts at
// the next operator row batch once ctx is done, failing with an error
// matching ErrCanceled.
func (s *System) ExecContext(ctx context.Context, sql string) error {
	_, err := s.db.ExecContext(ctx, sql)
	return err
}

// ExecScript runs a semicolon-separated SQL script.
func (s *System) ExecScript(sql string) error { return s.db.ExecScript(sql) }

// Table is a materialized query result in display form.
type Table struct {
	Columns []string
	Rows    [][]string
}

// Query runs a SELECT and returns its rows as strings (NULL renders as
// "NULL").
func (s *System) Query(sql string) (*Table, error) {
	return s.QueryContext(context.Background(), sql)
}

// QueryContext is Query under a cancellation context.
func (s *System) QueryContext(ctx context.Context, sql string) (*Table, error) {
	res, err := s.db.QueryContext(ctx, sql)
	if err != nil {
		return nil, err
	}
	t := &Table{Columns: make([]string, res.Schema.Len())}
	for i := 0; i < res.Schema.Len(); i++ {
		t.Columns[i] = res.Schema.Col(i).Name
	}
	for _, row := range res.Rows {
		out := make([]string, len(row))
		for i, v := range row {
			out[i] = v.String()
		}
		t.Rows = append(t.Rows, out)
	}
	return t, nil
}

// QueryInt runs a single-value query and returns it as an integer.
func (s *System) QueryInt(sql string) (int64, error) { return s.db.QueryInt(sql) }

// ImportCSV creates a table from CSV data; header entries are
// "name:type" with type one of int, float, string, date, bool.
func (s *System) ImportCSV(table string, header []string, r io.Reader) (int, error) {
	return s.db.ImportCSV(table, header, r)
}

// ExportCSV writes a query result as CSV.
func (s *System) ExportCSV(w io.Writer, sql string) error { return s.db.ExportCSV(w, sql) }

// WriteMetrics writes the system's always-on counters — statement,
// cache, row and mining totals plus per-phase wall time — in Prometheus
// text exposition format (the same body cmd/minerule-web serves on
// /metrics).
func (s *System) WriteMetrics(w io.Writer) error {
	return s.db.Metrics().WritePrometheus(w)
}

// ExplainSQL runs a SELECT with executor tracing and returns the
// decision log (scan sources, join strategies, index use, filter
// selectivities) — EXPLAIN ANALYZE for the embedded engine.
func (s *System) ExplainSQL(sql string) (string, error) { return s.db.ExplainSQL(sql) }

// ServerConfig tunes the network server: connection cap, startup
// credential, default/session-cap resource limits and drain timeout.
// The zero value serves open (no auth) with the default connection cap
// and unbounded sessions.
type ServerConfig = server.Config

// Serve exposes the system over the minerule wire protocol on addr
// until ctx is done, then drains gracefully. Remote clients connect
// with the native database/sql driver (import _ "minerule/driver";
// sql.Open("minerule", "tcp://addr")) or any protocol implementation.
// Serving shares the engine with embedded callers: statements from
// sessions and in-process calls interleave safely.
func (s *System) Serve(ctx context.Context, addr string, cfg ServerConfig) error {
	return server.New(s.db, cfg).ListenAndServe(ctx, addr)
}

// ServeListener is Serve over an existing listener (tests, socket
// activation). The server owns ln and closes it on return.
func (s *System) ServeListener(ctx context.Context, ln net.Listener, cfg ServerConfig) error {
	return server.New(s.db, cfg).Serve(ctx, ln)
}

// Format renders a query result as an aligned text table.
func (s *System) Format(sql string) (string, error) {
	res, err := s.db.Query(sql)
	if err != nil {
		return "", err
	}
	return engine.FormatResult(res), nil
}

// Algorithm selects a member of the simple-core algorithm pool.
type Algorithm string

// The pool (general statements always use the rule-lattice core).
const (
	Apriori Algorithm = Algorithm(core.AlgoApriori)
	Bitmap  Algorithm = Algorithm(core.AlgoBitmap)
)

// Option adjusts one Mine call.
type Option func(*core.Options)

// WithAlgorithm picks the simple-core pool member (default Bitmap;
// Apriori selects the gid-list levelwise miner). A name outside the
// pool fails the Mine call before it touches the catalog.
func WithAlgorithm(a Algorithm) Option {
	return func(o *core.Options) { o.Algorithm = core.Algorithm(a) }
}

// WithReplaceOutput overwrites existing output tables of the same name.
func WithReplaceOutput() Option {
	return func(o *core.Options) { o.ReplaceOutput = true }
}

// WithKeepEncoded keeps the encoded working tables after the run, so
// repeated statements over the same source can share preprocessing
// state for inspection (paper §3). It also records the metadata
// WithReuseEncoded relies on.
func WithKeepEncoded() Option {
	return func(o *core.Options) { o.KeepEncoded = true }
}

// WithLimits bounds one Mine call (see Limits). A tripped bound fails
// the run with an error matching ErrBudgetExceeded or ErrCanceled, and
// the run's working and output tables are rolled back.
func WithLimits(l Limits) Option {
	return func(o *core.Options) { o.Limits = l }
}

// WithTrace records a span tree for the run on MiningResult.Stats.Trace:
// one node per kernel phase, with Q-steps and levelwise mining passes as
// children. Off by default; the always-on counters (see WriteMetrics)
// are unaffected.
func WithTrace() Option {
	return func(o *core.Options) { o.Trace = true }
}

// WithReuseEncoded skips the preprocessing phase when a previous
// WithKeepEncoded run of an equivalent statement (same shape, support
// no lower than before) left its encoded tables in the database. Reuse
// is refused, and the run preprocesses afresh, when a source table was
// written, dropped or re-created since, or when a source is a view.
func WithReuseEncoded() Option {
	return func(o *core.Options) { o.ReuseEncoded = true }
}

// Timings is the wall time of each kernel phase of a Mine call.
type Timings struct {
	Translate   time.Duration
	Preprocess  time.Duration
	Core        time.Duration
	Postprocess time.Duration
}

// Total sums the phases.
func (t Timings) Total() time.Duration {
	return t.Translate + t.Preprocess + t.Core + t.Postprocess
}

// Rule is one decoded association rule. Body and Head hold one value
// tuple per rule element (tuples have one entry per schema attribute,
// e.g. just the item name for single-attribute schemas).
type Rule struct {
	Body       [][]string
	Head       [][]string
	Support    float64
	Confidence float64
}

// String renders the rule like the paper's Figure 2.b rows.
func (r Rule) String() string {
	side := func(els [][]string) string {
		parts := make([]string, len(els))
		for i, t := range els {
			parts[i] = strings.Join(t, "/")
		}
		return "{" + strings.Join(parts, ", ") + "}"
	}
	return fmt.Sprintf("%s => %s (s=%.4g, c=%.4g)", side(r.Body), side(r.Head), r.Support, r.Confidence)
}

// PassStat describes one levelwise pass of the core algorithm: the
// itemset size mined, the candidates examined and the large survivors.
type PassStat struct {
	Level      int
	Candidates int
	Large      int
}

// TraceAttr is one key/value annotation on a TraceNode, in the order the
// kernel recorded it.
type TraceAttr struct {
	Key   string
	Value string
}

// TraceNode is one span of a traced Mine call: a named timed region with
// attributes and nested children (phases contain Q-steps and passes).
type TraceNode struct {
	Name     string
	Duration time.Duration
	Attrs    []TraceAttr
	Children []*TraceNode
}

// String renders the subtree as indented text, one line per node — the
// same form the minerule CLI's -trace flag prints.
func (n *TraceNode) String() string {
	if n == nil {
		return ""
	}
	var b strings.Builder
	n.render(&b, 0)
	return b.String()
}

func (n *TraceNode) render(b *strings.Builder, depth int) {
	label := strings.Repeat("  ", depth) + n.Name
	dur := ""
	if n.Duration > 0 {
		dur = n.Duration.Round(time.Microsecond).String()
	}
	attrs := ""
	for _, a := range n.Attrs {
		attrs += " " + a.Key + "=" + a.Value
	}
	fmt.Fprintf(b, "%-32s %-10s%s\n", label, dur, attrs)
	for _, c := range n.Children {
		c.render(b, depth+1)
	}
}

func traceNode(sp *obsv.Span) *TraceNode {
	if sp == nil {
		return nil
	}
	n := &TraceNode{Name: sp.Name, Duration: sp.Duration}
	for _, a := range sp.Attrs {
		v := a.Str
		if v == "" {
			v = fmt.Sprintf("%d", a.Int)
		}
		n.Attrs = append(n.Attrs, TraceAttr{Key: a.Key, Value: v})
	}
	for _, c := range sp.Children {
		n.Children = append(n.Children, traceNode(c))
	}
	return n
}

// Stats describes how the core phase of a Mine call executed.
type Stats struct {
	// Candidates counts the candidate itemsets/rules the core examined.
	Candidates int64
	// Passes breaks the levelwise algorithms down per pass (empty for
	// non-levelwise cores such as the rule lattice).
	Passes []PassStat
	// Workers is the widest worker-pool fan-out the mining used
	// (0 = the run stayed sequential).
	Workers int
	// Trace is the span tree of the whole run when WithTrace was given,
	// nil otherwise.
	Trace *TraceNode
}

// MiningResult reports one evaluated MINE RULE statement.
type MiningResult struct {
	// OutputTable, BodiesTable, HeadsTable name the stored result
	// relations inside the system's database.
	OutputTable string
	BodiesTable string
	HeadsTable  string

	// Class is the translator's classification, e.g. "{W,M,C,K}".
	Class string
	// Simple reports whether the simple core processing ran.
	Simple bool
	// Algorithm is the core algorithm that ran.
	Algorithm string

	RuleCount   int
	TotalGroups int
	MinGroups   int
	// Reused reports that preprocessing was skipped via WithReuseEncoded.
	Reused  bool
	Timings Timings
	// Stats is the core-phase execution detail (always filled; its Trace
	// is non-nil only under WithTrace).
	Stats Stats

	// Rules is the decoded result (ordered as stored).
	Rules []Rule
}

// Explanation shows what a MINE RULE statement would do: its
// classification and the SQL translation programs the kernel generates,
// without executing anything.
type Explanation struct {
	// Class is the translator classification, e.g. "{W,M,C,K}".
	Class string
	// Simple reports which core-processing class would run.
	Simple bool
	// Steps are the preprocessing SQL statements in execution order,
	// labelled with the paper's query names ("Q0" … "Q7", "output",
	// then "Q8", whose SELECT streams its rows into the core and ends in
	// a comment saying so).
	Steps []ExplainStep
	// TotalGroupsQuery is the paper's Q1. Without a group condition it
	// ends in a comment saying Q1 is folded into Q2: totg is then the
	// number of rows inserted into ValidGroups and Q1 is not run.
	TotalGroupsQuery string
	// Decode are the postprocessor's SQL statements.
	Decode []string
	// Lines is the explanation as EXPLAIN MINE RULE prints it, one line
	// each: the same lines the CLI, the web UI and a server session show.
	Lines []string
}

// ExplainStep is one named preprocessing statement.
type ExplainStep struct {
	Name string
	SQL  string
}

// Explain translates a MINE RULE statement against the current catalog
// and returns the generated SQL programs, without running them.
func (s *System) Explain(statement string) (*Explanation, error) {
	ex, err := core.Explain(s.db, statement)
	if err != nil {
		return nil, err
	}
	out := &Explanation{
		Class:            ex.Class.String(),
		Simple:           ex.Simple,
		TotalGroupsQuery: ex.Q1,
		Decode:           ex.Decode,
		Lines:            ex.Lines(),
	}
	for _, st := range ex.Steps {
		out.Steps = append(out.Steps, ExplainStep{Name: st.Name, SQL: st.SQL})
	}
	return out, nil
}

// Mine evaluates a MINE RULE statement. The output tables are stored in
// the system's database and the decoded rules returned.
func (s *System) Mine(statement string, opts ...Option) (*MiningResult, error) {
	return s.MineContext(context.Background(), statement, opts...)
}

// MineContext is Mine under a cancellation context: the deadline or
// cancellation is observed between kernel phases, between preprocessing
// Q-steps, inside SQL execution and between mining passes. A canceled
// run fails with an error matching ErrCanceled and rolls back its
// working and output tables, leaving the catalog as it was before.
func (s *System) MineContext(ctx context.Context, statement string, opts ...Option) (*MiningResult, error) {
	var co core.Options
	for _, o := range opts {
		o(&co)
	}
	res, err := core.MineContext(ctx, s.db, statement, co)
	if err != nil {
		return nil, err
	}
	out := &MiningResult{
		OutputTable: res.OutputTable,
		BodiesTable: res.BodiesTable,
		HeadsTable:  res.HeadsTable,
		Class:       res.Class.String(),
		Simple:      res.Class.Simple(),
		Algorithm:   res.Algorithm,
		RuleCount:   res.RuleCount,
		TotalGroups: res.TotalGroups,
		MinGroups:   res.MinGroups,
		Reused:      res.Reused,
		Timings: Timings{
			Translate:   res.Timings.Translate,
			Preprocess:  res.Timings.Preprocess,
			Core:        res.Timings.Core,
			Postprocess: res.Timings.Postprocess,
		},
		Stats: Stats{
			Candidates: res.Candidates,
			Workers:    res.Workers,
			Trace:      traceNode(res.Trace),
		},
	}
	for _, p := range res.Passes {
		out.Stats.Passes = append(out.Stats.Passes, PassStat{Level: p.Level, Candidates: p.Candidates, Large: p.Large})
	}
	decoded, err := core.ReadRules(s.db, res)
	if err != nil {
		return nil, err
	}
	for _, d := range decoded {
		out.Rules = append(out.Rules, Rule{
			Body:       d.Body,
			Head:       d.Head,
			Support:    d.Support,
			Confidence: d.Confidence,
		})
	}
	return out, nil
}
