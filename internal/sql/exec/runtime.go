package exec

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"

	"minerule/internal/obsv"
	"minerule/internal/resource"
	"minerule/internal/sql/parse"
	"minerule/internal/sql/schema"
	"minerule/internal/sql/storage"
	"minerule/internal/sql/value"
)

// Runtime executes parsed statements inside a transaction. The zero
// value is ready once Txn is set.
type Runtime struct {
	// Txn is the statement's window onto the database: name resolution,
	// row visibility, mutations, and DDL all flow through it. The engine
	// installs the statement's transaction here; ExecContext refuses to
	// run without one.
	Txn TxnView
	// Trace, when non-nil, receives one line per executor decision
	// (scan source, join strategy, index use, …) — the engine's
	// EXPLAIN ANALYZE facility.
	Trace func(string)
	// Met, when non-nil, receives always-on engine counters (view-plan
	// cache hits, rows scanned); atomic adds, never allocating.
	Met *obsv.Metrics
	// Limits bounds the rows any single statement may materialize;
	// exceeding it fails with a *resource.BudgetError.
	Limits resource.Limits
	// Args are the statement's bound ? arguments: a parse.Param with
	// ordinal N reads Args[N-1]. The engine sets them per execution,
	// after checking there is one per parameter, so the cached AST
	// itself never carries a value.
	Args []value.Value
	// env is the enclosing-subquery environment of the query currently
	// executing (nil at top level); managed by execSelectEnv.
	env *outerRef

	// ctx is the statement's cancellation context; rows and ops track
	// the materialized-row budget and the down-sampled context polling.
	ctx  context.Context
	rows int
	ops  int

	// plan is the operator span currently being built (nil unless an
	// EXPLAIN or a span collector is active). Operators push themselves
	// as children, so the finished tree mirrors the resolved plan; with
	// plan nil every pushOp/popOp is a pointer-comparison no-op.
	plan *obsv.Span

	// viewPlans caches re-parsed view bodies, keyed by view name. An
	// entry is valid only while the catalog version and view text it was
	// built under still match — any DDL invalidates it, so a cached plan
	// can never read a stale dictionary. No lock: the runtime is
	// single-threaded by contract (see execSelectEnv).
	viewPlans map[string]viewPlan

	// fromPlans caches cost-based FROM-list join orders per SELECT node
	// (statement-cache pointers are stable); entries are valid only
	// while catalog version and stats epoch both still match.
	fromPlans map[*parse.Select]fromPlan
}

// viewPlan is one cached view resolution.
type viewPlan struct {
	version uint64 // catalog version the plan was built under
	text    string // view text the plan was parsed from
	sel     *parse.Select
}

// pollEvery is how many charged operations pass between context polls;
// checking ctx.Err on every row would dominate tight scan loops.
const pollEvery = 1024

// charge accounts n materialized rows against the statement budget and
// polls the context every pollEvery operations.
func (rt *Runtime) charge(n int) error {
	rt.rows += n
	if rt.Limits.MaxRows > 0 && rt.rows > rt.Limits.MaxRows {
		return &resource.BudgetError{Resource: "rows", Limit: rt.Limits.MaxRows}
	}
	rt.ops += n
	if rt.ops >= pollEvery {
		rt.ops = 0
		return resource.Check(rt.ctx)
	}
	return nil
}

// poll checks the statement context (down-sampled) without charging the
// row budget; used in loops that compare rather than materialize.
func (rt *Runtime) poll() error {
	rt.ops++
	if rt.ops >= pollEvery {
		rt.ops = 0
		return resource.Check(rt.ctx)
	}
	return nil
}

// ExecContext runs one parsed statement inside rt.Txn under a
// cancellation context and the runtime's Limits, with a
// panic-containment boundary: a bug below this point surfaces as a
// *resource.InternalError (or, for mistyped value accessors, the
// *value.TypeError itself) instead of crashing the process.
func (rt *Runtime) ExecContext(ctx context.Context, st parse.Statement) (res *Result, err error) {
	if rt.Txn == nil {
		return nil, errors.New("exec: runtime has no transaction")
	}
	prev := rt.ctx
	rt.ctx = ctx
	rt.rows, rt.ops = 0, 0
	defer func() {
		rt.ctx = prev
		if p := recover(); p != nil {
			res = nil
			if te, ok := p.(*value.TypeError); ok {
				err = fmt.Errorf("exec: %w", te)
				return
			}
			err = resource.NewInternalError("exec", p, debug.Stack())
		}
	}()
	if cerr := resource.Check(ctx); cerr != nil {
		return nil, cerr
	}
	return rt.exec(st)
}

// tracef emits one trace line when tracing is enabled.
func (rt *Runtime) tracef(format string, args ...interface{}) {
	if rt.Trace != nil {
		rt.Trace(fmt.Sprintf(format, args...))
	}
}

// pushOp opens an operator span as a child of the current plan node and
// makes it current; popOp finishes it and restores the parent. Both are
// no-ops (one pointer comparison, zero allocation) when no plan
// collector is installed.
func (rt *Runtime) pushOp(name string) (sp, parent *obsv.Span) {
	if rt.plan == nil {
		return nil, nil
	}
	parent = rt.plan
	sp = parent.StartChild(name)
	rt.plan = sp
	return sp, parent
}

func (rt *Runtime) popOp(sp, parent *obsv.Span) {
	if sp == nil {
		return
	}
	sp.Finish()
	rt.plan = parent
}

// CollectPlan executes a SELECT with the operator collector installed
// and returns the resolved operator tree alongside the result. It backs
// both the EXPLAIN statement and the kernel's -trace span view.
func (rt *Runtime) CollectPlan(s *parse.Select) (*obsv.Span, *Result, error) {
	root := obsv.NewSpan("query")
	prev := rt.plan
	rt.plan = root
	rel, err := rt.execSelect(s)
	rt.plan = prev
	root.Finish()
	if err != nil {
		return nil, nil, err
	}
	root.SetInt("rows", int64(len(rel.rows)))
	return root, &Result{Schema: rel.schema, Rows: rel.rows}, nil
}

// Result is the outcome of one statement. Schema and Rows are set for
// queries; RowsAffected for DML.
type Result struct {
	Schema       *schema.Schema
	Rows         []schema.Row
	RowsAffected int
}

// exec runs one parsed statement.
func (rt *Runtime) exec(st parse.Statement) (*Result, error) {
	switch x := st.(type) {
	case *parse.Select:
		rel, err := rt.execSelect(x)
		if err != nil {
			return nil, err
		}
		return &Result{Schema: rel.schema, Rows: rel.rows}, nil

	case *parse.Explain:
		return rt.execExplain(x)

	case *parse.CreateTable:
		cols := make([]schema.Column, len(x.Cols))
		for i, c := range x.Cols {
			cols[i] = schema.Column{Name: c.Name, Type: c.Type}
		}
		if _, err := rt.Txn.CreateTable(rt.ctx, x.Name, schema.New(x.Name, cols...)); err != nil {
			return nil, err
		}
		return &Result{}, nil

	case *parse.DropTable:
		if err := rt.Txn.DropTable(rt.ctx, x.Name); err != nil {
			return nil, err
		}
		return &Result{}, nil

	case *parse.CreateView:
		// The body was validated by semck before the statement ran;
		// creation only registers the text, which re-plans at every use.
		if err := rt.Txn.CreateView(x.Name, x.Query.SQL()); err != nil {
			return nil, err
		}
		return &Result{}, nil

	case *parse.DropView:
		if err := rt.Txn.DropView(x.Name); err != nil {
			return nil, err
		}
		return &Result{}, nil

	case *parse.CreateSequence:
		if _, err := rt.Txn.CreateSequence(x.Name); err != nil {
			return nil, err
		}
		return &Result{}, nil

	case *parse.DropSequence:
		if err := rt.Txn.DropSequence(x.Name); err != nil {
			return nil, err
		}
		return &Result{}, nil

	case *parse.CreateIndex:
		t, ok := rt.Txn.Table(x.Table)
		if !ok {
			return nil, fmt.Errorf("exec: unknown table %q in CREATE INDEX", x.Table)
		}
		col, err := t.Schema().Resolve("", x.Column)
		if err != nil {
			return nil, err
		}
		if _, err := rt.Txn.CreateIndex(rt.ctx, x.Name, x.Table, col); err != nil {
			return nil, err
		}
		return &Result{}, nil

	case *parse.DropIndex:
		if err := rt.Txn.DropIndex(rt.ctx, x.Name); err != nil {
			return nil, err
		}
		return &Result{}, nil

	case *parse.Insert:
		return rt.execInsert(x)

	case *parse.Delete:
		return rt.execDelete(x)

	case *parse.Update:
		return rt.execUpdate(x)
	}
	return nil, fmt.Errorf("exec: unsupported statement %T", st)
}

// execUpdate rewrites matching rows in place (assignments see the
// pre-update row values, per SQL).
func (rt *Runtime) execUpdate(x *parse.Update) (*Result, error) {
	t, ok, err := rt.Txn.ForWrite(rt.ctx, x.Table)
	if err != nil {
		return nil, err
	}
	if !ok {
		return nil, fmt.Errorf("exec: unknown table %q in UPDATE", x.Table)
	}
	b := rt.bind(t.Schema())
	type setOp struct {
		ord int
		fn  evalFunc
		col schema.Column
	}
	sets := make([]setOp, len(x.Set))
	for i, a := range x.Set {
		ord, err := t.Schema().Resolve("", a.Column)
		if err != nil {
			return nil, err
		}
		fn, err := b.compile(a.Value)
		if err != nil {
			return nil, err
		}
		sets[i] = setOp{ord: ord, fn: fn, col: t.Schema().Col(ord)}
	}
	var condFn evalFunc
	if x.Where != nil {
		fn, err := b.compile(x.Where)
		if err != nil {
			return nil, err
		}
		condFn = fn
	}
	old := rt.Txn.Rows(t)
	out := make([]schema.Row, 0, len(old))
	changed := 0
	for _, row := range old {
		if err := rt.poll(); err != nil {
			return nil, err
		}
		match := true
		if condFn != nil {
			v, err := condFn(row)
			if err != nil {
				return nil, err
			}
			tri, err := value.TristateFromValue(v)
			if err != nil {
				return nil, err
			}
			match = tri == value.True
		}
		if !match {
			out = append(out, row)
			continue
		}
		next := row.Clone()
		for _, s := range sets {
			v, err := s.fn(row)
			if err != nil {
				return nil, err
			}
			cv, err := coerceForColumn(v, s.col)
			if err != nil {
				return nil, fmt.Errorf("exec: UPDATE %s.%s: %w", x.Table, s.col.Name, err)
			}
			next[s.ord] = cv
		}
		out = append(out, next)
		changed++
	}
	if err := rt.Txn.ReplaceRows(t, out); err != nil {
		return nil, err
	}
	return &Result{RowsAffected: changed}, nil
}

// planView parses a view's stored text back into a SELECT, consulting
// the runtime's plan cache first. Hits require both the catalog version
// and the stored text to match the cached entry, so DDL (including
// dropping and recreating the view under the same name) always forces a
// re-parse against the current dictionary.
func (rt *Runtime) planView(v *storage.View) (*parse.Select, error) {
	ver := rt.Txn.CatalogVersion()
	if p, ok := rt.viewPlans[v.Name]; ok && p.version == ver && p.text == v.Text {
		if m := rt.Met; m != nil {
			m.ViewPlanHits.Inc()
		}
		return p.sel, nil
	}
	if m := rt.Met; m != nil {
		m.ViewPlanMisses.Inc()
	}
	st, err := parse.Parse(v.Text)
	if err != nil {
		return nil, fmt.Errorf("exec: corrupt view %s: %w", v.Name, err)
	}
	sel, ok := st.(*parse.Select)
	if !ok {
		return nil, fmt.Errorf("exec: view %s is not a SELECT", v.Name)
	}
	if rt.viewPlans == nil {
		rt.viewPlans = make(map[string]viewPlan)
	}
	rt.viewPlans[v.Name] = viewPlan{version: ver, text: v.Text, sel: sel}
	return sel, nil
}

// execSelectEnv executes a subquery under the given enclosing
// environment: every binding compiled during it sees env as its outer
// scope. The previous environment is restored afterwards (the engine is
// single-threaded by contract).
func (rt *Runtime) execSelectEnv(s *parse.Select, env *outerRef) (*relation, error) {
	prev := rt.env
	rt.env = env
	// Expression-level subqueries run once per candidate row; collecting
	// an operator span for each execution would grow the plan tree
	// without bound, so the collector is suspended for their duration.
	prevPlan := rt.plan
	rt.plan = nil
	defer func() { rt.env = prev; rt.plan = prevPlan }()
	return rt.execSelect(s)
}

// bind creates a compilation environment over the schema, carrying the
// runtime's current enclosing-subquery scope.
func (rt *Runtime) bind(s *schema.Schema) *binding {
	return &binding{rt: rt, schema: s, outer: rt.env}
}

// execInsert evaluates an INSERT, coercing values to the target schema
// (int→float, string→date) and checking arity and types.
func (rt *Runtime) execInsert(x *parse.Insert) (*Result, error) {
	t, ok, err := rt.Txn.ForWrite(rt.ctx, x.Table)
	if err != nil {
		return nil, err
	}
	if !ok {
		return nil, fmt.Errorf("exec: unknown table %q in INSERT", x.Table)
	}
	ts := t.Schema()

	// Map the optional column list to target ordinals.
	var target []int
	if len(x.Columns) > 0 {
		target = make([]int, len(x.Columns))
		for i, c := range x.Columns {
			idx, err := ts.Resolve("", c)
			if err != nil {
				return nil, err
			}
			target[i] = idx
		}
	} else {
		target = make([]int, ts.Len())
		for i := range target {
			target[i] = i
		}
	}

	var srcRows []schema.Row
	switch {
	case x.Query != nil:
		rel, err := rt.execSelect(x.Query)
		if err != nil {
			return nil, err
		}
		if rel.schema.Len() != len(target) {
			return nil, fmt.Errorf("exec: INSERT expects %d columns, query returns %d", len(target), rel.schema.Len())
		}
		srcRows = rel.rows
	default:
		b := rt.bind(schema.New(""))
		for _, exprRow := range x.Rows {
			if len(exprRow) != len(target) {
				return nil, fmt.Errorf("exec: INSERT expects %d values, got %d", len(target), len(exprRow))
			}
			row := make(schema.Row, len(exprRow))
			for i, e := range exprRow {
				f, err := b.compile(e)
				if err != nil {
					return nil, err
				}
				v, err := f(nil)
				if err != nil {
					return nil, err
				}
				row[i] = v
			}
			srcRows = append(srcRows, row)
		}
	}

	// Rows that already match the target schema (full column list in
	// order, every value the column's type) are stored as-is: values are
	// immutable and a SELECT's result rows are exclusively owned here,
	// so an INSERT ... SELECT stores the executor's output without a
	// per-row copy.
	identity := len(target) == ts.Len()
	if identity {
		for i, ord := range target {
			if ord != i {
				identity = false
				break
			}
		}
	}
	out := make([]schema.Row, 0, len(srcRows))
	for _, src := range srcRows {
		if err := rt.charge(1); err != nil {
			return nil, err
		}
		if identity {
			copyFree := true
			for i, v := range src {
				if !v.IsNull() && v.Type() != ts.Col(i).Type {
					copyFree = false
					break
				}
			}
			if copyFree {
				out = append(out, src)
				continue
			}
		}
		row := make(schema.Row, ts.Len())
		for i, ord := range target {
			v, err := coerceForColumn(src[i], ts.Col(ord))
			if err != nil {
				return nil, fmt.Errorf("exec: INSERT into %s.%s: %w", x.Table, ts.Col(ord).Name, err)
			}
			row[ord] = v
		}
		out = append(out, row)
	}
	if err := rt.Txn.InsertRows(t, out); err != nil {
		return nil, err
	}
	return &Result{RowsAffected: len(out)}, nil
}

func coerceForColumn(v value.Value, c schema.Column) (value.Value, error) {
	if v.IsNull() || v.Type() == c.Type {
		return v, nil
	}
	switch {
	case c.Type == value.TypeFloat && v.Type() == value.TypeInt,
		c.Type == value.TypeInt && v.Type() == value.TypeFloat,
		c.Type == value.TypeDate && v.Type() == value.TypeString:
		return value.Coerce(v, c.Type)
	default:
		return value.Null, fmt.Errorf("cannot store %s into %s column", v.Type(), c.Type)
	}
}

// execDelete removes the rows matching WHERE (all rows when absent).
func (rt *Runtime) execDelete(x *parse.Delete) (*Result, error) {
	t, ok, err := rt.Txn.ForWrite(rt.ctx, x.Table)
	if err != nil {
		return nil, err
	}
	if !ok {
		return nil, fmt.Errorf("exec: unknown table %q in DELETE", x.Table)
	}
	if x.Where == nil {
		n := rt.Txn.Len(t)
		if err := rt.Txn.ReplaceRows(t, nil); err != nil {
			return nil, err
		}
		return &Result{RowsAffected: n}, nil
	}
	b := rt.bind(t.Schema())
	f, err := b.compile(x.Where)
	if err != nil {
		return nil, err
	}
	old := rt.Txn.Rows(t)
	keep := make([]schema.Row, 0, len(old))
	removed := 0
	for _, row := range old {
		if err := rt.poll(); err != nil {
			return nil, err
		}
		v, err := f(row)
		if err != nil {
			return nil, err
		}
		tri, err := value.TristateFromValue(v)
		if err != nil {
			return nil, err
		}
		if tri == value.True {
			removed++
			continue
		}
		keep = append(keep, row)
	}
	if err := rt.Txn.ReplaceRows(t, keep); err != nil {
		return nil, err
	}
	return &Result{RowsAffected: removed}, nil
}
