// Package exec evaluates SQL statements against a storage.Catalog. It is
// a straightforward volcano-style executor specialized for the workload
// the paper's translator generates: scans, equi-joins (hash), grouping
// with aggregates, DISTINCT and subqueries.
package exec

import (
	"fmt"
	"math"
	"strings"

	"minerule/internal/sql/parse"
	"minerule/internal/sql/schema"
	"minerule/internal/sql/value"
)

// evalFunc computes an expression over one input row.
type evalFunc func(row schema.Row) (value.Value, error)

// outerRef links a subquery's compilation environment to the enclosing
// query's schema and current row, enabling correlated references. The
// chain extends through nested subqueries via parent.
type outerRef struct {
	schema *schema.Schema
	row    *schema.Row // written before each subquery evaluation
	parent *outerRef
}

// binding is the compilation environment for expressions: the input
// schema, pre-computed aggregate results (during the grouping stage),
// the runtime for sequences and subqueries, and the enclosing query's
// environment for correlated references.
type binding struct {
	rt     *Runtime
	schema *schema.Schema
	// aggs maps aggregate call nodes to the slot where the grouping
	// stage deposits their per-group value; nil outside grouping.
	aggs map[*parse.FuncCall]int
	// aggRow points at the current group's aggregate values.
	aggRow *[]value.Value
	// outer is the enclosing environment chain (nil at top level).
	outer *outerRef
}

// compile turns an expression into an evalFunc bound to b's schema.
func (b *binding) compile(e parse.Expr) (evalFunc, error) {
	switch x := e.(type) {
	case *parse.Literal:
		v := x.Val
		return func(schema.Row) (value.Value, error) { return v, nil }, nil

	case *parse.Param:
		v := b.rt.Args[x.N-1]
		return func(schema.Row) (value.Value, error) { return v, nil }, nil

	case *parse.ColumnRef:
		idx := b.schema.Lookup(x.Qual, x.Name)
		if idx < 0 {
			// Correlated reference: fall back to the enclosing query's
			// row, innermost scope first.
			for o := b.outer; o != nil; o = o.parent {
				if oidx := o.schema.Lookup(x.Qual, x.Name); oidx >= 0 {
					holder := o.row
					return func(schema.Row) (value.Value, error) {
						return (*holder)[oidx], nil
					}, nil
				}
			}
			_, err := b.schema.Resolve(x.Qual, x.Name)
			return nil, &PosError{Err: err, Off: x.Pos}
		}
		return func(row schema.Row) (value.Value, error) { return row[idx], nil }, nil

	case *parse.NextVal:
		seq, ok := b.rt.Txn.Sequence(x.Seq)
		if !ok {
			return nil, &PosError{Err: fmt.Errorf("exec: unknown sequence %q", x.Seq), Off: x.Pos}
		}
		return func(schema.Row) (value.Value, error) {
			return value.NewInt(seq.NextVal()), nil
		}, nil

	case *parse.NegExpr:
		sub, err := b.compile(x.E)
		if err != nil {
			return nil, err
		}
		return func(row schema.Row) (value.Value, error) {
			v, err := sub(row)
			if err != nil {
				return value.Null, err
			}
			return value.Neg(v)
		}, nil

	case *parse.NotExpr:
		sub, err := b.compile(x.E)
		if err != nil {
			return nil, err
		}
		return func(row schema.Row) (value.Value, error) {
			v, err := sub(row)
			if err != nil {
				return value.Null, err
			}
			t, err := value.TristateFromValue(v)
			if err != nil {
				return value.Null, err
			}
			return t.Not().Value(), nil
		}, nil

	case *parse.BinaryExpr:
		return b.compileBinary(x)

	case *parse.BetweenExpr:
		// e BETWEEN lo AND hi  ≡  e >= lo AND e <= hi.
		ef, err := b.compile(x.E)
		if err != nil {
			return nil, err
		}
		lof, err := b.compile(x.Lo)
		if err != nil {
			return nil, err
		}
		hif, err := b.compile(x.Hi)
		if err != nil {
			return nil, err
		}
		return func(row schema.Row) (value.Value, error) {
			v, err := ef(row)
			if err != nil {
				return value.Null, err
			}
			lo, err := lof(row)
			if err != nil {
				return value.Null, err
			}
			hi, err := hif(row)
			if err != nil {
				return value.Null, err
			}
			a, err := compareTri(v, lo, parse.OpGe)
			if err != nil {
				return value.Null, err
			}
			c, err := compareTri(v, hi, parse.OpLe)
			if err != nil {
				return value.Null, err
			}
			t := a.And(c)
			if x.Not {
				t = t.Not()
			}
			return t.Value(), nil
		}, nil

	case *parse.InListExpr:
		ef, err := b.compile(x.E)
		if err != nil {
			return nil, err
		}
		fns := make([]evalFunc, len(x.List))
		for i, le := range x.List {
			fns[i], err = b.compile(le)
			if err != nil {
				return nil, err
			}
		}
		return func(row schema.Row) (value.Value, error) {
			v, err := ef(row)
			if err != nil {
				return value.Null, err
			}
			res := value.False
			for _, fn := range fns {
				lv, err := fn(row)
				if err != nil {
					return value.Null, err
				}
				t, err := compareTri(v, lv, parse.OpEq)
				if err != nil {
					return value.Null, err
				}
				res = res.Or(t)
				if res == value.True {
					break
				}
			}
			if x.Not {
				res = res.Not()
			}
			return res.Value(), nil
		}, nil

	case *parse.InSubquery:
		ef, err := b.compile(x.E)
		if err != nil {
			return nil, err
		}
		sub := b.subqueryEval(x.Sub, 1)
		return func(row schema.Row) (value.Value, error) {
			v, err := ef(row)
			if err != nil {
				return value.Null, err
			}
			rows, err := sub(row)
			if err != nil {
				return value.Null, err
			}
			res := value.False
			for _, r := range rows {
				t, err := compareTri(v, r[0], parse.OpEq)
				if err != nil {
					return value.Null, err
				}
				res = res.Or(t)
				if res == value.True {
					break
				}
			}
			if x.Not {
				res = res.Not()
			}
			return res.Value(), nil
		}, nil

	case *parse.ExistsExpr:
		sub := b.subqueryEval(x.Sub, 0)
		return func(row schema.Row) (value.Value, error) {
			rows, err := sub(row)
			if err != nil {
				return value.Null, err
			}
			return value.NewBool((len(rows) > 0) != x.Not), nil
		}, nil

	case *parse.ScalarSubquery:
		sub := b.subqueryEval(x.Sub, 1)
		return func(row schema.Row) (value.Value, error) {
			rows, err := sub(row)
			if err != nil {
				return value.Null, err
			}
			switch len(rows) {
			case 0:
				return value.Null, nil
			case 1:
				return rows[0][0], nil
			default:
				return value.Null, fmt.Errorf("exec: scalar subquery returned %d rows", len(rows))
			}
		}, nil

	case *parse.IsNullExpr:
		sub, err := b.compile(x.E)
		if err != nil {
			return nil, err
		}
		return func(row schema.Row) (value.Value, error) {
			v, err := sub(row)
			if err != nil {
				return value.Null, err
			}
			return value.NewBool(v.IsNull() != x.Not), nil
		}, nil

	case *parse.LikeExpr:
		ef, err := b.compile(x.E)
		if err != nil {
			return nil, err
		}
		pf, err := b.compile(x.Pattern)
		if err != nil {
			return nil, err
		}
		return func(row schema.Row) (value.Value, error) {
			v, err := ef(row)
			if err != nil {
				return value.Null, err
			}
			p, err := pf(row)
			if err != nil {
				return value.Null, err
			}
			if v.IsNull() || p.IsNull() {
				return value.Null, nil
			}
			if v.Type() != value.TypeString || p.Type() != value.TypeString {
				return value.Null, fmt.Errorf("exec: LIKE requires strings")
			}
			m := likeMatch(v.Str(), p.Str())
			return value.NewBool(m != x.Not), nil
		}, nil

	case *parse.CaseExpr:
		return b.compileCase(x)

	case *parse.FuncCall:
		if x.IsAggregate() {
			if b.aggs == nil {
				return nil, &PosError{Err: fmt.Errorf("exec: aggregate %s outside GROUP BY context", x.Name), Off: x.Pos}
			}
			slot, ok := b.aggs[x]
			if !ok {
				return nil, fmt.Errorf("exec: unregistered aggregate %s", x.Name)
			}
			aggRow := b.aggRow
			return func(schema.Row) (value.Value, error) {
				return (*aggRow)[slot], nil
			}, nil
		}
		return b.compileScalarFunc(x)
	}
	return nil, fmt.Errorf("exec: cannot compile %T", e)
}

// compileCase handles both CASE forms. With an operand the WHEN values
// compare for equality; UNKNOWN comparisons (NULLs) never match, per
// SQL92.
func (b *binding) compileCase(x *parse.CaseExpr) (evalFunc, error) {
	var opFn evalFunc
	if x.Operand != nil {
		f, err := b.compile(x.Operand)
		if err != nil {
			return nil, err
		}
		opFn = f
	}
	whenFns := make([]evalFunc, len(x.Whens))
	thenFns := make([]evalFunc, len(x.Whens))
	for i, w := range x.Whens {
		wf, err := b.compile(w.When)
		if err != nil {
			return nil, err
		}
		tf, err := b.compile(w.Then)
		if err != nil {
			return nil, err
		}
		whenFns[i], thenFns[i] = wf, tf
	}
	var elseFn evalFunc
	if x.Else != nil {
		f, err := b.compile(x.Else)
		if err != nil {
			return nil, err
		}
		elseFn = f
	}
	return func(row schema.Row) (value.Value, error) {
		var operand value.Value
		if opFn != nil {
			v, err := opFn(row)
			if err != nil {
				return value.Null, err
			}
			operand = v
		}
		for i, wf := range whenFns {
			wv, err := wf(row)
			if err != nil {
				return value.Null, err
			}
			matched := value.False
			if opFn != nil {
				matched, err = compareTri(operand, wv, parse.OpEq)
				if err != nil {
					return value.Null, err
				}
			} else {
				matched, err = value.TristateFromValue(wv)
				if err != nil {
					return value.Null, err
				}
			}
			if matched == value.True {
				return thenFns[i](row)
			}
		}
		if elseFn != nil {
			return elseFn(row)
		}
		return value.Null, nil
	}, nil
}

func (b *binding) compileBinary(x *parse.BinaryExpr) (evalFunc, error) {
	lf, err := b.compile(x.L)
	if err != nil {
		return nil, err
	}
	rf, err := b.compile(x.R)
	if err != nil {
		return nil, err
	}
	op := x.Op
	switch {
	case op == parse.OpAnd || op == parse.OpOr:
		return func(row schema.Row) (value.Value, error) {
			lv, err := lf(row)
			if err != nil {
				return value.Null, err
			}
			lt, err := value.TristateFromValue(lv)
			if err != nil {
				return value.Null, err
			}
			// Short-circuit where three-valued logic allows it.
			if op == parse.OpAnd && lt == value.False {
				return value.NewBool(false), nil
			}
			if op == parse.OpOr && lt == value.True {
				return value.NewBool(true), nil
			}
			rv, err := rf(row)
			if err != nil {
				return value.Null, err
			}
			rt, err := value.TristateFromValue(rv)
			if err != nil {
				return value.Null, err
			}
			if op == parse.OpAnd {
				return lt.And(rt).Value(), nil
			}
			return lt.Or(rt).Value(), nil
		}, nil

	case op.Comparison():
		return func(row schema.Row) (value.Value, error) {
			lv, err := lf(row)
			if err != nil {
				return value.Null, err
			}
			rv, err := rf(row)
			if err != nil {
				return value.Null, err
			}
			t, err := compareTri(lv, rv, op)
			if err != nil {
				return value.Null, err
			}
			return t.Value(), nil
		}, nil

	case op == parse.OpConcat:
		return func(row schema.Row) (value.Value, error) {
			lv, err := lf(row)
			if err != nil {
				return value.Null, err
			}
			rv, err := rf(row)
			if err != nil {
				return value.Null, err
			}
			if lv.IsNull() || rv.IsNull() {
				return value.Null, nil
			}
			return value.NewString(lv.String() + rv.String()), nil
		}, nil

	default: // arithmetic
		var sym byte
		switch op {
		case parse.OpAdd:
			sym = '+'
		case parse.OpSub:
			sym = '-'
		case parse.OpMul:
			sym = '*'
		case parse.OpDiv:
			sym = '/'
		default:
			return nil, fmt.Errorf("exec: unsupported operator %s", op)
		}
		return func(row schema.Row) (value.Value, error) {
			lv, err := lf(row)
			if err != nil {
				return value.Null, err
			}
			rv, err := rf(row)
			if err != nil {
				return value.Null, err
			}
			return value.Arith(sym, lv, rv)
		}, nil
	}
}

// compareTri applies a comparison with NULL → UNKNOWN and lazy
// string↔date coercion, so that 'date >= ”1995-01-01”' works the way
// users of the paper's dialect expect.
func compareTri(a, bv value.Value, op parse.BinaryOp) (value.Tristate, error) {
	if a.IsNull() || bv.IsNull() {
		return value.Unknown, nil
	}
	if a.Type() == value.TypeDate && bv.Type() == value.TypeString {
		c, err := value.Coerce(bv, value.TypeDate)
		if err != nil {
			return value.Unknown, err
		}
		bv = c
	}
	if bv.Type() == value.TypeDate && a.Type() == value.TypeString {
		c, err := value.Coerce(a, value.TypeDate)
		if err != nil {
			return value.Unknown, err
		}
		a = c
	}
	c, err := value.Compare(a, bv)
	if err != nil {
		return value.Unknown, err
	}
	var ok bool
	switch op {
	case parse.OpEq:
		ok = c == 0
	case parse.OpNe:
		ok = c != 0
	case parse.OpLt:
		ok = c < 0
	case parse.OpLe:
		ok = c <= 0
	case parse.OpGt:
		ok = c > 0
	case parse.OpGe:
		ok = c >= 0
	default:
		return value.Unknown, fmt.Errorf("exec: %s is not a comparison", op)
	}
	return value.TristateOf(ok), nil
}

func (b *binding) compileScalarFunc(x *parse.FuncCall) (evalFunc, error) {
	fns := make([]evalFunc, len(x.Args))
	for i, a := range x.Args {
		f, err := b.compile(a)
		if err != nil {
			return nil, err
		}
		fns[i] = f
	}
	need := func(n int) error {
		if len(fns) != n {
			return fmt.Errorf("exec: %s takes %d argument(s), got %d", x.Name, n, len(fns))
		}
		return nil
	}
	evalArgs := func(row schema.Row) ([]value.Value, error) {
		vs := make([]value.Value, len(fns))
		for i, f := range fns {
			v, err := f(row)
			if err != nil {
				return nil, err
			}
			vs[i] = v
		}
		return vs, nil
	}
	switch x.Name {
	case "ABS":
		if err := need(1); err != nil {
			return nil, err
		}
		return func(row schema.Row) (value.Value, error) {
			vs, err := evalArgs(row)
			if err != nil {
				return value.Null, err
			}
			v := vs[0]
			switch {
			case v.IsNull():
				return value.Null, nil
			case v.Type() == value.TypeInt:
				i := v.Int()
				if i < 0 {
					i = -i
				}
				return value.NewInt(i), nil
			case v.Type() == value.TypeFloat:
				f := v.Float()
				if f < 0 {
					f = -f
				}
				return value.NewFloat(f), nil
			}
			return value.Null, fmt.Errorf("exec: ABS on %s", v.Type())
		}, nil
	case "MOD":
		if err := need(2); err != nil {
			return nil, err
		}
		return func(row schema.Row) (value.Value, error) {
			vs, err := evalArgs(row)
			if err != nil {
				return value.Null, err
			}
			if vs[0].IsNull() || vs[1].IsNull() {
				return value.Null, nil
			}
			if vs[0].Type() != value.TypeInt || vs[1].Type() != value.TypeInt {
				return value.Null, fmt.Errorf("exec: MOD requires integers")
			}
			if vs[1].Int() == 0 {
				return value.Null, fmt.Errorf("exec: MOD by zero")
			}
			return value.NewInt(vs[0].Int() % vs[1].Int()), nil
		}, nil
	case "UPPER", "LOWER":
		if err := need(1); err != nil {
			return nil, err
		}
		upper := x.Name == "UPPER"
		return func(row schema.Row) (value.Value, error) {
			vs, err := evalArgs(row)
			if err != nil {
				return value.Null, err
			}
			if vs[0].IsNull() {
				return value.Null, nil
			}
			if vs[0].Type() != value.TypeString {
				return value.Null, fmt.Errorf("exec: %s on %s", x.Name, vs[0].Type())
			}
			s := vs[0].Str()
			if upper {
				return value.NewString(strings.ToUpper(s)), nil
			}
			return value.NewString(strings.ToLower(s)), nil
		}, nil
	case "LENGTH":
		if err := need(1); err != nil {
			return nil, err
		}
		return func(row schema.Row) (value.Value, error) {
			vs, err := evalArgs(row)
			if err != nil {
				return value.Null, err
			}
			if vs[0].IsNull() {
				return value.Null, nil
			}
			if vs[0].Type() != value.TypeString {
				return value.Null, fmt.Errorf("exec: LENGTH on %s", vs[0].Type())
			}
			return value.NewInt(int64(len(vs[0].Str()))), nil
		}, nil
	case "SUBSTR", "SUBSTRING":
		if len(fns) != 2 && len(fns) != 3 {
			return nil, fmt.Errorf("exec: %s takes 2 or 3 arguments", x.Name)
		}
		return func(row schema.Row) (value.Value, error) {
			vs, err := evalArgs(row)
			if err != nil {
				return value.Null, err
			}
			for _, v := range vs {
				if v.IsNull() {
					return value.Null, nil
				}
			}
			if vs[0].Type() != value.TypeString || vs[1].Type() != value.TypeInt {
				return value.Null, fmt.Errorf("exec: SUBSTR requires (string, int[, int])")
			}
			s := vs[0].Str()
			start := int(vs[1].Int()) - 1 // SQL is 1-based
			if start < 0 {
				start = 0
			}
			if start >= len(s) {
				return value.NewString(""), nil
			}
			end := len(s)
			if len(vs) == 3 {
				if vs[2].Type() != value.TypeInt {
					return value.Null, fmt.Errorf("exec: SUBSTR length must be an integer")
				}
				if n := int(vs[2].Int()); n >= 0 && start+n < end {
					end = start + n
				}
			}
			return value.NewString(s[start:end]), nil
		}, nil
	case "TRIM":
		if err := need(1); err != nil {
			return nil, err
		}
		return func(row schema.Row) (value.Value, error) {
			vs, err := evalArgs(row)
			if err != nil {
				return value.Null, err
			}
			if vs[0].IsNull() {
				return value.Null, nil
			}
			if vs[0].Type() != value.TypeString {
				return value.Null, fmt.Errorf("exec: TRIM on %s", vs[0].Type())
			}
			return value.NewString(strings.TrimSpace(vs[0].Str())), nil
		}, nil
	case "ROUND":
		if len(fns) != 1 && len(fns) != 2 {
			return nil, fmt.Errorf("exec: ROUND takes 1 or 2 arguments")
		}
		return func(row schema.Row) (value.Value, error) {
			vs, err := evalArgs(row)
			if err != nil {
				return value.Null, err
			}
			if vs[0].IsNull() {
				return value.Null, nil
			}
			if !vs[0].Type().Numeric() {
				return value.Null, fmt.Errorf("exec: ROUND on %s", vs[0].Type())
			}
			digits := 0
			if len(vs) == 2 {
				if vs[1].IsNull() {
					return value.Null, nil
				}
				if vs[1].Type() != value.TypeInt {
					return value.Null, fmt.Errorf("exec: ROUND digits must be an integer")
				}
				digits = int(vs[1].Int())
			}
			scale := math.Pow(10, float64(digits))
			return value.NewFloat(math.Round(vs[0].Float()*scale) / scale), nil
		}, nil
	case "COALESCE":
		if len(fns) == 0 {
			return nil, fmt.Errorf("exec: COALESCE needs arguments")
		}
		return func(row schema.Row) (value.Value, error) {
			for _, f := range fns {
				v, err := f(row)
				if err != nil {
					return value.Null, err
				}
				if !v.IsNull() {
					return v, nil
				}
			}
			return value.Null, nil
		}, nil
	}
	return nil, &PosError{Err: fmt.Errorf("exec: unknown function %s", x.Name), Off: x.Pos}
}

// likeMatch implements SQL LIKE with % (any run) and _ (any one byte),
// by simple backtracking on %.
func likeMatch(s, pat string) bool {
	var si, pi int
	var starP, starS = -1, 0
	for si < len(s) {
		switch {
		case pi < len(pat) && (pat[pi] == '_' || pat[pi] == s[si]):
			si++
			pi++
		case pi < len(pat) && pat[pi] == '%':
			starP, starS = pi, si
			pi++
		case starP >= 0:
			starS++
			si, pi = starS, starP+1
		default:
			return false
		}
	}
	for pi < len(pat) && pat[pi] == '%' {
		pi++
	}
	return pi == len(pat)
}

// subqueryEval compiles a subquery into a per-row evaluator. A
// self-contained (uncorrelated) subquery executes once and caches its
// rows; a correlated one re-executes per outer row with the enclosing
// row bound through the outerRef chain. Correlation is detected by
// first attempting execution without any enclosing environment — a
// failure there that a correlated environment fixes means the subquery
// references the outer query.
func (b *binding) subqueryEval(sel *parse.Select, wantCols int) func(schema.Row) ([]schema.Row, error) {
	holder := new(schema.Row)
	ref := &outerRef{schema: b.schema, row: holder, parent: b.outer}
	const (
		unknown = iota
		cachedState
		correlated
	)
	state := unknown
	var cached []schema.Row
	var cachedErr error
	run := func(env *outerRef) ([]schema.Row, error) {
		rel, err := b.rt.execSelectEnv(sel, env)
		if err != nil {
			return nil, err
		}
		if wantCols > 0 && rel.schema.Len() != wantCols {
			return nil, fmt.Errorf("exec: subquery must return %d column(s), got %d", wantCols, rel.schema.Len())
		}
		return rel.rows, nil
	}
	return func(row schema.Row) ([]schema.Row, error) {
		switch state {
		case cachedState:
			return cached, cachedErr
		case unknown:
			rows, err := run(nil)
			if err == nil {
				state = cachedState
				cached = rows
				return rows, nil
			}
			// Retry as correlated; if the enclosing environment does
			// not fix the failure, the error stands (and is cached to
			// avoid re-failing per row on genuine mistakes).
			*holder = row
			rows, cerr := run(ref)
			if cerr != nil {
				state = cachedState
				cachedErr = cerr
				return nil, cerr
			}
			state = correlated
			return rows, nil
		default: // correlated
			*holder = row
			return run(ref)
		}
	}
}
