package semck

import (
	"fmt"
	"strings"

	"minerule/internal/sql/parse"
	"minerule/internal/sql/value"
)

func lowerQual(q string) string { return strings.ToLower(q) }

func colN(n int) string { return fmt.Sprintf("COL%d", n) }

// resolveRef resolves a column reference in the scope chain, innermost
// first, exactly like the executor's binding: on failure in the primary
// schema every outer level is tried, and the primary error is reported
// when none matches.
func (c *checker) resolveRef(sc *scope, x *parse.ColumnRef) (value.Type, *Error) {
	if idx := sc.s.Lookup(x.Qual, x.Name); idx >= 0 {
		return sc.s.Col(idx).Type, nil
	}
	for o := sc.outer; o != nil; o = o.outer {
		if oidx := o.s.Lookup(x.Qual, x.Name); oidx >= 0 {
			return o.s.Col(oidx).Type, nil
		}
	}
	_, err := sc.s.Resolve(x.Qual, x.Name)
	return value.TypeNull, c.schemaErr(x.Pos, err)
}

// compiles mirrors the executor's compile-time success predicate for an
// expression under an aggregate-free binding. The executor uses that
// predicate to decide where a WHERE conjunct binds (applyLocal) and
// whether a pre-projection sort is possible (canOrder); the checker
// must make the same decisions, so this must not be stricter or looser
// than binding.compile. Notably, subquery bodies never fail compilation
// (they are evaluated lazily), so they are not descended into here.
func (c *checker) compiles(sc *scope, e parse.Expr) bool {
	switch x := e.(type) {
	case nil:
		return true
	case *parse.Literal, *parse.Param:
		return true
	case *parse.ColumnRef:
		_, err := c.resolveRef(sc, x)
		return err == nil
	case *parse.NextVal:
		return c.cat.HasSequence(x.Seq)
	case *parse.NegExpr:
		return c.compiles(sc, x.E)
	case *parse.NotExpr:
		return c.compiles(sc, x.E)
	case *parse.BinaryExpr:
		return c.compiles(sc, x.L) && c.compiles(sc, x.R)
	case *parse.BetweenExpr:
		return c.compiles(sc, x.E) && c.compiles(sc, x.Lo) && c.compiles(sc, x.Hi)
	case *parse.InListExpr:
		if !c.compiles(sc, x.E) {
			return false
		}
		for _, le := range x.List {
			if !c.compiles(sc, le) {
				return false
			}
		}
		return true
	case *parse.InSubquery:
		return c.compiles(sc, x.E)
	case *parse.ExistsExpr:
		return true
	case *parse.ScalarSubquery:
		return true
	case *parse.IsNullExpr:
		return c.compiles(sc, x.E)
	case *parse.LikeExpr:
		return c.compiles(sc, x.E) && c.compiles(sc, x.Pattern)
	case *parse.CaseExpr:
		if x.Operand != nil && !c.compiles(sc, x.Operand) {
			return false
		}
		for _, w := range x.Whens {
			if !c.compiles(sc, w.When) || !c.compiles(sc, w.Then) {
				return false
			}
		}
		return x.Else == nil || c.compiles(sc, x.Else)
	case *parse.FuncCall:
		if x.IsAggregate() {
			return false // aggs nil in every compile-predicate site
		}
		for _, a := range x.Args {
			if !c.compiles(sc, a) {
				return false
			}
		}
		return scalarArityOK(x)
	}
	return false
}

// scalarArityOK mirrors compileScalarFunc's name and arity gate.
func scalarArityOK(x *parse.FuncCall) bool {
	n := len(x.Args)
	switch x.Name {
	case "ABS", "UPPER", "LOWER", "LENGTH", "TRIM":
		return n == 1
	case "MOD":
		return n == 2
	case "SUBSTR", "SUBSTRING":
		return n == 2 || n == 3
	case "ROUND":
		return n == 1 || n == 2
	case "COALESCE":
		return n >= 1
	}
	return false
}

// wantBool rejects an expression whose static type can never yield a
// boolean (the executor's TristateFromValue fails on every non-null
// value of such a type).
func (c *checker) wantBool(e parse.Expr, t value.Type) *Error {
	if t == value.TypeBool || t == value.TypeNull {
		return nil
	}
	return c.errf(parse.ExprOffset(e), "%s where BOOLEAN expected", t)
}

// comparable reports whether two static types can ever compare without
// a runtime type error: unknowns always can, numerics promote, equal
// types compare, and date↔string coerces lazily.
func comparable(a, b value.Type) bool {
	if a == value.TypeNull || b == value.TypeNull || a == b {
		return true
	}
	if a.Numeric() && b.Numeric() {
		return true
	}
	if a == value.TypeDate && b == value.TypeString || a == value.TypeString && b == value.TypeDate {
		return true
	}
	return false
}

func numericOrNull(t value.Type) bool { return t == value.TypeNull || t.Numeric() }
func intOrNull(t value.Type) bool     { return t == value.TypeNull || t == value.TypeInt }
func stringOrNull(t value.Type) bool  { return t == value.TypeNull || t == value.TypeString }

// commonType folds a set of statically known types into one: all equal
// known types keep that type, anything mixed or unknown is TypeNull.
func commonType(ts ...value.Type) value.Type {
	res := value.TypeNull
	for _, t := range ts {
		if t == value.TypeNull {
			continue
		}
		if res == value.TypeNull {
			res = t
		} else if res != t {
			return value.TypeNull
		}
	}
	return res
}

// typeOf checks an expression under the scope chain and infers its
// static type. aggOK reports whether aggregate calls are legal here
// (projection items and HAVING of a grouped query); their arguments are
// always checked aggregate-free, mirroring the executor's two binding
// modes. TypeNull means "statically unknown" and propagates without
// ever erroring.
func (c *checker) typeOf(sc *scope, e parse.Expr, aggOK bool) (value.Type, error) {
	switch x := e.(type) {
	case *parse.Literal:
		return x.Val.Type(), nil

	case *parse.Param:
		// Bound at execution: statically unknown, like a NULL literal.
		return value.TypeNull, nil

	case *parse.ColumnRef:
		t, err := c.resolveRef(sc, x)
		if err != nil {
			return value.TypeNull, err
		}
		return t, nil

	case *parse.NextVal:
		if !c.cat.HasSequence(x.Seq) {
			return value.TypeNull, c.errf(x.Pos, "unknown sequence %q", x.Seq)
		}
		return value.TypeInt, nil

	case *parse.NegExpr:
		t, err := c.typeOf(sc, x.E, aggOK)
		if err != nil {
			return value.TypeNull, err
		}
		if !numericOrNull(t) {
			return value.TypeNull, c.errf(x.Pos, "unary minus on %s", t)
		}
		return t, nil

	case *parse.NotExpr:
		t, err := c.typeOf(sc, x.E, aggOK)
		if err != nil {
			return value.TypeNull, err
		}
		if e2 := c.wantBool(x.E, t); e2 != nil {
			return value.TypeNull, e2
		}
		return value.TypeBool, nil

	case *parse.BinaryExpr:
		return c.typeOfBinary(sc, x, aggOK)

	case *parse.BetweenExpr:
		et, err := c.typeOf(sc, x.E, aggOK)
		if err != nil {
			return value.TypeNull, err
		}
		lot, err := c.typeOf(sc, x.Lo, aggOK)
		if err != nil {
			return value.TypeNull, err
		}
		hit, err := c.typeOf(sc, x.Hi, aggOK)
		if err != nil {
			return value.TypeNull, err
		}
		if !comparable(et, lot) {
			return value.TypeNull, c.errf(x.Pos, "cannot compare %s with %s", et, lot)
		}
		if !comparable(et, hit) {
			return value.TypeNull, c.errf(x.Pos, "cannot compare %s with %s", et, hit)
		}
		return value.TypeBool, nil

	case *parse.InListExpr:
		et, err := c.typeOf(sc, x.E, aggOK)
		if err != nil {
			return value.TypeNull, err
		}
		for _, le := range x.List {
			lt, err := c.typeOf(sc, le, aggOK)
			if err != nil {
				return value.TypeNull, err
			}
			if !comparable(et, lt) {
				return value.TypeNull, c.errf(parse.ExprOffset(le), "cannot compare %s with %s", et, lt)
			}
		}
		return value.TypeBool, nil

	case *parse.InSubquery:
		et, err := c.typeOf(sc, x.E, aggOK)
		if err != nil {
			return value.TypeNull, err
		}
		ss, err := c.checkSelect(x.Sub, sc)
		if err != nil {
			return value.TypeNull, err
		}
		if ss.Len() != 1 {
			return value.TypeNull, c.errf(x.Sub.Pos, "subquery must return 1 column(s), got %d", ss.Len())
		}
		if !comparable(et, ss.Col(0).Type) {
			return value.TypeNull, c.errf(x.Pos, "cannot compare %s with %s", et, ss.Col(0).Type)
		}
		return value.TypeBool, nil

	case *parse.ExistsExpr:
		if _, err := c.checkSelect(x.Sub, sc); err != nil {
			return value.TypeNull, err
		}
		return value.TypeBool, nil

	case *parse.ScalarSubquery:
		ss, err := c.checkSelect(x.Sub, sc)
		if err != nil {
			return value.TypeNull, err
		}
		if ss.Len() != 1 {
			return value.TypeNull, c.errf(x.Sub.Pos, "subquery must return 1 column(s), got %d", ss.Len())
		}
		return ss.Col(0).Type, nil

	case *parse.IsNullExpr:
		if _, err := c.typeOf(sc, x.E, aggOK); err != nil {
			return value.TypeNull, err
		}
		return value.TypeBool, nil

	case *parse.LikeExpr:
		et, err := c.typeOf(sc, x.E, aggOK)
		if err != nil {
			return value.TypeNull, err
		}
		pt, err := c.typeOf(sc, x.Pattern, aggOK)
		if err != nil {
			return value.TypeNull, err
		}
		if !stringOrNull(et) || !stringOrNull(pt) {
			return value.TypeNull, c.errf(x.Pos, "LIKE requires strings")
		}
		return value.TypeBool, nil

	case *parse.CaseExpr:
		return c.typeOfCase(sc, x, aggOK)

	case *parse.FuncCall:
		if x.IsAggregate() {
			return c.typeOfAggregate(sc, x, aggOK)
		}
		return c.typeOfScalarFunc(sc, x, aggOK)
	}
	return value.TypeNull, c.errf(parse.ExprOffset(e), "cannot check %T", e)
}

func (c *checker) typeOfBinary(sc *scope, x *parse.BinaryExpr, aggOK bool) (value.Type, error) {
	lt, err := c.typeOf(sc, x.L, aggOK)
	if err != nil {
		return value.TypeNull, err
	}
	rt, err := c.typeOf(sc, x.R, aggOK)
	if err != nil {
		return value.TypeNull, err
	}
	switch {
	case x.Op == parse.OpAnd || x.Op == parse.OpOr:
		if e := c.wantBool(x.L, lt); e != nil {
			return value.TypeNull, e
		}
		if e := c.wantBool(x.R, rt); e != nil {
			return value.TypeNull, e
		}
		return value.TypeBool, nil

	case x.Op.Comparison():
		if !comparable(lt, rt) {
			return value.TypeNull, c.errf(x.Pos, "cannot compare %s with %s", lt, rt)
		}
		return value.TypeBool, nil

	case x.Op == parse.OpConcat:
		// The executor renders both sides with String(), which accepts
		// every type; only the result type is fixed.
		return value.TypeString, nil

	default: // arithmetic
		return c.arithType(x, lt, rt)
	}
}

// arithType mirrors value.Arith's typing: date±int and date−date are
// special-cased, numerics promote, and anything else is a guaranteed
// runtime error once a non-null value appears.
func (c *checker) arithType(x *parse.BinaryExpr, lt, rt value.Type) (value.Type, error) {
	if lt == value.TypeNull || rt == value.TypeNull {
		return value.TypeNull, nil
	}
	var sym byte
	switch x.Op {
	case parse.OpAdd:
		sym = '+'
	case parse.OpSub:
		sym = '-'
	case parse.OpMul:
		sym = '*'
	case parse.OpDiv:
		sym = '/'
	}
	if sym == '+' && lt == value.TypeDate && rt == value.TypeInt {
		return value.TypeDate, nil
	}
	if sym == '-' && lt == value.TypeDate {
		if rt == value.TypeInt {
			return value.TypeDate, nil
		}
		if rt == value.TypeDate {
			return value.TypeInt, nil
		}
	}
	if !lt.Numeric() || !rt.Numeric() {
		return value.TypeNull, c.errf(x.Pos, "%c on %s and %s", sym, lt, rt)
	}
	if lt == value.TypeInt && rt == value.TypeInt {
		return value.TypeInt, nil
	}
	return value.TypeFloat, nil
}

func (c *checker) typeOfCase(sc *scope, x *parse.CaseExpr, aggOK bool) (value.Type, error) {
	var opType value.Type
	if x.Operand != nil {
		t, err := c.typeOf(sc, x.Operand, aggOK)
		if err != nil {
			return value.TypeNull, err
		}
		opType = t
	}
	results := make([]value.Type, 0, len(x.Whens)+1)
	for _, w := range x.Whens {
		wt, err := c.typeOf(sc, w.When, aggOK)
		if err != nil {
			return value.TypeNull, err
		}
		if x.Operand != nil {
			if !comparable(opType, wt) {
				return value.TypeNull, c.errf(parse.ExprOffset(w.When), "cannot compare %s with %s", opType, wt)
			}
		} else if e := c.wantBool(w.When, wt); e != nil {
			return value.TypeNull, e
		}
		tt, err := c.typeOf(sc, w.Then, aggOK)
		if err != nil {
			return value.TypeNull, err
		}
		results = append(results, tt)
	}
	if x.Else != nil {
		et, err := c.typeOf(sc, x.Else, aggOK)
		if err != nil {
			return value.TypeNull, err
		}
		results = append(results, et)
	}
	return commonType(results...), nil
}

// typeOfAggregate checks one aggregate call. The argument is checked
// with aggregates disallowed (the executor compiles it under the
// aggregate-free key binding, so nesting fails there).
func (c *checker) typeOfAggregate(sc *scope, x *parse.FuncCall, aggOK bool) (value.Type, error) {
	if !aggOK {
		return value.TypeNull, c.errf(x.Pos, "aggregate %s outside GROUP BY context", x.Name)
	}
	if x.Star {
		return value.TypeInt, nil
	}
	if len(x.Args) != 1 {
		return value.TypeNull, c.errf(x.Pos, "%s takes one argument", x.Name)
	}
	at, err := c.typeOf(sc, x.Args[0], false)
	if err != nil {
		return value.TypeNull, err
	}
	switch x.Name {
	case "COUNT":
		return value.TypeInt, nil
	case "AVG":
		if !numericOrNull(at) {
			return value.TypeNull, c.errf(x.Pos, "%s over %s", x.Name, at)
		}
		return value.TypeFloat, nil
	case "SUM":
		if !numericOrNull(at) {
			return value.TypeNull, c.errf(x.Pos, "%s over %s", x.Name, at)
		}
		return at, nil
	default: // MIN, MAX
		return at, nil
	}
}

func (c *checker) typeOfScalarFunc(sc *scope, x *parse.FuncCall, aggOK bool) (value.Type, error) {
	// Scalar function arguments compile under the same binding as the
	// call, so aggregates are legal inside them when aggOK (e.g.
	// ROUND(AVG(x), 2) in a grouped projection).
	args := make([]value.Type, len(x.Args))
	for i, a := range x.Args {
		t, err := c.typeOf(sc, a, aggOK)
		if err != nil {
			return value.TypeNull, err
		}
		args[i] = t
	}
	need := func(n int) *Error {
		if len(args) != n {
			return c.errf(x.Pos, "%s takes %d argument(s), got %d", x.Name, n, len(args))
		}
		return nil
	}
	switch x.Name {
	case "ABS":
		if e := need(1); e != nil {
			return value.TypeNull, e
		}
		if !numericOrNull(args[0]) {
			return value.TypeNull, c.errf(x.Pos, "ABS on %s", args[0])
		}
		return args[0], nil
	case "MOD":
		if e := need(2); e != nil {
			return value.TypeNull, e
		}
		if !intOrNull(args[0]) || !intOrNull(args[1]) {
			return value.TypeNull, c.errf(x.Pos, "MOD requires integers")
		}
		return value.TypeInt, nil
	case "UPPER", "LOWER":
		if e := need(1); e != nil {
			return value.TypeNull, e
		}
		if !stringOrNull(args[0]) {
			return value.TypeNull, c.errf(x.Pos, "%s on %s", x.Name, args[0])
		}
		return value.TypeString, nil
	case "LENGTH":
		if e := need(1); e != nil {
			return value.TypeNull, e
		}
		if !stringOrNull(args[0]) {
			return value.TypeNull, c.errf(x.Pos, "LENGTH on %s", args[0])
		}
		return value.TypeInt, nil
	case "SUBSTR", "SUBSTRING":
		if len(args) != 2 && len(args) != 3 {
			return value.TypeNull, c.errf(x.Pos, "%s takes 2 or 3 arguments", x.Name)
		}
		if !stringOrNull(args[0]) || !intOrNull(args[1]) {
			return value.TypeNull, c.errf(x.Pos, "SUBSTR requires (string, int[, int])")
		}
		if len(args) == 3 && !intOrNull(args[2]) {
			return value.TypeNull, c.errf(x.Pos, "SUBSTR length must be an integer")
		}
		return value.TypeString, nil
	case "TRIM":
		if e := need(1); e != nil {
			return value.TypeNull, e
		}
		if !stringOrNull(args[0]) {
			return value.TypeNull, c.errf(x.Pos, "TRIM on %s", args[0])
		}
		return value.TypeString, nil
	case "ROUND":
		if len(args) != 1 && len(args) != 2 {
			return value.TypeNull, c.errf(x.Pos, "ROUND takes 1 or 2 arguments")
		}
		if !numericOrNull(args[0]) {
			return value.TypeNull, c.errf(x.Pos, "ROUND on %s", args[0])
		}
		if len(args) == 2 && !intOrNull(args[1]) {
			return value.TypeNull, c.errf(x.Pos, "ROUND digits must be an integer")
		}
		return value.TypeFloat, nil
	case "COALESCE":
		if len(args) == 0 {
			return value.TypeNull, c.errf(x.Pos, "COALESCE needs arguments")
		}
		return commonType(args...), nil
	}
	return value.TypeNull, c.errf(x.Pos, "unknown function %s", x.Name)
}
