package parse

import (
	"fmt"
	"strconv"
	"strings"

	"minerule/internal/sql/lex"
	"minerule/internal/sql/value"
)

// Parse parses a single SQL statement (a trailing semicolon is allowed).
func Parse(src string) (Statement, error) {
	st, _, err := ParseParams(src)
	return st, err
}

// ParseParams is Parse that also reports how many ? parameters the
// statement holds; their Param ordinals are 1..n in text order.
func ParseParams(src string) (Statement, int, error) {
	p, err := newParser(src)
	if err != nil {
		return nil, 0, err
	}
	st, err := p.statement()
	if err != nil {
		return nil, 0, err
	}
	p.accept(";")
	if !p.atEOF() {
		return nil, 0, p.errf("unexpected %s after statement", p.peek())
	}
	return st, p.params, nil
}

// ParseScript parses a semicolon-separated sequence of statements and
// reports how many ? parameters they hold. Ordinals continue across the
// statements, so one argument list binds the whole script.
func ParseScript(src string) ([]Statement, int, error) {
	p, err := newParser(src)
	if err != nil {
		return nil, 0, err
	}
	var out []Statement
	for !p.atEOF() {
		st, err := p.statement()
		if err != nil {
			return nil, 0, err
		}
		out = append(out, st)
		if !p.accept(";") && !p.atEOF() {
			return nil, 0, p.errf("expected ';' between statements, got %s", p.peek())
		}
		for p.accept(";") {
		}
	}
	return out, p.params, nil
}

// ParseExpr parses a standalone expression (used by the MINE RULE
// translator for conditions embedded in the operator).
func ParseExpr(src string) (Expr, error) {
	p, err := newParser(src)
	if err != nil {
		return nil, err
	}
	e, err := p.expr()
	if err != nil {
		return nil, err
	}
	if !p.atEOF() {
		return nil, p.errf("unexpected %s after expression", p.peek())
	}
	return e, nil
}

// maxDepth bounds expression and query nesting so pathological inputs
// fail with an error instead of exhausting the stack.
const maxDepth = 200

// parser is a hand-written recursive descent parser over the token list.
type parser struct {
	toks  []lex.Token
	pos   int
	src   string
	depth int
	// params counts the ? markers read so far; inView is set while a
	// CREATE VIEW body is parsed, where no value could ever be bound.
	params int
	inView bool
}

// enter tracks recursion depth; callers must pair it with leave.
func (p *parser) enter() error {
	p.depth++
	if p.depth > maxDepth {
		return fmt.Errorf("parse: statement nests deeper than %d levels", maxDepth)
	}
	return nil
}

func (p *parser) leave() { p.depth-- }

func newParser(src string) (*parser, error) {
	toks, err := lex.Lex(src)
	if err != nil {
		return nil, err
	}
	return &parser{toks: toks, src: src}, nil
}

func (p *parser) peek() lex.Token  { return p.toks[p.pos] }
func (p *parser) next() lex.Token  { t := p.toks[p.pos]; p.pos++; return t }
func (p *parser) atEOF() bool      { return p.peek().Kind == lex.EOF }
func (p *parser) save() int        { return p.pos }
func (p *parser) restore(mark int) { p.pos = mark }

func (p *parser) errf(format string, args ...interface{}) error {
	return fmt.Errorf("parse: "+format+" (at offset %d)", append(args, p.peek().Pos)...)
}

// accept consumes the next token when it is the given punctuation.
func (p *parser) accept(punct string) bool {
	if p.peek().IsPunct(punct) {
		p.pos++
		return true
	}
	return false
}

// expect consumes the given punctuation or fails.
func (p *parser) expect(punct string) error {
	if !p.accept(punct) {
		return p.errf("expected %q, got %s", punct, p.peek())
	}
	return nil
}

// acceptKw consumes the next token when it is the given keyword.
func (p *parser) acceptKw(kw string) bool {
	if p.peek().IsKeyword(kw) {
		p.pos++
		return true
	}
	return false
}

// expectKw consumes the given keyword or fails.
func (p *parser) expectKw(kw string) error {
	if !p.acceptKw(kw) {
		return p.errf("expected %s, got %s", strings.ToUpper(kw), p.peek())
	}
	return nil
}

// ident consumes an identifier token and returns its text.
func (p *parser) ident() (string, error) {
	t := p.peek()
	if t.Kind != lex.Ident {
		return "", p.errf("expected identifier, got %s", t)
	}
	p.pos++
	return t.Text, nil
}

// reserved lists keywords that terminate an identifier context, so that
// "FROM Source GROUP BY…" does not read GROUP as an alias.
var reserved = map[string]bool{
	"select": true, "from": true, "where": true, "group": true,
	"having": true, "order": true, "insert": true, "values": true,
	"create": true, "drop": true, "delete": true, "as": true, "on": true,
	"and": true, "or": true, "not": true, "in": true, "between": true,
	"like": true, "is": true, "exists": true, "union": true, "by": true,
	"distinct": true, "into": true, "asc": true, "desc": true,
	"except": true, "intersect": true, "update": true, "set": true,
	"case": true, "when": true, "then": true, "else": true, "end": true,
	"limit": true, "offset": true,
	"join": true, "left": true, "inner": true, "outer": true,
}

func isReserved(s string) bool { return reserved[strings.ToLower(s)] }

// ---------------------------------------------------------------------------
// Statements

func (p *parser) statement() (Statement, error) {
	t := p.peek()
	switch {
	case t.IsKeyword("select"):
		return p.selectStmt()
	case t.IsKeyword("insert"):
		return p.insertStmt()
	case t.IsKeyword("delete"):
		return p.deleteStmt()
	case t.IsKeyword("update"):
		return p.updateStmt()
	case t.IsKeyword("create"):
		return p.createStmt()
	case t.IsKeyword("drop"):
		return p.dropStmt()
	case t.IsKeyword("begin"):
		p.next()
		p.acceptKw("work")
		p.acceptKw("transaction")
		return &Begin{Pos: t.Pos}, nil
	case t.IsKeyword("start"):
		p.next()
		if err := p.expectKw("transaction"); err != nil {
			return nil, err
		}
		return &Begin{Pos: t.Pos}, nil
	case t.IsKeyword("commit"):
		p.next()
		p.acceptKw("work")
		p.acceptKw("transaction")
		return &Commit{Pos: t.Pos}, nil
	case t.IsKeyword("rollback"):
		p.next()
		p.acceptKw("work")
		p.acceptKw("transaction")
		return &Rollback{Pos: t.Pos}, nil
	case t.IsKeyword("explain"):
		p.next()
		analyze := p.acceptKw("analyze")
		sel, err := p.selectStmt()
		if err != nil {
			return nil, err
		}
		return &Explain{Analyze: analyze, Query: sel, Pos: t.Pos}, nil
	case t.IsPunct("("):
		// Parenthesized SELECT at statement level, as the appendix
		// writes "INSERT INTO t (SELECT …)"-style standalone queries.
		mark := p.save()
		p.next()
		if p.peek().IsKeyword("select") {
			s, err := p.selectStmt()
			if err != nil {
				return nil, err
			}
			if err := p.expect(")"); err != nil {
				return nil, err
			}
			return s, nil
		}
		p.restore(mark)
	}
	return nil, p.errf("expected a statement, got %s", t)
}

// selectStmt parses a full query: a query core, optional set-operation
// tails, and a trailing ORDER BY that applies to the combined result.
func (p *parser) selectStmt() (*Select, error) {
	s, err := p.selectCore()
	if err != nil {
		return nil, err
	}
	for {
		var kind SetOpKind
		switch {
		case p.acceptKw("union"):
			kind = Union
		case p.acceptKw("except"):
			kind = Except
		case p.acceptKw("intersect"):
			kind = Intersect
		default:
			goto orderBy
		}
		all := false
		if p.acceptKw("all") {
			if kind != Union {
				return nil, p.errf("ALL is only supported with UNION")
			}
			all = true
		}
		right, err := p.selectCore()
		if err != nil {
			return nil, err
		}
		s.SetOps = append(s.SetOps, SetOp{Kind: kind, All: all, Sel: right})
	}
orderBy:
	if p.acceptKw("order") {
		if err := p.expectKw("by"); err != nil {
			return nil, err
		}
		for {
			e, err := p.expr()
			if err != nil {
				return nil, err
			}
			oi := OrderItem{Expr: e}
			if p.acceptKw("desc") {
				oi.Desc = true
			} else {
				p.acceptKw("asc")
			}
			s.OrderBy = append(s.OrderBy, oi)
			if !p.accept(",") {
				break
			}
		}
	}
	if p.acceptKw("limit") {
		n, err := p.uint64Lit()
		if err != nil {
			return nil, err
		}
		s.Limit = n
	}
	if p.acceptKw("offset") {
		n, err := p.uint64Lit()
		if err != nil {
			return nil, err
		}
		s.Offset = n
	}
	return s, nil
}

// uint64Lit consumes a non-negative integer literal.
func (p *parser) uint64Lit() (int64, error) {
	t := p.peek()
	if t.Kind != lex.Number || strings.ContainsAny(t.Text, ".eE") {
		return 0, p.errf("expected integer, got %s", t)
	}
	p.pos++
	n, err := strconv.ParseInt(t.Text, 10, 64)
	if err != nil {
		return 0, p.errf("bad integer %q", t.Text)
	}
	return n, nil
}

// selectCore parses one query specification without set operations or
// ORDER BY. Limit -1 marks "no LIMIT".
func (p *parser) selectCore() (*Select, error) {
	if err := p.enter(); err != nil {
		return nil, err
	}
	defer p.leave()
	pos := p.peek().Pos
	if err := p.expectKw("select"); err != nil {
		return nil, err
	}
	s := &Select{Limit: -1, Pos: pos}
	if p.acceptKw("distinct") {
		s.Distinct = true
	} else {
		p.acceptKw("all")
	}
	for {
		item, err := p.selectItem()
		if err != nil {
			return nil, err
		}
		s.Items = append(s.Items, item)
		if !p.accept(",") {
			break
		}
	}
	if p.acceptKw("from") {
		for {
			tr, err := p.tableRef()
			if err != nil {
				return nil, err
			}
			s.From = append(s.From, tr)
			if !p.accept(",") {
				break
			}
		}
	}
	if p.acceptKw("where") {
		e, err := p.expr()
		if err != nil {
			return nil, err
		}
		s.Where = e
	}
	if p.acceptKw("group") {
		if err := p.expectKw("by"); err != nil {
			return nil, err
		}
		for {
			e, err := p.expr()
			if err != nil {
				return nil, err
			}
			s.GroupBy = append(s.GroupBy, e)
			if !p.accept(",") {
				break
			}
		}
	}
	if p.acceptKw("having") {
		e, err := p.expr()
		if err != nil {
			return nil, err
		}
		s.Having = e
	}
	return s, nil
}

func (p *parser) selectItem() (SelectItem, error) {
	pos := p.peek().Pos
	if p.accept("*") {
		return SelectItem{Star: true, Pos: pos}, nil
	}
	// "qual.*"
	if p.peek().Kind == lex.Ident && !isReserved(p.peek().Text) {
		mark := p.save()
		q, _ := p.ident()
		if p.accept(".") && p.accept("*") {
			return SelectItem{StarQual: q, Pos: pos}, nil
		}
		p.restore(mark)
	}
	e, err := p.expr()
	if err != nil {
		return SelectItem{}, err
	}
	item := SelectItem{Expr: e, Pos: pos}
	if p.acceptKw("as") {
		a, err := p.ident()
		if err != nil {
			return SelectItem{}, err
		}
		item.Alias = a
	} else if p.peek().Kind == lex.Ident && !isReserved(p.peek().Text) {
		a, _ := p.ident()
		item.Alias = a
	}
	return item, nil
}

// tableRef parses one FROM element with any trailing explicit JOIN
// clauses (left-associative).
func (p *parser) tableRef() (TableRef, error) {
	tr, err := p.tableRefBase()
	if err != nil {
		return tr, err
	}
	for {
		var kind JoinKind
		switch {
		case p.acceptKw("join"):
			kind = InnerJoin
		case p.acceptKw("inner"):
			if err := p.expectKw("join"); err != nil {
				return tr, err
			}
			kind = InnerJoin
		case p.acceptKw("left"):
			p.acceptKw("outer")
			if err := p.expectKw("join"); err != nil {
				return tr, err
			}
			kind = LeftJoin
		default:
			return tr, nil
		}
		right, err := p.tableRefBase()
		if err != nil {
			return tr, err
		}
		if err := p.expectKw("on"); err != nil {
			return tr, err
		}
		cond, err := p.expr()
		if err != nil {
			return tr, err
		}
		tr.Joins = append(tr.Joins, JoinClause{Kind: kind, Right: right, On: cond})
	}
}

// tableRefBase parses a named or derived table with its alias, without
// JOIN clauses.
func (p *parser) tableRefBase() (TableRef, error) {
	var tr TableRef
	tr.Pos = p.peek().Pos
	if p.accept("(") {
		sub, err := p.selectStmt()
		if err != nil {
			return tr, err
		}
		if err := p.expect(")"); err != nil {
			return tr, err
		}
		tr.Sub = sub
	} else {
		name, err := p.ident()
		if err != nil {
			return tr, err
		}
		tr.Name = name
	}
	if p.acceptKw("as") {
		a, err := p.ident()
		if err != nil {
			return tr, err
		}
		tr.Alias = a
	} else if p.peek().Kind == lex.Ident && !isReserved(p.peek().Text) {
		a, _ := p.ident()
		tr.Alias = a
	}
	return tr, nil
}

func (p *parser) insertStmt() (Statement, error) {
	pos := p.peek().Pos
	if err := p.expectKw("insert"); err != nil {
		return nil, err
	}
	if err := p.expectKw("into"); err != nil {
		return nil, err
	}
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	ins := &Insert{Table: name, Pos: pos}
	// Optional column list — disambiguate from "INSERT INTO t (SELECT…)".
	if p.peek().IsPunct("(") {
		mark := p.save()
		p.next()
		if p.peek().IsKeyword("select") {
			sub, err := p.selectStmt()
			if err != nil {
				return nil, err
			}
			if err := p.expect(")"); err != nil {
				return nil, err
			}
			ins.Query = sub
			return ins, nil
		}
		for {
			c, err := p.ident()
			if err != nil {
				p.restore(mark)
				return nil, err
			}
			ins.Columns = append(ins.Columns, c)
			if !p.accept(",") {
				break
			}
		}
		if err := p.expect(")"); err != nil {
			return nil, err
		}
	}
	switch {
	case p.acceptKw("values"):
		for {
			if err := p.expect("("); err != nil {
				return nil, err
			}
			var row []Expr
			for {
				e, err := p.expr()
				if err != nil {
					return nil, err
				}
				row = append(row, e)
				if !p.accept(",") {
					break
				}
			}
			if err := p.expect(")"); err != nil {
				return nil, err
			}
			ins.Rows = append(ins.Rows, row)
			if !p.accept(",") {
				break
			}
		}
	case p.peek().IsKeyword("select"):
		sub, err := p.selectStmt()
		if err != nil {
			return nil, err
		}
		ins.Query = sub
	case p.peek().IsPunct("("):
		p.next()
		sub, err := p.selectStmt()
		if err != nil {
			return nil, err
		}
		if err := p.expect(")"); err != nil {
			return nil, err
		}
		ins.Query = sub
	default:
		return nil, p.errf("expected VALUES or SELECT in INSERT, got %s", p.peek())
	}
	return ins, nil
}

func (p *parser) deleteStmt() (Statement, error) {
	pos := p.peek().Pos
	if err := p.expectKw("delete"); err != nil {
		return nil, err
	}
	if err := p.expectKw("from"); err != nil {
		return nil, err
	}
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	d := &Delete{Table: name, Pos: pos}
	if p.acceptKw("where") {
		e, err := p.expr()
		if err != nil {
			return nil, err
		}
		d.Where = e
	}
	return d, nil
}

func (p *parser) updateStmt() (Statement, error) {
	pos := p.peek().Pos
	if err := p.expectKw("update"); err != nil {
		return nil, err
	}
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	if err := p.expectKw("set"); err != nil {
		return nil, err
	}
	u := &Update{Table: name, Pos: pos}
	for {
		apos := p.peek().Pos
		col, err := p.ident()
		if err != nil {
			return nil, err
		}
		if err := p.expect("="); err != nil {
			return nil, err
		}
		e, err := p.expr()
		if err != nil {
			return nil, err
		}
		u.Set = append(u.Set, Assignment{Column: col, Value: e, Pos: apos})
		if !p.accept(",") {
			break
		}
	}
	if p.acceptKw("where") {
		e, err := p.expr()
		if err != nil {
			return nil, err
		}
		u.Where = e
	}
	return u, nil
}

func (p *parser) createStmt() (Statement, error) {
	pos := p.peek().Pos
	if err := p.expectKw("create"); err != nil {
		return nil, err
	}
	switch {
	case p.acceptKw("table"):
		name, err := p.ident()
		if err != nil {
			return nil, err
		}
		if err := p.expect("("); err != nil {
			return nil, err
		}
		ct := &CreateTable{Name: name, Pos: pos}
		for {
			cn, err := p.ident()
			if err != nil {
				return nil, err
			}
			tn, err := p.ident()
			if err != nil {
				return nil, err
			}
			typ, err := parseTypeName(tn)
			if err != nil {
				return nil, p.errf("%v", err)
			}
			// Swallow optional length "(n)" after VARCHAR and friends.
			if p.accept("(") {
				if p.peek().Kind != lex.Number {
					return nil, p.errf("expected length, got %s", p.peek())
				}
				p.next()
				if err := p.expect(")"); err != nil {
					return nil, err
				}
			}
			ct.Cols = append(ct.Cols, ColumnDef{Name: cn, Type: typ})
			if !p.accept(",") {
				break
			}
		}
		if err := p.expect(")"); err != nil {
			return nil, err
		}
		return ct, nil
	case p.acceptKw("view"):
		name, err := p.ident()
		if err != nil {
			return nil, err
		}
		if err := p.expectKw("as"); err != nil {
			return nil, err
		}
		paren := p.accept("(")
		p.inView = true
		sub, err := p.selectStmt()
		p.inView = false
		if err != nil {
			return nil, err
		}
		if paren {
			if err := p.expect(")"); err != nil {
				return nil, err
			}
		}
		return &CreateView{Name: name, Query: sub, Pos: pos}, nil
	case p.acceptKw("sequence"):
		name, err := p.ident()
		if err != nil {
			return nil, err
		}
		return &CreateSequence{Name: name, Pos: pos}, nil
	case p.acceptKw("index"):
		name, err := p.ident()
		if err != nil {
			return nil, err
		}
		if err := p.expectKw("on"); err != nil {
			return nil, err
		}
		table, err := p.ident()
		if err != nil {
			return nil, err
		}
		if err := p.expect("("); err != nil {
			return nil, err
		}
		col, err := p.ident()
		if err != nil {
			return nil, err
		}
		if err := p.expect(")"); err != nil {
			return nil, err
		}
		return &CreateIndex{Name: name, Table: table, Column: col, Pos: pos}, nil
	}
	return nil, p.errf("expected TABLE, VIEW, SEQUENCE or INDEX after CREATE, got %s", p.peek())
}

func (p *parser) dropStmt() (Statement, error) {
	pos := p.peek().Pos
	if err := p.expectKw("drop"); err != nil {
		return nil, err
	}
	switch {
	case p.acceptKw("table"):
		name, err := p.ident()
		if err != nil {
			return nil, err
		}
		return &DropTable{Name: name, Pos: pos}, nil
	case p.acceptKw("view"):
		name, err := p.ident()
		if err != nil {
			return nil, err
		}
		return &DropView{Name: name, Pos: pos}, nil
	case p.acceptKw("sequence"):
		name, err := p.ident()
		if err != nil {
			return nil, err
		}
		return &DropSequence{Name: name, Pos: pos}, nil
	case p.acceptKw("index"):
		name, err := p.ident()
		if err != nil {
			return nil, err
		}
		return &DropIndex{Name: name, Pos: pos}, nil
	}
	return nil, p.errf("expected TABLE, VIEW, SEQUENCE or INDEX after DROP, got %s", p.peek())
}

func parseTypeName(name string) (value.Type, error) {
	switch strings.ToUpper(name) {
	case "INT", "INTEGER", "SMALLINT", "BIGINT", "NUMBER":
		return value.TypeInt, nil
	case "FLOAT", "REAL", "DOUBLE", "DECIMAL", "NUMERIC":
		return value.TypeFloat, nil
	case "VARCHAR", "CHAR", "TEXT", "STRING", "VARCHAR2":
		return value.TypeString, nil
	case "DATE":
		return value.TypeDate, nil
	case "BOOLEAN", "BOOL":
		return value.TypeBool, nil
	default:
		return value.TypeNull, fmt.Errorf("parse: unknown type %q", name)
	}
}

// ---------------------------------------------------------------------------
// Expressions, precedence climbing: OR < AND < NOT < predicate <
// additive < multiplicative < unary < primary.

func (p *parser) expr() (Expr, error) {
	if err := p.enter(); err != nil {
		return nil, err
	}
	defer p.leave()
	return p.orExpr()
}

func (p *parser) orExpr() (Expr, error) {
	l, err := p.andExpr()
	if err != nil {
		return nil, err
	}
	for p.acceptKw("or") {
		r, err := p.andExpr()
		if err != nil {
			return nil, err
		}
		l = &BinaryExpr{Op: OpOr, L: l, R: r, Pos: ExprOffset(l)}
	}
	return l, nil
}

func (p *parser) andExpr() (Expr, error) {
	l, err := p.notExpr()
	if err != nil {
		return nil, err
	}
	for p.acceptKw("and") {
		r, err := p.notExpr()
		if err != nil {
			return nil, err
		}
		l = &BinaryExpr{Op: OpAnd, L: l, R: r, Pos: ExprOffset(l)}
	}
	return l, nil
}

func (p *parser) notExpr() (Expr, error) {
	pos := p.peek().Pos
	if p.acceptKw("not") {
		e, err := p.notExpr()
		if err != nil {
			return nil, err
		}
		return &NotExpr{E: e, Pos: pos}, nil
	}
	return p.predicate()
}

func (p *parser) predicate() (Expr, error) {
	if p.peek().IsKeyword("exists") {
		pos := p.next().Pos
		if err := p.expect("("); err != nil {
			return nil, err
		}
		sub, err := p.selectStmt()
		if err != nil {
			return nil, err
		}
		if err := p.expect(")"); err != nil {
			return nil, err
		}
		return &ExistsExpr{Sub: sub, Pos: pos}, nil
	}
	l, err := p.addExpr()
	if err != nil {
		return nil, err
	}
	// Comparison operators.
	for _, cand := range []struct {
		sym string
		op  BinaryOp
	}{{"<=", OpLe}, {">=", OpGe}, {"<>", OpNe}, {"!=", OpNe}, {"=", OpEq}, {"<", OpLt}, {">", OpGt}} {
		if p.accept(cand.sym) {
			r, err := p.addExpr()
			if err != nil {
				return nil, err
			}
			return &BinaryExpr{Op: cand.op, L: l, R: r, Pos: ExprOffset(l)}, nil
		}
	}
	not := false
	if p.peek().IsKeyword("not") {
		// Only when followed by BETWEEN / IN / LIKE; bare NOT here is a
		// syntax error anyway.
		p.next()
		not = true
	}
	switch {
	case p.acceptKw("between"):
		lo, err := p.addExpr()
		if err != nil {
			return nil, err
		}
		if err := p.expectKw("and"); err != nil {
			return nil, err
		}
		hi, err := p.addExpr()
		if err != nil {
			return nil, err
		}
		return &BetweenExpr{E: l, Lo: lo, Hi: hi, Not: not, Pos: ExprOffset(l)}, nil
	case p.acceptKw("in"):
		if err := p.expect("("); err != nil {
			return nil, err
		}
		if p.peek().IsKeyword("select") {
			sub, err := p.selectStmt()
			if err != nil {
				return nil, err
			}
			if err := p.expect(")"); err != nil {
				return nil, err
			}
			return &InSubquery{E: l, Sub: sub, Not: not, Pos: ExprOffset(l)}, nil
		}
		var list []Expr
		for {
			e, err := p.expr()
			if err != nil {
				return nil, err
			}
			list = append(list, e)
			if !p.accept(",") {
				break
			}
		}
		if err := p.expect(")"); err != nil {
			return nil, err
		}
		return &InListExpr{E: l, List: list, Not: not, Pos: ExprOffset(l)}, nil
	case p.acceptKw("like"):
		pat, err := p.addExpr()
		if err != nil {
			return nil, err
		}
		return &LikeExpr{E: l, Pattern: pat, Not: not, Pos: ExprOffset(l)}, nil
	case p.acceptKw("is"):
		if not {
			return nil, p.errf("NOT before IS")
		}
		isNot := p.acceptKw("not")
		if !p.acceptKw("null") {
			return nil, p.errf("expected NULL after IS")
		}
		return &IsNullExpr{E: l, Not: isNot, Pos: ExprOffset(l)}, nil
	}
	if not {
		return nil, p.errf("expected BETWEEN, IN or LIKE after NOT")
	}
	return l, nil
}

func (p *parser) addExpr() (Expr, error) {
	l, err := p.mulExpr()
	if err != nil {
		return nil, err
	}
	for {
		switch {
		case p.accept("+"):
			r, err := p.mulExpr()
			if err != nil {
				return nil, err
			}
			l = &BinaryExpr{Op: OpAdd, L: l, R: r, Pos: ExprOffset(l)}
		case p.accept("-"):
			r, err := p.mulExpr()
			if err != nil {
				return nil, err
			}
			l = &BinaryExpr{Op: OpSub, L: l, R: r, Pos: ExprOffset(l)}
		case p.accept("||"):
			r, err := p.mulExpr()
			if err != nil {
				return nil, err
			}
			l = &BinaryExpr{Op: OpConcat, L: l, R: r, Pos: ExprOffset(l)}
		default:
			return l, nil
		}
	}
}

func (p *parser) mulExpr() (Expr, error) {
	l, err := p.unaryExpr()
	if err != nil {
		return nil, err
	}
	for {
		switch {
		case p.accept("*"):
			r, err := p.unaryExpr()
			if err != nil {
				return nil, err
			}
			l = &BinaryExpr{Op: OpMul, L: l, R: r, Pos: ExprOffset(l)}
		case p.accept("/"):
			r, err := p.unaryExpr()
			if err != nil {
				return nil, err
			}
			l = &BinaryExpr{Op: OpDiv, L: l, R: r, Pos: ExprOffset(l)}
		default:
			return l, nil
		}
	}
}

func (p *parser) unaryExpr() (Expr, error) {
	pos := p.peek().Pos
	if p.accept("-") {
		e, err := p.unaryExpr()
		if err != nil {
			return nil, err
		}
		if lit, ok := e.(*Literal); ok {
			if v, err := value.Neg(lit.Val); err == nil {
				return &Literal{Val: v, Pos: pos}, nil
			}
		}
		return &NegExpr{E: e, Pos: pos}, nil
	}
	p.accept("+")
	return p.primary()
}

func (p *parser) primary() (Expr, error) {
	t := p.peek()
	switch t.Kind {
	case lex.Number:
		p.next()
		if strings.ContainsAny(t.Text, ".eE") {
			f, err := strconv.ParseFloat(t.Text, 64)
			if err != nil {
				return nil, p.errf("bad number %q", t.Text)
			}
			return &Literal{Val: value.NewFloat(f), Pos: t.Pos}, nil
		}
		i, err := strconv.ParseInt(t.Text, 10, 64)
		if err != nil {
			return nil, p.errf("bad number %q", t.Text)
		}
		return &Literal{Val: value.NewInt(i), Pos: t.Pos}, nil
	case lex.String:
		p.next()
		return &Literal{Val: value.NewString(t.Text), Pos: t.Pos}, nil
	case lex.Punct:
		if t.Text == "?" {
			if p.inView {
				return nil, p.errf("parameter ? in a view body: a view stores text, so no value can be bound")
			}
			p.next()
			p.params++
			return &Param{N: p.params, Pos: t.Pos}, nil
		}
		if t.Text == "(" {
			p.next()
			if p.peek().IsKeyword("select") {
				sub, err := p.selectStmt()
				if err != nil {
					return nil, err
				}
				if err := p.expect(")"); err != nil {
					return nil, err
				}
				return &ScalarSubquery{Sub: sub, Pos: t.Pos}, nil
			}
			e, err := p.expr()
			if err != nil {
				return nil, err
			}
			if err := p.expect(")"); err != nil {
				return nil, err
			}
			return e, nil
		}
	case lex.Ident:
		switch {
		case t.IsKeyword("null"):
			p.next()
			return &Literal{Val: value.Null, Pos: t.Pos}, nil
		case t.IsKeyword("true"):
			p.next()
			return &Literal{Val: value.NewBool(true), Pos: t.Pos}, nil
		case t.IsKeyword("false"):
			p.next()
			return &Literal{Val: value.NewBool(false), Pos: t.Pos}, nil
		case t.IsKeyword("case"):
			return p.caseExpr()
		case t.IsKeyword("date"):
			// DATE 'YYYY-MM-DD' literal.
			mark := p.save()
			p.next()
			if p.peek().Kind == lex.String {
				s := p.next().Text
				v, err := value.ParseDate(s)
				if err != nil {
					return nil, p.errf("%v", err)
				}
				return &Literal{Val: v, Pos: t.Pos}, nil
			}
			p.restore(mark)
		}
		if isReserved(t.Text) {
			return nil, p.errf("expected expression, got reserved word %s", t)
		}
		return p.identExpr()
	}
	return nil, p.errf("expected expression, got %s", t)
}

// caseExpr parses both CASE forms (searched and with operand).
func (p *parser) caseExpr() (Expr, error) {
	pos := p.peek().Pos
	if err := p.expectKw("case"); err != nil {
		return nil, err
	}
	c := &CaseExpr{Pos: pos}
	if !p.peek().IsKeyword("when") {
		op, err := p.expr()
		if err != nil {
			return nil, err
		}
		c.Operand = op
	}
	for p.acceptKw("when") {
		w, err := p.expr()
		if err != nil {
			return nil, err
		}
		if err := p.expectKw("then"); err != nil {
			return nil, err
		}
		t, err := p.expr()
		if err != nil {
			return nil, err
		}
		c.Whens = append(c.Whens, CaseWhen{When: w, Then: t})
	}
	if len(c.Whens) == 0 {
		return nil, p.errf("CASE needs at least one WHEN")
	}
	if p.acceptKw("else") {
		e, err := p.expr()
		if err != nil {
			return nil, err
		}
		c.Else = e
	}
	if err := p.expectKw("end"); err != nil {
		return nil, err
	}
	return c, nil
}

// identExpr parses identifier-led expressions: column references
// (qualified or not), function calls, and seq.NEXTVAL.
func (p *parser) identExpr() (Expr, error) {
	pos := p.peek().Pos
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	// Function call.
	if p.peek().IsPunct("(") {
		p.next()
		f := &FuncCall{Name: strings.ToUpper(name), Pos: pos}
		if p.accept("*") {
			f.Star = true
			if err := p.expect(")"); err != nil {
				return nil, err
			}
			if f.Name != "COUNT" {
				return nil, p.errf("%s(*) is only valid for COUNT", f.Name)
			}
			return f, nil
		}
		if p.accept(")") {
			return f, nil
		}
		if p.acceptKw("distinct") {
			f.Distinct = true
		}
		for {
			a, err := p.expr()
			if err != nil {
				return nil, err
			}
			f.Args = append(f.Args, a)
			if !p.accept(",") {
				break
			}
		}
		if err := p.expect(")"); err != nil {
			return nil, err
		}
		return f, nil
	}
	// Qualified name: "t.col" or "seq.NEXTVAL".
	if p.accept(".") {
		sub, err := p.ident()
		if err != nil {
			return nil, err
		}
		if strings.EqualFold(sub, "nextval") {
			return &NextVal{Seq: name, Pos: pos}, nil
		}
		return &ColumnRef{Qual: name, Name: sub, Pos: pos}, nil
	}
	return &ColumnRef{Name: name, Pos: pos}, nil
}
