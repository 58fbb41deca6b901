// Package parse defines the SQL abstract syntax tree and the recursive
// descent parser producing it. The dialect is the SQL92 subset used by
// the paper's Appendix-A programs: SELECT (DISTINCT, joins, GROUP BY,
// HAVING, aggregates, subqueries, ORDER BY), INSERT…VALUES/SELECT,
// DELETE, CREATE/DROP TABLE, CREATE/DROP VIEW, CREATE/DROP SEQUENCE,
// and Oracle's sequence NEXTVAL pseudo-column.
package parse

import (
	"fmt"
	"strings"

	"minerule/internal/sql/value"
)

// quoteIdent renders an identifier so that the parser reads it back:
// plain identifiers verbatim, anything else in double quotes. Double
// quotes inside delimited identifiers cannot be represented and render
// as a plain quote pair (the lexer rejects them on re-parse, surfacing
// the unsupported name instead of corrupting it silently).
func quoteIdent(s string) string {
	plain := s != ""
	for i, r := range s {
		switch {
		case r == '_' || r >= 'a' && r <= 'z' || r >= 'A' && r <= 'Z':
		case i > 0 && (r >= '0' && r <= '9' || r == '$' || r == '#'):
		default:
			plain = false
		}
		if !plain {
			break
		}
	}
	if plain && !quotedKeywords[strings.ToLower(s)] {
		return s
	}
	return "\"" + s + "\""
}

// quotedKeywords forces quoting of identifiers that would read as
// reserved words.
var quotedKeywords = map[string]bool{
	"select": true, "from": true, "where": true, "group": true,
	"having": true, "order": true, "union": true, "except": true,
	"intersect": true, "join": true, "left": true, "inner": true,
	"outer": true, "case": true, "when": true, "then": true,
	"else": true, "end": true, "and": true, "or": true, "not": true,
}

// Node is implemented by every AST node.
type Node interface {
	// SQL renders the node back to parseable SQL text; round-tripping is
	// used by the view mechanism and by the MINE RULE translator, which
	// splices user expressions into generated queries.
	SQL() string
}

// Statement is any top-level SQL statement.
type Statement interface {
	Node
	stmt()
}

// Expr is any scalar or boolean expression.
type Expr interface {
	Node
	expr()
}

// Positioned is implemented by nodes that carry a source position: the
// byte offset of the node's first token in the statement text. Offsets
// convert to line/column with lex.Position. Nodes built programmatically
// (the MINE RULE translator, view expansion) leave the offset at 0,
// which renders as line 1, column 1.
type Positioned interface {
	SrcPos() int
}

// ---------------------------------------------------------------------------
// Expressions

// ColumnRef references a column, optionally qualified: "t.a" or "a".
type ColumnRef struct {
	Qual string
	Name string
	Pos  int
}

// Literal is a constant value.
type Literal struct {
	Val value.Value
	Pos int
}

// BinaryOp enumerates binary operators.
type BinaryOp int

// Binary operators in increasing precedence groups.
const (
	OpOr BinaryOp = iota
	OpAnd
	OpEq
	OpNe
	OpLt
	OpLe
	OpGt
	OpGe
	OpAdd
	OpSub
	OpMul
	OpDiv
	OpConcat
)

func (o BinaryOp) String() string {
	switch o {
	case OpOr:
		return "OR"
	case OpAnd:
		return "AND"
	case OpEq:
		return "="
	case OpNe:
		return "<>"
	case OpLt:
		return "<"
	case OpLe:
		return "<="
	case OpGt:
		return ">"
	case OpGe:
		return ">="
	case OpAdd:
		return "+"
	case OpSub:
		return "-"
	case OpMul:
		return "*"
	case OpDiv:
		return "/"
	case OpConcat:
		return "||"
	default:
		return "?"
	}
}

// Comparison reports whether the operator is a comparison predicate.
func (o BinaryOp) Comparison() bool { return o >= OpEq && o <= OpGe }

// BinaryExpr applies a binary operator.
type BinaryExpr struct {
	Op   BinaryOp
	L, R Expr
	Pos  int
}

// NotExpr is logical negation.
type NotExpr struct {
	E   Expr
	Pos int
}

// NegExpr is arithmetic negation.
type NegExpr struct {
	E   Expr
	Pos int
}

// BetweenExpr is "e [NOT] BETWEEN lo AND hi".
type BetweenExpr struct {
	E, Lo, Hi Expr
	Not       bool
	Pos       int
}

// InListExpr is "e [NOT] IN (e1, …, en)".
type InListExpr struct {
	E    Expr
	List []Expr
	Not  bool
	Pos  int
}

// InSubquery is "e [NOT] IN (SELECT …)". The subquery may be
// correlated and must produce exactly one column.
type InSubquery struct {
	E   Expr
	Sub *Select
	Not bool
	Pos int
}

// ExistsExpr is "[NOT] EXISTS (SELECT …)", correlated or not.
type ExistsExpr struct {
	Sub *Select
	Not bool
	Pos int
}

// ScalarSubquery is "(SELECT …)" used as a scalar; the subquery may be
// correlated and must produce one column and at most one row.
type ScalarSubquery struct {
	Sub *Select
	Pos int
}

// IsNullExpr is "e IS [NOT] NULL".
type IsNullExpr struct {
	E   Expr
	Not bool
	Pos int
}

// LikeExpr is "e [NOT] LIKE pattern" with % and _ wildcards.
type LikeExpr struct {
	E, Pattern Expr
	Not        bool
	Pos        int
}

// FuncCall is a function application. Star marks COUNT(*); Distinct marks
// COUNT(DISTINCT e) and friends. Aggregate functions are COUNT, SUM, AVG,
// MIN, MAX; everything else is a scalar function.
type FuncCall struct {
	Name     string // upper-cased
	Args     []Expr
	Star     bool
	Distinct bool
	Pos      int
}

// IsAggregate reports whether the call is one of the five SQL92
// aggregate functions.
func (f *FuncCall) IsAggregate() bool {
	switch f.Name {
	case "COUNT", "SUM", "AVG", "MIN", "MAX":
		return true
	}
	return false
}

// NextVal is Oracle's "seq.NEXTVAL" pseudo-column.
type NextVal struct {
	Seq string
	Pos int
}

// CaseWhen is one WHEN…THEN arm of a CASE expression.
type CaseWhen struct {
	When Expr
	Then Expr
}

// CaseExpr is "CASE [operand] WHEN w THEN t … [ELSE e] END". With an
// operand the WHEN values compare for equality; without, each WHEN is a
// boolean condition.
type CaseExpr struct {
	Operand Expr // nil for the searched form
	Whens   []CaseWhen
	Else    Expr // nil → NULL
	Pos     int
}

// Param is a "?" parameter marker. N is its 1-based ordinal in the text
// the parser read (a script numbers across its statements); the
// executor reads the N-th argument bound to the execution.
type Param struct {
	N   int
	Pos int
}

func (*ColumnRef) expr()      {}
func (*Literal) expr()        {}
func (*Param) expr()          {}
func (*BinaryExpr) expr()     {}
func (*NotExpr) expr()        {}
func (*NegExpr) expr()        {}
func (*BetweenExpr) expr()    {}
func (*InListExpr) expr()     {}
func (*InSubquery) expr()     {}
func (*ExistsExpr) expr()     {}
func (*ScalarSubquery) expr() {}
func (*IsNullExpr) expr()     {}
func (*LikeExpr) expr()       {}
func (*FuncCall) expr()       {}
func (*NextVal) expr()        {}
func (*CaseExpr) expr()       {}

func (c *ColumnRef) SrcPos() int      { return c.Pos }
func (l *Literal) SrcPos() int        { return l.Pos }
func (p *Param) SrcPos() int          { return p.Pos }
func (b *BinaryExpr) SrcPos() int     { return b.Pos }
func (n *NotExpr) SrcPos() int        { return n.Pos }
func (n *NegExpr) SrcPos() int        { return n.Pos }
func (b *BetweenExpr) SrcPos() int    { return b.Pos }
func (e *InListExpr) SrcPos() int     { return e.Pos }
func (e *InSubquery) SrcPos() int     { return e.Pos }
func (e *ExistsExpr) SrcPos() int     { return e.Pos }
func (e *ScalarSubquery) SrcPos() int { return e.Pos }
func (e *IsNullExpr) SrcPos() int     { return e.Pos }
func (e *LikeExpr) SrcPos() int       { return e.Pos }
func (f *FuncCall) SrcPos() int       { return f.Pos }
func (n *NextVal) SrcPos() int        { return n.Pos }
func (c *CaseExpr) SrcPos() int       { return c.Pos }

// ExprOffset returns the expression's source offset, or 0 when the node
// carries none (every parser-built expression does).
func ExprOffset(e Expr) int {
	if p, ok := e.(Positioned); ok {
		return p.SrcPos()
	}
	return 0
}

// ---------------------------------------------------------------------------
// SELECT

// SelectItem is one element of the projection list: an expression with an
// optional alias, "*", or "qual.*".
type SelectItem struct {
	Expr     Expr
	Alias    string
	Star     bool   // SELECT *
	StarQual string // SELECT t.* (Star is false in this case)
	Pos      int
}

// SrcPos implements Positioned.
func (s *SelectItem) SrcPos() int { return s.Pos }

// JoinKind classifies an explicit JOIN clause.
type JoinKind int

// Join kinds. Plain comma joins in the FROM list do not use these.
const (
	InnerJoin JoinKind = iota
	LeftJoin
)

func (k JoinKind) String() string {
	if k == LeftJoin {
		return "LEFT JOIN"
	}
	return "JOIN"
}

// JoinClause is one "… [LEFT] JOIN table ON cond" attached to a TableRef.
type JoinClause struct {
	Kind  JoinKind
	Right TableRef
	On    Expr
}

// TableRef is one element of the FROM list: a named relation or a derived
// table, with an optional alias, optionally followed by explicit JOIN
// clauses ("a JOIN b ON … LEFT JOIN c ON …").
type TableRef struct {
	Name  string  // table or view name, "" for derived tables
	Sub   *Select // derived table, nil for named relations
	Alias string
	Joins []JoinClause
	Pos   int
}

// SrcPos implements Positioned.
func (t *TableRef) SrcPos() int { return t.Pos }

// OrderItem is one ORDER BY element.
type OrderItem struct {
	Expr Expr
	Desc bool
}

// SetOpKind enumerates the SQL92 set operators.
type SetOpKind int

// The set operators.
const (
	Union SetOpKind = iota
	Except
	Intersect
)

func (k SetOpKind) String() string {
	switch k {
	case Union:
		return "UNION"
	case Except:
		return "EXCEPT"
	case Intersect:
		return "INTERSECT"
	default:
		return "?"
	}
}

// SetOp is one "… UNION [ALL] select" tail clause; ALL is only valid
// for UNION.
type SetOp struct {
	Kind SetOpKind
	All  bool
	Sel  *Select
}

// Select is a query specification. SetOps, when present, combine this
// (leftmost) query with further ones; OrderBy then applies to the
// combined result, per SQL92.
type Select struct {
	Distinct bool
	Items    []SelectItem
	From     []TableRef
	Where    Expr
	GroupBy  []Expr
	Having   Expr
	SetOps   []SetOp
	OrderBy  []OrderItem
	// Limit and Offset bound the final result; -1 means absent.
	Limit  int64
	Offset int64
	// Pos is the byte offset of the SELECT keyword.
	Pos int
}

// ---------------------------------------------------------------------------
// Other statements

// ColumnDef is one column in CREATE TABLE.
type ColumnDef struct {
	Name string
	Type value.Type
}

// CreateTable is "CREATE TABLE name (col type, …)".
type CreateTable struct {
	Name string
	Cols []ColumnDef
	Pos  int
}

// DropTable is "DROP TABLE name".
type DropTable struct {
	Name string
	Pos  int
}

// CreateIndex is "CREATE INDEX name ON table (column)": a single-column
// hash index accelerating equality predicates.
type CreateIndex struct {
	Name   string
	Table  string
	Column string
	Pos    int
}

// DropIndex is "DROP INDEX name".
type DropIndex struct {
	Name string
	Pos  int
}

// CreateView is "CREATE VIEW name AS select". The query re-plans at
// each use (the kernel's Q2 groups through such a view).
type CreateView struct {
	Name  string
	Query *Select
	Pos   int
}

// DropView is "DROP VIEW name".
type DropView struct {
	Name string
	Pos  int
}

// CreateSequence is Oracle's "CREATE SEQUENCE name".
type CreateSequence struct {
	Name string
	Pos  int
}

// DropSequence is "DROP SEQUENCE name".
type DropSequence struct {
	Name string
	Pos  int
}

// Insert is "INSERT INTO table [(cols)] VALUES (…), (…)" or
// "INSERT INTO table [(cols)] select".
type Insert struct {
	Table   string
	Columns []string
	Rows    [][]Expr
	Query   *Select
	Pos     int
}

// Delete is "DELETE FROM table [WHERE cond]".
type Delete struct {
	Table string
	Where Expr
	Pos   int
}

// Assignment is one "col = expr" of an UPDATE.
type Assignment struct {
	Column string
	Value  Expr
	Pos    int
}

// SrcPos implements Positioned.
func (a *Assignment) SrcPos() int { return a.Pos }

// Update is "UPDATE table SET col = expr, … [WHERE cond]".
type Update struct {
	Table string
	Set   []Assignment
	Where Expr
	Pos   int
}

// Explain is "EXPLAIN [ANALYZE] select". The engine interprets rather
// than plans ahead, so EXPLAIN executes the query with the operator
// collector installed and returns the resolved tree with per-node row
// counts; ANALYZE additionally reports per-node wall time.
type Explain struct {
	Analyze bool
	Query   *Select
	Pos     int
}

// Begin is "BEGIN [WORK|TRANSACTION]" / "START TRANSACTION": it opens
// an explicit transaction on the session.
type Begin struct {
	Pos int
}

// Commit is "COMMIT [WORK|TRANSACTION]".
type Commit struct {
	Pos int
}

// Rollback is "ROLLBACK [WORK|TRANSACTION]".
type Rollback struct {
	Pos int
}

func (*Select) stmt()         {}
func (*CreateTable) stmt()    {}
func (*DropTable) stmt()      {}
func (*CreateView) stmt()     {}
func (*DropView) stmt()       {}
func (*CreateSequence) stmt() {}
func (*DropSequence) stmt()   {}
func (*Insert) stmt()         {}
func (*Delete) stmt()         {}
func (*Update) stmt()         {}
func (*CreateIndex) stmt()    {}
func (*DropIndex) stmt()      {}
func (*Explain) stmt()        {}
func (*Begin) stmt()          {}
func (*Commit) stmt()         {}
func (*Rollback) stmt()       {}

func (s *Select) SrcPos() int         { return s.Pos }
func (c *CreateTable) SrcPos() int    { return c.Pos }
func (d *DropTable) SrcPos() int      { return d.Pos }
func (c *CreateView) SrcPos() int     { return c.Pos }
func (d *DropView) SrcPos() int       { return d.Pos }
func (c *CreateSequence) SrcPos() int { return c.Pos }
func (d *DropSequence) SrcPos() int   { return d.Pos }
func (i *Insert) SrcPos() int         { return i.Pos }
func (d *Delete) SrcPos() int         { return d.Pos }
func (u *Update) SrcPos() int         { return u.Pos }
func (c *CreateIndex) SrcPos() int    { return c.Pos }
func (d *DropIndex) SrcPos() int      { return d.Pos }
func (e *Explain) SrcPos() int        { return e.Pos }
func (b *Begin) SrcPos() int          { return b.Pos }
func (c *Commit) SrcPos() int         { return c.Pos }
func (r *Rollback) SrcPos() int       { return r.Pos }

// ---------------------------------------------------------------------------
// SQL rendering (Node.SQL)

func (c *ColumnRef) SQL() string {
	if c.Qual != "" {
		return quoteIdent(c.Qual) + "." + quoteIdent(c.Name)
	}
	return quoteIdent(c.Name)
}

func (l *Literal) SQL() string { return l.Val.SQL() }
func (*Param) SQL() string     { return "?" }

func (b *BinaryExpr) SQL() string {
	return "(" + b.L.SQL() + " " + b.Op.String() + " " + b.R.SQL() + ")"
}

func (n *NotExpr) SQL() string { return "(NOT " + n.E.SQL() + ")" }
func (n *NegExpr) SQL() string { return "(- " + n.E.SQL() + ")" }

func (b *BetweenExpr) SQL() string {
	not := ""
	if b.Not {
		not = " NOT"
	}
	return "(" + b.E.SQL() + not + " BETWEEN " + b.Lo.SQL() + " AND " + b.Hi.SQL() + ")"
}

func (e *InListExpr) SQL() string {
	not := ""
	if e.Not {
		not = " NOT"
	}
	parts := make([]string, len(e.List))
	for i, x := range e.List {
		parts[i] = x.SQL()
	}
	return "(" + e.E.SQL() + not + " IN (" + strings.Join(parts, ", ") + "))"
}

func (e *InSubquery) SQL() string {
	not := ""
	if e.Not {
		not = " NOT"
	}
	return "(" + e.E.SQL() + not + " IN (" + e.Sub.SQL() + "))"
}

func (e *ExistsExpr) SQL() string {
	not := ""
	if e.Not {
		not = "NOT "
	}
	return "(" + not + "EXISTS (" + e.Sub.SQL() + "))"
}

func (e *ScalarSubquery) SQL() string { return "(" + e.Sub.SQL() + ")" }

func (e *IsNullExpr) SQL() string {
	not := ""
	if e.Not {
		not = " NOT"
	}
	return "(" + e.E.SQL() + " IS" + not + " NULL)"
}

func (e *LikeExpr) SQL() string {
	not := ""
	if e.Not {
		not = " NOT"
	}
	return "(" + e.E.SQL() + not + " LIKE " + e.Pattern.SQL() + ")"
}

func (f *FuncCall) SQL() string {
	if f.Star {
		return f.Name + "(*)"
	}
	parts := make([]string, len(f.Args))
	for i, a := range f.Args {
		parts[i] = a.SQL()
	}
	d := ""
	if f.Distinct {
		d = "DISTINCT "
	}
	return f.Name + "(" + d + strings.Join(parts, ", ") + ")"
}

func (n *NextVal) SQL() string { return quoteIdent(n.Seq) + ".NEXTVAL" }

func (c *CaseExpr) SQL() string {
	var b strings.Builder
	b.WriteString("CASE")
	if c.Operand != nil {
		b.WriteString(" " + c.Operand.SQL())
	}
	for _, w := range c.Whens {
		b.WriteString(" WHEN " + w.When.SQL() + " THEN " + w.Then.SQL())
	}
	if c.Else != nil {
		b.WriteString(" ELSE " + c.Else.SQL())
	}
	b.WriteString(" END")
	return b.String()
}

func (s *Select) SQL() string {
	var b strings.Builder
	b.WriteString("SELECT ")
	if s.Distinct {
		b.WriteString("DISTINCT ")
	}
	for i, it := range s.Items {
		if i > 0 {
			b.WriteString(", ")
		}
		switch {
		case it.Star:
			b.WriteByte('*')
		case it.StarQual != "":
			b.WriteString(quoteIdent(it.StarQual) + ".*")
		default:
			b.WriteString(it.Expr.SQL())
			if it.Alias != "" {
				b.WriteString(" AS " + quoteIdent(it.Alias))
			}
		}
	}
	if len(s.From) > 0 {
		b.WriteString(" FROM ")
		for i, t := range s.From {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(tableRefSQL(t))
		}
	}
	if s.Where != nil {
		b.WriteString(" WHERE " + s.Where.SQL())
	}
	if len(s.GroupBy) > 0 {
		b.WriteString(" GROUP BY ")
		for i, g := range s.GroupBy {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(g.SQL())
		}
	}
	if s.Having != nil {
		b.WriteString(" HAVING " + s.Having.SQL())
	}
	for _, op := range s.SetOps {
		b.WriteString(" " + op.Kind.String())
		if op.All {
			b.WriteString(" ALL")
		}
		b.WriteString(" " + op.Sel.SQL())
	}
	if len(s.OrderBy) > 0 {
		b.WriteString(" ORDER BY ")
		for i, o := range s.OrderBy {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(o.Expr.SQL())
			if o.Desc {
				b.WriteString(" DESC")
			}
		}
	}
	if s.Limit >= 0 {
		fmt.Fprintf(&b, " LIMIT %d", s.Limit)
	}
	if s.Offset > 0 {
		fmt.Fprintf(&b, " OFFSET %d", s.Offset)
	}
	return b.String()
}

func tableRefSQL(t TableRef) string {
	var b strings.Builder
	if t.Sub != nil {
		b.WriteString("(" + t.Sub.SQL() + ")")
	} else {
		b.WriteString(quoteIdent(t.Name))
	}
	if t.Alias != "" {
		b.WriteString(" AS " + quoteIdent(t.Alias))
	}
	for _, j := range t.Joins {
		b.WriteString(" " + j.Kind.String() + " " + tableRefSQL(j.Right) + " ON " + j.On.SQL())
	}
	return b.String()
}

func (c *CreateTable) SQL() string {
	parts := make([]string, len(c.Cols))
	for i, col := range c.Cols {
		parts[i] = quoteIdent(col.Name) + " " + typeSQL(col.Type)
	}
	return "CREATE TABLE " + quoteIdent(c.Name) + " (" + strings.Join(parts, ", ") + ")"
}

func typeSQL(t value.Type) string {
	switch t {
	case value.TypeInt:
		return "INTEGER"
	case value.TypeFloat:
		return "FLOAT"
	case value.TypeString:
		return "VARCHAR"
	case value.TypeDate:
		return "DATE"
	case value.TypeBool:
		return "BOOLEAN"
	default:
		return t.String()
	}
}

func (d *DropTable) SQL() string { return "DROP TABLE " + quoteIdent(d.Name) }

func (c *CreateIndex) SQL() string {
	return "CREATE INDEX " + quoteIdent(c.Name) + " ON " + quoteIdent(c.Table) + " (" + quoteIdent(c.Column) + ")"
}

func (d *DropIndex) SQL() string { return "DROP INDEX " + quoteIdent(d.Name) }
func (c *CreateView) SQL() string {
	return "CREATE VIEW " + quoteIdent(c.Name) + " AS " + c.Query.SQL()
}
func (d *DropView) SQL() string       { return "DROP VIEW " + quoteIdent(d.Name) }
func (c *CreateSequence) SQL() string { return "CREATE SEQUENCE " + quoteIdent(c.Name) }
func (d *DropSequence) SQL() string   { return "DROP SEQUENCE " + quoteIdent(d.Name) }

func (i *Insert) SQL() string {
	var b strings.Builder
	b.WriteString("INSERT INTO " + quoteIdent(i.Table))
	if len(i.Columns) > 0 {
		cols := make([]string, len(i.Columns))
		for j, c := range i.Columns {
			cols[j] = quoteIdent(c)
		}
		b.WriteString(" (" + strings.Join(cols, ", ") + ")")
	}
	if i.Query != nil {
		b.WriteString(" " + i.Query.SQL())
		return b.String()
	}
	b.WriteString(" VALUES ")
	for r, row := range i.Rows {
		if r > 0 {
			b.WriteString(", ")
		}
		parts := make([]string, len(row))
		for j, e := range row {
			parts[j] = e.SQL()
		}
		b.WriteString("(" + strings.Join(parts, ", ") + ")")
	}
	return b.String()
}

func (d *Delete) SQL() string {
	s := "DELETE FROM " + quoteIdent(d.Table)
	if d.Where != nil {
		s += " WHERE " + d.Where.SQL()
	}
	return s
}

func (e *Explain) SQL() string {
	s := "EXPLAIN "
	if e.Analyze {
		s += "ANALYZE "
	}
	return s + e.Query.SQL()
}
func (b *Begin) SQL() string    { return "BEGIN" }
func (c *Commit) SQL() string   { return "COMMIT" }
func (r *Rollback) SQL() string { return "ROLLBACK" }

func (u *Update) SQL() string {
	parts := make([]string, len(u.Set))
	for i, a := range u.Set {
		parts[i] = quoteIdent(a.Column) + " = " + a.Value.SQL()
	}
	s := "UPDATE " + quoteIdent(u.Table) + " SET " + strings.Join(parts, ", ")
	if u.Where != nil {
		s += " WHERE " + u.Where.SQL()
	}
	return s
}

// ---------------------------------------------------------------------------
// Expression tree utilities used by the binder and the MINE RULE
// translator.

// WalkExprs calls fn for every expression node in e, stopping early when
// fn returns false (children of a rejected node are still skipped).
func WalkExprs(e Expr, fn func(Expr) bool) {
	if e == nil || !fn(e) {
		return
	}
	switch x := e.(type) {
	case *BinaryExpr:
		WalkExprs(x.L, fn)
		WalkExprs(x.R, fn)
	case *NotExpr:
		WalkExprs(x.E, fn)
	case *NegExpr:
		WalkExprs(x.E, fn)
	case *BetweenExpr:
		WalkExprs(x.E, fn)
		WalkExprs(x.Lo, fn)
		WalkExprs(x.Hi, fn)
	case *InListExpr:
		WalkExprs(x.E, fn)
		for _, y := range x.List {
			WalkExprs(y, fn)
		}
	case *InSubquery:
		WalkExprs(x.E, fn)
	case *IsNullExpr:
		WalkExprs(x.E, fn)
	case *LikeExpr:
		WalkExprs(x.E, fn)
		WalkExprs(x.Pattern, fn)
	case *FuncCall:
		for _, a := range x.Args {
			WalkExprs(a, fn)
		}
	case *CaseExpr:
		WalkExprs(x.Operand, fn)
		for _, w := range x.Whens {
			WalkExprs(w.When, fn)
			WalkExprs(w.Then, fn)
		}
		WalkExprs(x.Else, fn)
	}
}

// ColumnRefs returns every column reference in the expression, in
// traversal order (subqueries are not descended into).
func ColumnRefs(e Expr) []*ColumnRef {
	var out []*ColumnRef
	WalkExprs(e, func(x Expr) bool {
		if c, ok := x.(*ColumnRef); ok {
			out = append(out, c)
		}
		return true
	})
	return out
}

// HasAggregate reports whether the expression contains an aggregate
// function call (subqueries are not descended into).
func HasAggregate(e Expr) bool {
	found := false
	WalkExprs(e, func(x Expr) bool {
		if f, ok := x.(*FuncCall); ok && f.IsAggregate() {
			found = true
			return false
		}
		return true
	})
	return found
}
