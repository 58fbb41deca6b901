// Package parse implements the MINE RULE parser. It tokenizes with the
// shared SQL lexer and delegates embedded conditions (mining, source,
// group and cluster conditions) to the SQL expression parser, so that
// everything the translator later splices into SQL programs is already a
// well-formed SQL expression.
package parse

import (
	"fmt"
	"strconv"
	"strings"

	"minerule/internal/minerule/ast"
	"minerule/internal/sql/lex"
	sqlparse "minerule/internal/sql/parse"
)

// Parse parses one MINE RULE statement (a trailing semicolon is allowed).
// A ? parameter marker is rejected: the statement becomes generated SQL
// programs, so there is no execution to bind a value to.
func Parse(src string) (*ast.Statement, error) {
	p := &parser{src: src}
	toks, err := lex.Lex(src)
	if err != nil {
		return nil, err
	}
	for _, t := range toks {
		if t.IsPunct("?") {
			return nil, fmt.Errorf("minerule: parameter ? is not allowed in MINE RULE (at offset %d)", t.Pos)
		}
	}
	p.toks = toks
	st, err := p.statement()
	if err != nil {
		return nil, err
	}
	p.accept(";")
	if p.peek().Kind != lex.EOF {
		return nil, p.errf("unexpected %s after statement", p.peek())
	}
	return st, nil
}

// IsMineRule reports whether the text begins a MINE RULE statement,
// letting tooling route mixed scripts between the two parsers.
func IsMineRule(src string) bool {
	_, explain, ok := Target(src)
	return ok && !explain
}

// Target reports whether src is a MINE RULE statement, bare or after
// EXPLAIN, from one pass of the SQL lexer: rest is the MINE RULE text
// and explain tells whether EXPLAIN preceded it.
func Target(src string) (rest string, explain, ok bool) {
	toks, err := lex.Lex(src)
	if err != nil {
		return "", false, false
	}
	if explain = toks[0].IsKeyword("explain"); explain {
		toks = toks[1:]
	}
	if len(toks) < 2 || !toks[0].IsKeyword("mine") || !toks[1].IsKeyword("rule") {
		return "", false, false
	}
	return src[toks[0].Pos:], explain, true
}

type parser struct {
	toks []lex.Token
	pos  int
	src  string
}

func (p *parser) peek() lex.Token { return p.toks[p.pos] }
func (p *parser) next() lex.Token { t := p.toks[p.pos]; p.pos++; return t }

func (p *parser) errf(format string, args ...interface{}) error {
	return fmt.Errorf("minerule: "+format+" (at offset %d)", append(args, p.peek().Pos)...)
}

func (p *parser) accept(punct string) bool {
	if p.peek().IsPunct(punct) {
		p.pos++
		return true
	}
	return false
}

func (p *parser) expect(punct string) error {
	if !p.accept(punct) {
		return p.errf("expected %q, got %s", punct, p.peek())
	}
	return nil
}

func (p *parser) acceptKw(kw string) bool {
	if p.peek().IsKeyword(kw) {
		p.pos++
		return true
	}
	return false
}

func (p *parser) expectKw(kw string) error {
	if !p.acceptKw(kw) {
		return p.errf("expected %s, got %s", strings.ToUpper(kw), p.peek())
	}
	return nil
}

func (p *parser) ident() (string, error) {
	t := p.peek()
	if t.Kind != lex.Ident {
		return "", p.errf("expected identifier, got %s", t)
	}
	p.pos++
	return t.Text, nil
}

// condUntil hands the token span from the current position up to the
// first depth-0 occurrence of any stop keyword (or EOF/';') to the SQL
// expression parser.
func (p *parser) condUntil(stops ...string) (sqlparse.Expr, error) {
	depth := 0
	start := p.pos
	i := p.pos
scan:
	for ; ; i++ {
		t := p.toks[i]
		switch {
		case t.Kind == lex.EOF || t.IsPunct(";"):
			break scan
		case t.IsPunct("("):
			depth++
		case t.IsPunct(")"):
			depth--
		case depth == 0 && t.Kind == lex.Ident:
			for _, s := range stops {
				if t.IsKeyword(s) {
					break scan
				}
			}
		}
	}
	if i == start {
		return nil, p.errf("empty condition")
	}
	text := p.src[p.toks[start].Pos:p.toks[i].Pos]
	e, err := sqlparse.ParseExpr(text)
	if err != nil {
		return nil, fmt.Errorf("minerule: in condition %q: %w", strings.TrimSpace(text), err)
	}
	p.pos = i
	return e, nil
}

func (p *parser) statement() (*ast.Statement, error) {
	st := &ast.Statement{}
	if err := p.expectKw("mine"); err != nil {
		return nil, err
	}
	if err := p.expectKw("rule"); err != nil {
		return nil, err
	}
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	st.Output = name
	if err := p.expectKw("as"); err != nil {
		return nil, err
	}
	if err := p.expectKw("select"); err != nil {
		return nil, err
	}
	if err := p.expectKw("distinct"); err != nil {
		return nil, err
	}

	// <body descr>, <head descr>
	body, role, err := p.elementDescr()
	if err != nil {
		return nil, err
	}
	if role != "BODY" {
		return nil, p.errf("first element must be AS BODY, got AS %s", role)
	}
	if body.Card == (ast.CardSpec{}) {
		body.Card = ast.DefaultBodyCard
	}
	st.Body = body
	if err := p.expect(","); err != nil {
		return nil, err
	}
	head, role, err := p.elementDescr()
	if err != nil {
		return nil, err
	}
	if role != "HEAD" {
		return nil, p.errf("second element must be AS HEAD, got AS %s", role)
	}
	if head.Card == (ast.CardSpec{}) {
		head.Card = ast.DefaultHeadCard
	}
	st.Head = head

	// [, SUPPORT] [, CONFIDENCE]
	for p.accept(",") {
		switch {
		case p.acceptKw("support"):
			st.WantSupport = true
		case p.acceptKw("confidence"):
			st.WantConfidence = true
		default:
			return nil, p.errf("expected SUPPORT or CONFIDENCE, got %s", p.peek())
		}
	}

	// [WHERE <mining cond>]
	if p.acceptKw("where") {
		e, err := p.condUntil("from")
		if err != nil {
			return nil, err
		}
		st.MiningCond = e
	}

	if err := p.expectKw("from"); err != nil {
		return nil, err
	}
	for {
		tn, err := p.ident()
		if err != nil {
			return nil, err
		}
		tr := sqlparse.TableRef{Name: tn}
		if p.acceptKw("as") {
			a, err := p.ident()
			if err != nil {
				return nil, err
			}
			tr.Alias = a
		} else if t := p.peek(); t.Kind == lex.Ident &&
			!t.IsKeyword("where") && !t.IsKeyword("group") {
			a, _ := p.ident()
			tr.Alias = a
		}
		st.From = append(st.From, tr)
		if !p.accept(",") {
			break
		}
	}

	// [WHERE <source cond>]
	if p.acceptKw("where") {
		e, err := p.condUntil("group")
		if err != nil {
			return nil, err
		}
		st.SourceCond = e
	}

	if err := p.expectKw("group"); err != nil {
		return nil, err
	}
	if err := p.expectKw("by"); err != nil {
		return nil, err
	}
	attrs, err := p.attrList()
	if err != nil {
		return nil, err
	}
	st.GroupAttrs = attrs
	if p.acceptKw("having") {
		e, err := p.condUntil("cluster", "extracting")
		if err != nil {
			return nil, err
		}
		st.GroupCond = e
	}

	if p.acceptKw("cluster") {
		if err := p.expectKw("by"); err != nil {
			return nil, err
		}
		attrs, err := p.attrList()
		if err != nil {
			return nil, err
		}
		st.ClusterAttrs = attrs
		if p.acceptKw("having") {
			e, err := p.condUntil("extracting")
			if err != nil {
				return nil, err
			}
			st.ClusterCond = e
		}
	}

	if err := p.expectKw("extracting"); err != nil {
		return nil, err
	}
	if err := p.expectKw("rules"); err != nil {
		return nil, err
	}
	if err := p.expectKw("with"); err != nil {
		return nil, err
	}
	if err := p.expectKw("support"); err != nil {
		return nil, err
	}
	if err := p.expect(":"); err != nil {
		return nil, err
	}
	s, err := p.number()
	if err != nil {
		return nil, err
	}
	st.MinSupport = s
	if err := p.expect(","); err != nil {
		return nil, err
	}
	if err := p.expectKw("confidence"); err != nil {
		return nil, err
	}
	if err := p.expect(":"); err != nil {
		return nil, err
	}
	c, err := p.number()
	if err != nil {
		return nil, err
	}
	st.MinConfidence = c
	if st.MinSupport < 0 || st.MinSupport > 1 || st.MinConfidence < 0 || st.MinConfidence > 1 {
		return nil, fmt.Errorf("minerule: support and confidence must lie in [0, 1]")
	}
	return st, nil
}

// elementDescr parses "[<cardspec>] <attr list> AS BODY|HEAD". A zero
// CardSpec signals "use the grammar default".
func (p *parser) elementDescr() (ast.ElementDescr, string, error) {
	var d ast.ElementDescr
	if p.peek().Kind == lex.Number {
		lo, err := p.cardBound(false)
		if err != nil {
			return d, "", err
		}
		if err := p.expect(".."); err != nil {
			return d, "", err
		}
		hi, err := p.cardBound(true)
		if err != nil {
			return d, "", err
		}
		d.Card = ast.CardSpec{Min: lo, Max: hi}
		if d.Card.Min < 1 {
			return d, "", p.errf("cardinality lower bound must be >= 1")
		}
		if d.Card.Max != ast.Unbounded && d.Card.Max < d.Card.Min {
			return d, "", p.errf("cardinality upper bound below lower bound")
		}
	}
	for {
		a, err := p.ident()
		if err != nil {
			return d, "", err
		}
		if strings.EqualFold(a, "as") {
			return d, "", p.errf("missing attribute list before AS")
		}
		d.Attrs = append(d.Attrs, a)
		if !p.accept(",") {
			break
		}
	}
	if err := p.expectKw("as"); err != nil {
		return d, "", err
	}
	role, err := p.ident()
	if err != nil {
		return d, "", err
	}
	return d, strings.ToUpper(role), nil
}

// cardBound parses one bound of a cardspec; "n" (allowed when upper is
// true) yields Unbounded.
func (p *parser) cardBound(upper bool) (int, error) {
	t := p.peek()
	if upper && t.IsKeyword("n") {
		p.pos++
		return ast.Unbounded, nil
	}
	if t.Kind != lex.Number {
		return 0, p.errf("expected cardinality bound, got %s", t)
	}
	p.pos++
	v, err := strconv.Atoi(t.Text)
	if err != nil {
		return 0, p.errf("bad cardinality %q", t.Text)
	}
	if upper && v == 0 {
		return 0, p.errf("cardinality upper bound must be >= 1 or n")
	}
	return v, nil
}

func (p *parser) attrList() ([]string, error) {
	var out []string
	for {
		a, err := p.ident()
		if err != nil {
			return nil, err
		}
		out = append(out, a)
		if !p.accept(",") {
			break
		}
	}
	return out, nil
}

func (p *parser) number() (float64, error) {
	t := p.peek()
	if t.Kind != lex.Number {
		return 0, p.errf("expected number, got %s", t)
	}
	p.pos++
	f, err := strconv.ParseFloat(t.Text, 64)
	if err != nil {
		return 0, p.errf("bad number %q", t.Text)
	}
	return f, nil
}
