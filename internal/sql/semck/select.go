package semck

import (
	"minerule/internal/sql/parse"
	"minerule/internal/sql/schema"
	"minerule/internal/sql/value"
)

// scope is one level of the name-resolution chain: the schema an
// expression binds against, plus the enclosing query's chain for
// correlated subquery references. It mirrors the executor's binding and
// outerRef pair.
type scope struct {
	s     *schema.Schema
	outer *scope
}

// checkSelect validates a full query — core specification, set
// operations, ORDER BY over the combined result — and returns its
// output schema.
func (c *checker) checkSelect(s *parse.Select, outer *scope) (*schema.Schema, error) {
	allowPreSort := len(s.SetOps) == 0
	out, preSorted, err := c.checkCore(s, outer, allowPreSort)
	if err != nil {
		return nil, err
	}
	for _, op := range s.SetOps {
		right, _, err := c.checkCore(op.Sel, outer, false)
		if err != nil {
			return nil, err
		}
		if right.Len() != out.Len() {
			return nil, c.errf(op.Sel.Pos, "%s operands have %d and %d columns",
				op.Kind, out.Len(), right.Len())
		}
	}
	if len(s.OrderBy) > 0 && !preSorted {
		if err := c.checkOrderBy(s.OrderBy, out, outer); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// checkCore validates one query specification (no set operations). The
// bool result mirrors the executor's pre-sort decision: when the ORDER
// BY will be satisfied against the input relation before projection,
// the caller must not re-check it against the output.
func (c *checker) checkCore(s *parse.Select, outer *scope, allowPreSort bool) (*schema.Schema, bool, error) {
	input, conjs, err := c.checkFrom(s, outer)
	if err != nil {
		return nil, false, err
	}
	// Every WHERE conjunct type-checks under the scope the executor
	// binds it at (nil scope = consumed as a hash-join key, where no
	// expression is compiled).
	for _, cc := range conjs {
		if cc.sc == nil {
			continue
		}
		t, err := c.typeOf(cc.sc, cc.e, false)
		if err != nil {
			return nil, false, err
		}
		if e := c.wantBool(cc.e, t); e != nil {
			return nil, false, e
		}
	}

	grouped := len(s.GroupBy) > 0 || selectHasAgg(s)
	inScope := &scope{s: input, outer: outer}

	preSorted := false
	if allowPreSort && !grouped && !s.Distinct && len(s.OrderBy) > 0 &&
		!c.canOrderByOutput(s, input, outer) && c.canOrder(input, s.OrderBy, outer) {
		preSorted = true
		for _, o := range s.OrderBy {
			if _, err := c.typeOf(inScope, o.Expr, false); err != nil {
				return nil, false, err
			}
		}
	}

	var out *schema.Schema
	if grouped {
		out, err = c.checkGroup(s, input, outer)
	} else {
		if s.Having != nil {
			return nil, false, c.errf(parse.ExprOffset(s.Having), "HAVING without GROUP BY or aggregates")
		}
		out, err = c.checkProject(s, input, outer)
	}
	if err != nil {
		return nil, false, err
	}
	return out, preSorted, nil
}

// conjCheck is one WHERE conjunct with the scope the executor will
// compile it under; sc is nil when the conjunct is consumed as an
// equi-join key pair and never compiled as an expression.
type conjCheck struct {
	e  parse.Expr
	sc *scope
}

// checkFrom resolves the FROM list and replays the executor's conjunct
// placement: each WHERE conjunct is claimed by the first relation scope
// it compiles against (single table, then each widened join prefix),
// join-key equalities are consumed structurally, and the rest bind
// against the full joined schema.
func (c *checker) checkFrom(s *parse.Select, outer *scope) (*schema.Schema, []conjCheck, error) {
	conjuncts := splitConjuncts(s.Where)

	if len(s.From) == 0 {
		empty := schema.New("")
		sc := &scope{s: empty, outer: outer}
		out := make([]conjCheck, len(conjuncts))
		for i, e := range conjuncts {
			out[i] = conjCheck{e: e, sc: sc}
		}
		return empty, out, nil
	}

	used := make([]bool, len(conjuncts))
	scopes := make([]*scope, len(conjuncts))
	applyLocal := func(sch *schema.Schema) {
		sc := &scope{s: sch, outer: outer}
		for i, e := range conjuncts {
			if used[i] {
				continue
			}
			if c.compiles(sc, e) {
				used[i] = true
				scopes[i] = sc
			}
		}
	}

	cur, err := c.scanSchema(s.From[0], outer)
	if err != nil {
		return nil, nil, err
	}
	applyLocal(cur)
	for _, tr := range s.From[1:] {
		right, err := c.scanSchema(tr, outer)
		if err != nil {
			return nil, nil, err
		}
		applyLocal(right)
		for i, e := range conjuncts {
			if used[i] {
				continue
			}
			if isEquiJoin(e, cur, right) {
				used[i] = true // scopes[i] stays nil: hash-join key
			}
		}
		cur = cur.Append(right)
		applyLocal(cur)
	}

	full := &scope{s: cur, outer: outer}
	out := make([]conjCheck, len(conjuncts))
	for i, e := range conjuncts {
		sc := scopes[i]
		if !used[i] {
			// Residual conjunct: the executor compiles it against the
			// joined relation, so an unresolved name surfaces there.
			sc = full
		}
		out[i] = conjCheck{e: e, sc: sc}
	}
	return cur, out, nil
}

// scanSchema resolves one FROM element including its explicit JOIN
// chain, checking each ON condition the way the executor compiles it:
// equi-key conjuncts are consumed structurally, the rest bind against
// the combined schema of the two sides.
func (c *checker) scanSchema(tr parse.TableRef, outer *scope) (*schema.Schema, error) {
	cur, err := c.baseSchema(tr, outer)
	if err != nil {
		return nil, err
	}
	for _, j := range tr.Joins {
		right, err := c.baseSchema(j.Right, outer)
		if err != nil {
			return nil, err
		}
		combined := cur.Append(right)
		onScope := &scope{s: combined, outer: outer}
		for _, e := range splitConjuncts(j.On) {
			if isEquiJoin(e, cur, right) {
				continue
			}
			t, err := c.typeOf(onScope, e, false)
			if err != nil {
				return nil, err
			}
			if e2 := c.wantBool(e, t); e2 != nil {
				return nil, e2
			}
		}
		cur = combined
	}
	return cur, nil
}

// baseSchema resolves a base table, view or derived table to its
// schema, applying the alias as qualifier exactly as the executor's
// scanBase does.
func (c *checker) baseSchema(tr parse.TableRef, outer *scope) (*schema.Schema, error) {
	var s *schema.Schema
	qual := tr.Alias
	switch {
	case tr.Sub != nil:
		sub, err := c.checkSelect(tr.Sub, outer)
		if err != nil {
			return nil, err
		}
		s = sub
	default:
		if ts, ok := c.cat.TableSchema(tr.Name); ok {
			s = ts
			if qual == "" {
				qual = tr.Name
			}
			break
		}
		if text, ok := c.cat.ViewText(tr.Name); ok {
			vs, err := c.viewSchema(tr, text, outer)
			if err != nil {
				return nil, err
			}
			s = vs
			if qual == "" {
				qual = tr.Name
			}
			break
		}
		return nil, c.errf(tr.Pos, "unknown table or view %q", tr.Name)
	}
	if qual != "" {
		s = s.WithQualifier(qual)
	}
	return s, nil
}

// viewSchema checks a view body under the current outer chain (the
// executor re-plans views inside the enclosing environment, so a view
// body may hold correlated references). Diagnostics inside the body
// point at positions in the view's stored text, not the statement being
// checked, so they re-anchor at the referencing table position.
func (c *checker) viewSchema(tr parse.TableRef, text string, outer *scope) (*schema.Schema, error) {
	if c.viewDepth >= maxViewDepth {
		return nil, c.errf(tr.Pos, "view %s: nesting exceeds %d levels", tr.Name, maxViewDepth)
	}
	st, err := parse.Parse(text)
	if err != nil {
		return nil, c.errf(tr.Pos, "corrupt view %s: %v", tr.Name, err)
	}
	sel, ok := st.(*parse.Select)
	if !ok {
		return nil, c.errf(tr.Pos, "view %s is not a SELECT", tr.Name)
	}
	sub := &checker{cat: c.cat, src: text, viewDepth: c.viewDepth + 1}
	vs, verr := sub.checkSelect(sel, outer)
	if verr != nil {
		msg := verr.Error()
		if se, ok := verr.(*Error); ok {
			msg = se.Msg
		}
		return nil, c.errf(tr.Pos, "view %s: %s", tr.Name, msg)
	}
	return vs, nil
}

// isEquiJoin mirrors the executor's hash-join key detection: an
// equality of two column references that resolve on opposite sides and
// are absent from each other's side, in either orientation.
func isEquiJoin(e parse.Expr, left, right *schema.Schema) bool {
	be, ok := e.(*parse.BinaryExpr)
	if !ok || be.Op != parse.OpEq {
		return false
	}
	lc, lok := be.L.(*parse.ColumnRef)
	rc, rok := be.R.(*parse.ColumnRef)
	if !lok || !rok {
		return false
	}
	if left.Has(lc.Qual, lc.Name) && right.Has(rc.Qual, rc.Name) &&
		!right.Has(lc.Qual, lc.Name) && !left.Has(rc.Qual, rc.Name) {
		return true
	}
	if left.Has(rc.Qual, rc.Name) && right.Has(lc.Qual, lc.Name) &&
		!right.Has(rc.Qual, rc.Name) && !left.Has(lc.Qual, lc.Name) {
		return true
	}
	return false
}

// projItem is one resolved output column: a star-expanded input column
// or an expression item.
type projItem struct {
	col  schema.Column
	expr parse.Expr // nil for star expansions
}

// expandItems resolves *, qual.* and expression items against the input
// schema, mirroring the executor's projection naming rules.
func (c *checker) expandItems(s *parse.Select, in *schema.Schema) ([]projItem, error) {
	var items []projItem
	for _, it := range s.Items {
		switch {
		case it.Star:
			for i := 0; i < in.Len(); i++ {
				items = append(items, projItem{col: in.Col(i)})
			}
		case it.StarQual != "":
			q := lowerQual(it.StarQual)
			found := false
			for i := 0; i < in.Len(); i++ {
				if in.Qual(i) == q {
					items = append(items, projItem{col: in.Col(i)})
					found = true
				}
			}
			if !found {
				return nil, c.errf(it.Pos, "unknown relation %q in %s.*", it.StarQual, it.StarQual)
			}
		default:
			name := it.Alias
			if name == "" {
				switch x := it.Expr.(type) {
				case *parse.ColumnRef:
					name = x.Name
				case *parse.FuncCall:
					name = x.Name
				case *parse.NextVal:
					name = "NEXTVAL"
				default:
					name = colN(len(items) + 1)
				}
			}
			items = append(items, projItem{col: schema.Column{Name: name}, expr: it.Expr})
		}
	}
	return items, nil
}

// checkProject validates a non-grouped projection and returns the
// output schema with statically inferred column types.
func (c *checker) checkProject(s *parse.Select, in *schema.Schema, outer *scope) (*schema.Schema, error) {
	items, err := c.expandItems(s, in)
	if err != nil {
		return nil, err
	}
	sc := &scope{s: in, outer: outer}
	cols := make([]schema.Column, len(items))
	for i, it := range items {
		cols[i] = it.col
		if it.expr != nil {
			t, err := c.typeOf(sc, it.expr, false)
			if err != nil {
				return nil, err
			}
			cols[i].Type = t
		}
	}
	return schema.New("", cols...), nil
}

// checkGroup validates GROUP BY keys (no aggregates), aggregate
// arguments (no nesting), the projection and HAVING (aggregates
// allowed), mirroring the executor's two binding modes.
func (c *checker) checkGroup(s *parse.Select, in *schema.Schema, outer *scope) (*schema.Schema, error) {
	items, err := c.expandItems(s, in)
	if err != nil {
		return nil, err
	}
	sc := &scope{s: in, outer: outer}
	for _, g := range s.GroupBy {
		if _, err := c.typeOf(sc, g, false); err != nil {
			return nil, err
		}
	}
	cols := make([]schema.Column, len(items))
	for i, it := range items {
		cols[i] = it.col
		if it.expr != nil {
			t, err := c.typeOf(sc, it.expr, true)
			if err != nil {
				return nil, err
			}
			cols[i].Type = t
		}
	}
	if s.Having != nil {
		t, err := c.typeOf(sc, s.Having, true)
		if err != nil {
			return nil, err
		}
		if e := c.wantBool(s.Having, t); e != nil {
			return nil, e
		}
	}
	return schema.New("", cols...), nil
}

// checkOrderBy validates ORDER BY against the output schema: 1-based
// integer ordinals must address an output column, and every other key
// must resolve there, with the executor's qualified→unqualified
// fallback for column references the projection stripped.
func (c *checker) checkOrderBy(order []parse.OrderItem, out *schema.Schema, outer *scope) error {
	sc := &scope{s: out, outer: outer}
	for _, o := range order {
		if lit, ok := o.Expr.(*parse.Literal); ok && lit.Val.Type() == value.TypeInt {
			ord := int(lit.Val.Int()) - 1
			if ord < 0 || ord >= out.Len() {
				return c.errf(lit.Pos, "ORDER BY position %d out of range", ord+1)
			}
			continue
		}
		if _, err := c.typeOf(sc, o.Expr, false); err != nil {
			if cr, ok := o.Expr.(*parse.ColumnRef); ok && cr.Qual != "" {
				if _, err2 := c.typeOf(sc, &parse.ColumnRef{Name: cr.Name, Pos: cr.Pos}, false); err2 == nil {
					continue
				}
			}
			return err
		}
	}
	return nil
}

// canOrder mirrors the executor's pre-sort eligibility test: every key
// must compile against the schema and none may be an integer ordinal.
func (c *checker) canOrder(sch *schema.Schema, order []parse.OrderItem, outer *scope) bool {
	sc := &scope{s: sch, outer: outer}
	for _, o := range order {
		if lit, ok := o.Expr.(*parse.Literal); ok && lit.Val.Type() == value.TypeInt {
			return false
		}
		if !c.compiles(sc, o.Expr) {
			return false
		}
	}
	return true
}

// canOrderByOutput mirrors the executor: would the ORDER BY resolve
// against the projection's column names alone?
func (c *checker) canOrderByOutput(s *parse.Select, in *schema.Schema, outer *scope) bool {
	items, err := c.expandItems(s, in)
	if err != nil {
		return false
	}
	cols := make([]schema.Column, len(items))
	for i, it := range items {
		cols[i] = it.col
	}
	return c.canOrder(schema.New("", cols...), s.OrderBy, outer)
}

func selectHasAgg(s *parse.Select) bool {
	for _, it := range s.Items {
		if it.Expr != nil && parse.HasAggregate(it.Expr) {
			return true
		}
	}
	return s.Having != nil && parse.HasAggregate(s.Having)
}

// splitConjuncts flattens a WHERE tree over AND, as the executor does.
func splitConjuncts(e parse.Expr) []parse.Expr {
	if e == nil {
		return nil
	}
	if b, ok := e.(*parse.BinaryExpr); ok && b.Op == parse.OpAnd {
		return append(splitConjuncts(b.L), splitConjuncts(b.R)...)
	}
	return []parse.Expr{e}
}
