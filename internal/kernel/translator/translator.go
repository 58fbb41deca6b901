// Package translator implements the first kernel component of the
// paper's architecture (§4.1): it checks a MINE RULE statement against
// the data dictionary, classifies it through the boolean variables
// H, W, M, G, C, K, F and R, and produces the translation programs (SQL
// text) that drive the preprocessor and postprocessor, plus the
// directives that select the core-processing variant.
package translator

import (
	"fmt"
	"sort"
	"strings"

	"minerule/internal/minerule/ast"
	"minerule/internal/sql/engine"
	"minerule/internal/sql/parse"
	"minerule/internal/sql/schema"
	"minerule/internal/sql/value"
)

// Class holds the paper's classification variables (§4.1). The first
// five are orthogonal; K ⇒ C, F ⇒ K and R ⇒ G by construction.
type Class struct {
	H bool // body and head on different attributes
	W bool // source condition (or a join) present
	M bool // mining condition present
	G bool // group HAVING present
	C bool // CLUSTER BY present
	K bool // cluster HAVING present
	F bool // aggregates in the cluster HAVING
	R bool // aggregates in the group HAVING
}

// Simple reports whether the statement falls in the simple-association-
// rules class (Figure 3.b): same body/head attributes, no clusters, no
// mining condition.
func (c Class) Simple() bool { return !c.H && !c.C && !c.M }

// String renders the set of true variables, e.g. "{H,C,K}".
func (c Class) String() string {
	var on []string
	for _, v := range []struct {
		n string
		b bool
	}{{"H", c.H}, {"W", c.W}, {"M", c.M}, {"G", c.G}, {"C", c.C}, {"K", c.K}, {"F", c.F}, {"R", c.R}} {
		if v.b {
			on = append(on, v.n)
		}
	}
	return "{" + strings.Join(on, ",") + "}"
}

// Names fixes the identifiers of every working object a statement uses.
// All names are prefixed with the output-table name so that independent
// MINE RULE runs do not collide in the shared DBMS.
type Names struct {
	Prefix string

	Source          string // materialized source data (Q0, when W)
	ValidGroupsView string // Q2
	ValidGroups     string // Q2
	GroupsInBody    string // Q3 temporary
	Bset            string // Q3
	GroupsInHead    string // Q5 temporary
	Hset            string // Q5
	Clusters        string // Q6
	ClusterCouples  string // Q7
	MiningSource    string // Q4b
	CodedSource     string // Q4 / Q11
	Elementary      string // Q8
	LargeRules      string // Q9
	InputRules      string // Q10
	OutputRules     string // core → postprocessor
	OutputBodies    string
	OutputHeads     string

	GidSeq    string
	BidSeq    string
	HidSeq    string
	CidSeq    string
	BodyIDSeq string
	HeadIDSeq string

	Meta string // preprocessing metadata for reuse (§3)

	Output      string // user-visible rule table
	OutputBodyT string // <output>_Bodies
	OutputHeadT string // <output>_Heads
}

func makeNames(output string) Names {
	p := "mr_" + strings.ToLower(output) + "_"
	return Names{
		Prefix:          p,
		Source:          p + "source",
		ValidGroupsView: p + "validgroupsview",
		ValidGroups:     p + "validgroups",
		GroupsInBody:    p + "groupsinbody",
		Bset:            p + "bset",
		GroupsInHead:    p + "groupsinhead",
		Hset:            p + "hset",
		Clusters:        p + "clusters",
		ClusterCouples:  p + "clustercouples",
		MiningSource:    p + "miningsource",
		CodedSource:     p + "codedsource",
		Elementary:      p + "elementaryrules",
		LargeRules:      p + "largerules",
		InputRules:      p + "inputrules",
		OutputRules:     p + "outputrules",
		OutputBodies:    p + "outputbodies",
		OutputHeads:     p + "outputheads",
		GidSeq:          p + "gidseq",
		BidSeq:          p + "bidseq",
		HidSeq:          p + "hidseq",
		CidSeq:          p + "cidseq",
		BodyIDSeq:       p + "bodyidseq",
		HeadIDSeq:       p + "headidseq",
		Meta:            p + "meta",
		Output:          output,
		OutputBodyT:     output + "_Bodies",
		OutputHeadT:     output + "_Heads",
	}
}

// clusterAgg is one aggregate occurring in the cluster condition; Q6
// computes it per cluster into the column Col.
type clusterAgg struct {
	Func string // COUNT, SUM, …
	Attr string // source attribute aggregated
	Col  string // column name in the Clusters table ("agg_0", …)
}

// Translation is the translator's full output: classification,
// directives, working names and the generated SQL programs.
type Translation struct {
	Stmt  *ast.Statement
	Class Class
	Names Names

	// NeededAttrs is the paper's <needed attr list>: every source
	// attribute the mining process touches, deduplicated, with types.
	NeededAttrs []schema.Column
	// MineAttrs are the attributes referenced by the mining condition.
	MineAttrs []string
	// ClusterAggs are the aggregates of the cluster condition (F).
	ClusterAggs []clusterAgg

	Program Program
}

// attrSet answers membership case-insensitively, matching SQL rules.
type attrSet map[string]bool

func newAttrSet(names []string) attrSet {
	s := make(attrSet, len(names))
	for _, n := range names {
		s[strings.ToLower(n)] = true
	}
	return s
}

func (s attrSet) has(n string) bool { return s[strings.ToLower(n)] }

// Translate checks and classifies the statement against db's data
// dictionary and generates the SQL programs.
func Translate(db *engine.Database, st *ast.Statement) (*Translation, error) {
	tr := &Translation{Stmt: st, Names: makeNames(st.Output)}

	srcSchema, err := sourceSchema(db, st)
	if err != nil {
		return nil, err
	}

	groupSet := newAttrSet(st.GroupAttrs)
	clusterSet := newAttrSet(st.ClusterAttrs)

	// Check 2: grouping and clustering attributes disjoint; body and
	// head schemas disjoint from both.
	for _, a := range st.ClusterAttrs {
		if groupSet.has(a) {
			return nil, fmt.Errorf("translator: attribute %q appears in both GROUP BY and CLUSTER BY", a)
		}
	}
	for _, role := range []struct {
		what  string
		attrs []string
	}{{"body", st.Body.Attrs}, {"head", st.Head.Attrs}} {
		for _, a := range role.attrs {
			if groupSet.has(a) || clusterSet.has(a) {
				return nil, fmt.Errorf("translator: %s attribute %q overlaps grouping or clustering attributes", role.what, a)
			}
		}
	}

	// Check 1: every attribute list resolves on the source schema. The
	// "mr_" namespace is reserved for the kernel's encoded columns; the
	// decode step additionally claims BodyId/HeadId (and SUPPORT/
	// CONFIDENCE when requested) in the output tables.
	resolveAll := func(what string, attrs []string) error {
		for _, a := range attrs {
			if strings.HasPrefix(strings.ToLower(a), "mr_") {
				return fmt.Errorf("translator: %s attribute %q: the mr_ prefix is reserved for encoded columns", what, a)
			}
			switch strings.ToLower(a) {
			case "bodyid", "headid", "support", "confidence":
				if what == "body" || what == "head" {
					return fmt.Errorf("translator: %s attribute %q collides with an output column name", what, a)
				}
			}
			if _, err := srcSchema.Resolve("", a); err != nil {
				return fmt.Errorf("translator: %s attribute %q: %v", what, a, err)
			}
		}
		return nil
	}
	for _, l := range []struct {
		what  string
		attrs []string
	}{
		{"body", st.Body.Attrs}, {"head", st.Head.Attrs},
		{"grouping", st.GroupAttrs}, {"clustering", st.ClusterAttrs},
	} {
		if err := resolveAll(l.what, l.attrs); err != nil {
			return nil, err
		}
	}

	// Classification (orthogonal variables).
	tr.Class.H = !sameAttrSet(st.Body.Attrs, st.Head.Attrs)
	tr.Class.W = st.SourceCond != nil || len(st.From) > 1
	tr.Class.M = st.MiningCond != nil
	tr.Class.G = st.GroupCond != nil
	tr.Class.C = len(st.ClusterAttrs) > 0
	tr.Class.K = st.ClusterCond != nil
	if tr.Class.K {
		tr.Class.F = parse.HasAggregate(st.ClusterCond)
	}
	if tr.Class.G {
		tr.Class.R = parse.HasAggregate(st.GroupCond)
	}

	// Check 3a: group HAVING refers only to grouping attributes (plain
	// references; aggregate arguments may touch any source attribute).
	var aggAttrs []string
	if tr.Class.G {
		attrs, err := checkGroupCond(st.GroupCond, groupSet, srcSchema)
		if err != nil {
			return nil, err
		}
		aggAttrs = append(aggAttrs, attrs...)
	}

	// Check 3b + F handling: cluster HAVING refers to BODY./HEAD.
	// qualified clustering attributes; its aggregates to any qualified
	// source attribute.
	if tr.Class.K {
		aggs, attrs, err := checkClusterCond(st.ClusterCond, clusterSet, srcSchema)
		if err != nil {
			return nil, err
		}
		tr.ClusterAggs = aggs
		aggAttrs = append(aggAttrs, attrs...)
	}

	// Check 4: mining condition refers (BODY/HEAD-qualified) to any
	// attribute except grouping and clustering ones.
	if tr.Class.M {
		mine, err := checkMiningCond(st.MiningCond, groupSet, clusterSet, srcSchema)
		if err != nil {
			return nil, err
		}
		tr.MineAttrs = mine
	}

	// The <needed attr list>: group, cluster, body, head, mining and
	// aggregate attributes, first occurrence wins.
	tr.NeededAttrs = neededAttrs(srcSchema,
		st.GroupAttrs, st.ClusterAttrs, st.Body.Attrs, st.Head.Attrs, tr.MineAttrs, aggAttrs)

	if err := tr.generate(); err != nil {
		return nil, err
	}
	// Every generated program must pass the engine's own prepare-time
	// semantic analysis before anything executes (paper Figure 3.a: the
	// translator consults the data dictionary, not the data).
	if err := tr.selfCheckCached(db.Catalog()); err != nil {
		return nil, err
	}
	return tr, nil
}

// sourceSchema joins the FROM tables' schemas, applying aliases, exactly
// as the engine would for the FROM list.
func sourceSchema(db *engine.Database, st *ast.Statement) (*schema.Schema, error) {
	if len(st.From) == 0 {
		return nil, fmt.Errorf("translator: empty FROM list")
	}
	var joined *schema.Schema
	for _, tref := range st.From {
		t, ok := db.Catalog().Table(tref.Name)
		var s *schema.Schema
		if ok {
			s = t.Schema()
		} else if v, vok := db.Catalog().View(tref.Name); vok {
			// Derive the view schema by planning an empty query on it.
			res, err := db.Query("SELECT * FROM " + v.Name + " WHERE 1 = 0")
			if err != nil {
				return nil, fmt.Errorf("translator: view %s: %w", v.Name, err)
			}
			s = res.Schema
		} else {
			return nil, fmt.Errorf("translator: unknown table %q in FROM", tref.Name)
		}
		qual := tref.Alias
		if qual == "" {
			qual = tref.Name
		}
		s = s.WithQualifier(qual)
		if joined == nil {
			joined = s
		} else {
			joined = joined.Append(s)
		}
	}
	return joined, nil
}

func sameAttrSet(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	as := newAttrSet(a)
	for _, x := range b {
		if !as.has(x) {
			return false
		}
	}
	return true
}

// checkGroupCond validates the group HAVING and returns the attributes
// its aggregates touch.
func checkGroupCond(cond parse.Expr, groupSet attrSet, src *schema.Schema) ([]string, error) {
	var aggAttrs []string
	var fail error
	parse.WalkExprs(cond, func(e parse.Expr) bool {
		switch x := e.(type) {
		case *parse.FuncCall:
			if !x.IsAggregate() {
				return true
			}
			for _, a := range x.Args {
				cr, ok := a.(*parse.ColumnRef)
				if !ok {
					fail = fmt.Errorf("translator: group HAVING aggregate arguments must be plain attributes")
					return false
				}
				if _, err := src.Resolve("", cr.Name); err != nil {
					fail = fmt.Errorf("translator: group HAVING: %v", err)
					return false
				}
				aggAttrs = append(aggAttrs, cr.Name)
			}
			return false // don't re-visit args as plain refs
		case *parse.ColumnRef:
			if x.Qual != "" {
				fail = fmt.Errorf("translator: group HAVING must not qualify attributes (%s)", x.SQL())
				return false
			}
			if !groupSet.has(x.Name) {
				fail = fmt.Errorf("translator: group HAVING may refer only to grouping attributes, got %q", x.Name)
				return false
			}
		case *parse.ScalarSubquery, *parse.InSubquery, *parse.ExistsExpr:
			fail = fmt.Errorf("translator: subqueries are not allowed in the group HAVING")
			return false
		}
		return true
	})
	return aggAttrs, fail
}

// checkClusterCond validates the cluster HAVING, collecting its
// aggregates (F) and the source attributes they touch. Plain references
// must be BODY.<cluster attr> or HEAD.<cluster attr>; aggregate
// arguments must be BODY/HEAD-qualified source attributes.
func checkClusterCond(cond parse.Expr, clusterSet attrSet, src *schema.Schema) ([]clusterAgg, []string, error) {
	var (
		aggs     []clusterAgg
		aggAttrs []string
		fail     error
	)
	seen := make(map[string]string) // "SUM(price)" → column
	parse.WalkExprs(cond, func(e parse.Expr) bool {
		switch x := e.(type) {
		case *parse.FuncCall:
			if !x.IsAggregate() {
				return true
			}
			if x.Star {
				fail = fmt.Errorf("translator: COUNT(*) in the cluster HAVING is ambiguous; aggregate a BODY or HEAD attribute")
				return false
			}
			if len(x.Args) != 1 {
				fail = fmt.Errorf("translator: cluster HAVING aggregates take one argument")
				return false
			}
			cr, ok := x.Args[0].(*parse.ColumnRef)
			if !ok || !roleQual(cr.Qual) {
				fail = fmt.Errorf("translator: cluster HAVING aggregate arguments must be BODY.x or HEAD.x")
				return false
			}
			if _, err := src.Resolve("", cr.Name); err != nil {
				fail = fmt.Errorf("translator: cluster HAVING: %v", err)
				return false
			}
			key := x.Name + "(" + strings.ToLower(cr.Name) + ")"
			if _, dup := seen[key]; !dup {
				col := fmt.Sprintf("mr_agg_%d", len(aggs))
				seen[key] = col
				aggs = append(aggs, clusterAgg{Func: x.Name, Attr: cr.Name, Col: col})
				aggAttrs = append(aggAttrs, cr.Name)
			}
			return false
		case *parse.ColumnRef:
			if !roleQual(x.Qual) {
				fail = fmt.Errorf("translator: cluster HAVING references must be BODY.x or HEAD.x, got %q", x.SQL())
				return false
			}
			if !clusterSet.has(x.Name) {
				fail = fmt.Errorf("translator: cluster HAVING may refer only to clustering attributes, got %q", x.Name)
				return false
			}
		case *parse.ScalarSubquery, *parse.InSubquery, *parse.ExistsExpr:
			fail = fmt.Errorf("translator: subqueries are not allowed in the cluster HAVING")
			return false
		}
		return true
	})
	return aggs, aggAttrs, fail
}

// checkMiningCond validates the mining condition and returns the
// distinct source attributes it references (the <mine attr list>).
func checkMiningCond(cond parse.Expr, groupSet, clusterSet attrSet, src *schema.Schema) ([]string, error) {
	var (
		mine []string
		fail error
	)
	seen := make(attrSet)
	parse.WalkExprs(cond, func(e parse.Expr) bool {
		switch x := e.(type) {
		case *parse.FuncCall:
			if x.IsAggregate() {
				fail = fmt.Errorf("translator: aggregates are not allowed in the mining condition")
				return false
			}
		case *parse.ScalarSubquery, *parse.InSubquery, *parse.ExistsExpr:
			fail = fmt.Errorf("translator: subqueries are not allowed in the mining condition")
			return false
		case *parse.ColumnRef:
			if !roleQual(x.Qual) {
				fail = fmt.Errorf("translator: mining condition references must be BODY.x or HEAD.x, got %q", x.SQL())
				return false
			}
			if groupSet.has(x.Name) || clusterSet.has(x.Name) {
				fail = fmt.Errorf("translator: mining condition must not reference grouping or clustering attribute %q", x.Name)
				return false
			}
			if _, err := src.Resolve("", x.Name); err != nil {
				fail = fmt.Errorf("translator: mining condition: %v", err)
				return false
			}
			if !seen.has(x.Name) {
				seen[strings.ToLower(x.Name)] = true
				mine = append(mine, x.Name)
			}
		}
		return true
	})
	return mine, fail
}

func roleQual(q string) bool {
	return strings.EqualFold(q, "body") || strings.EqualFold(q, "head")
}

// neededAttrs deduplicates the attribute lists (first occurrence wins)
// and attaches the source types.
func neededAttrs(src *schema.Schema, lists ...[]string) []schema.Column {
	var out []schema.Column
	seen := make(attrSet)
	for _, l := range lists {
		for _, a := range l {
			if seen.has(a) {
				continue
			}
			seen[strings.ToLower(a)] = true
			idx, err := src.Resolve("", a)
			if err != nil {
				continue // validated earlier
			}
			c := src.Col(idx)
			out = append(out, schema.Column{Name: c.Name, Type: c.Type})
		}
	}
	return out
}

// attrType looks a needed attribute's type up.
func (tr *Translation) attrType(name string) value.Type {
	for _, c := range tr.NeededAttrs {
		if strings.EqualFold(c.Name, name) {
			return c.Type
		}
	}
	return value.TypeString
}

// sortedLower returns the lower-cased, sorted copy of names (used for
// deterministic diagnostics).
func sortedLower(names []string) []string {
	out := make([]string, len(names))
	for i, n := range names {
		out[i] = strings.ToLower(n)
	}
	sort.Strings(out)
	return out
}

// Fingerprint identifies the preprocessing a statement needs,
// independent of its thresholds: two statements with the same
// fingerprint share encoded tables (paper §3's preprocessing reuse).
// The support threshold is excluded because the encoded tables built at
// a support s remain valid for any support ≥ s (the large-item and
// large-elementary-rule filters only get more selective); the caller
// checks that side condition against the stored metadata.
func (tr *Translation) Fingerprint() string {
	st := *tr.Stmt // shallow copy; SQL() does not mutate
	st.MinSupport = 0
	st.MinConfidence = 0
	return tr.Class.String() + "|" + st.SQL()
}
