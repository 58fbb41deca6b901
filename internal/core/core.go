// Package core is the paper's primary contribution made executable: the
// tightly-coupled kernel that evaluates a MINE RULE statement on top of
// a relational server. It wires the four components of Figure 3.a —
// translator, preprocessor, core operator and postprocessor — and
// instruments the borderline between relational and mining processing
// with per-phase timings.
package core

import (
	"context"
	"fmt"
	"runtime/debug"
	"slices"
	"time"

	"minerule/internal/kernel/postproc"
	"minerule/internal/kernel/preproc"
	"minerule/internal/kernel/translator"
	"minerule/internal/minerule/ast"
	mrparse "minerule/internal/minerule/parse"
	"minerule/internal/mining"
	"minerule/internal/obsv"
	"minerule/internal/resource"
	"minerule/internal/sql/engine"
)

// Algorithm selects the simple-core pool member (§3: "the core operator
// can be constituted of a pool of mining algorithms").
type Algorithm string

// The pool.
const (
	AlgoApriori       Algorithm = "apriori"            // gid-list levelwise [1,3]
	AlgoHorizontal    Algorithm = "apriori-horizontal" // counting passes [3]
	AlgoAprioriTid    Algorithm = "apriori-tid"        // transformed-set passes [3]
	AlgoAprioriHybrid Algorithm = "apriori-hybrid"     // switch between the two [3]
	AlgoDHP           Algorithm = "apriori-dhp"        // hash-filtered [12]
	AlgoPartition     Algorithm = "partition"          // two passes [13]
	AlgoSampling      Algorithm = "sampling"           // Toivonen [7]
	AlgoBitmap        Algorithm = "bitmap"             // vertical packed bitsets; the default
)

// Options tunes a pipeline run.
type Options struct {
	// Algorithm picks the simple-core pool member; empty means
	// AlgoBitmap, the member that measured fastest at every support of
	// EXPERIMENTS.md E4. General statements always use the lattice
	// algorithm.
	Algorithm Algorithm
	// ReplaceOutput drops pre-existing output tables of the same name
	// instead of failing.
	ReplaceOutput bool
	// KeepEncoded leaves the encoded working tables in the database
	// after the run (§3 notes preprocessing can be shared across
	// queries; it also helps debugging). It also records the reuse
	// metadata ReuseEncoded looks for.
	KeepEncoded bool
	// ReuseEncoded skips the preprocessing phase when a previous
	// KeepEncoded run of an equivalent statement (same everything but
	// thresholds, with a support no higher than before) left its
	// encoded tables behind. The caller is responsible for not mutating
	// the source between runs — the kernel cannot detect that.
	ReuseEncoded bool
	// Limits bounds the run: MaxRows caps the rows any one SQL step may
	// materialize, MaxCandidates caps the mining candidate count, and
	// MaxRuntime deadline-bounds the whole evaluation. The zero value is
	// unbounded. A tripped limit fails the run with an error matching
	// resource.ErrBudgetExceeded or resource.ErrCanceled, and the
	// working and output tables are rolled back as on any failure.
	Limits resource.Limits
	// Trace records a span tree for the run on Result.Trace: one child
	// per pipeline phase, with per-Q-step and per-mining-pass detail.
	// Off (nil Trace) costs nothing beyond the always-on counters.
	Trace bool
}

// Timings is the per-phase wall time of one run: the process flow of
// Figure 3.a made measurable.
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

// Result describes a completed MINE RULE evaluation.
type Result struct {
	Statement *ast.Statement
	Class     translator.Class
	Algorithm string

	// OutputTable, BodiesTable and HeadsTable name the stored results.
	OutputTable string
	BodiesTable string
	HeadsTable  string

	RuleCount int
	// TotalGroups is the paper's :totg; MinGroups the substituted
	// :mingroups.
	TotalGroups int
	MinGroups   int
	// Reused reports that the preprocessing phase was skipped in favour
	// of encoded tables from a previous KeepEncoded run.
	Reused bool

	Timings Timings
	// PreprocSteps breaks the preprocessing phase down by Q-step.
	PreprocSteps []preproc.StepDuration
	// Candidates counts the candidate itemsets/rules the core examined;
	// Passes breaks the levelwise algorithms down per pass (empty for
	// non-levelwise cores); Workers is the widest worker-pool fan-out
	// (0 = the mining never left the sequential path).
	Candidates int64
	Passes     []mining.PassStat
	Workers    int
	// Trace is the run's span tree when Options.Trace was set (nil
	// otherwise): mine → translate/preprocess/core/postprocess, with
	// Q-steps and levelwise passes as grandchildren.
	Trace *obsv.Span
}

// Explanation is the translator's output for one statement, without
// executing anything: the classification and the SQL translation
// programs — the paper's Figure 4 for this concrete statement.
type Explanation struct {
	Statement *ast.Statement
	Class     translator.Class
	// Simple reports which core-processing class would run.
	Simple bool
	// Steps are the preprocessing statements in execution order, with
	// their paper names (Q0…Q10 plus the output setup); Q1 is the
	// total-group query, with a trailing comment when it is folded into
	// Q2 and not run.
	Steps []ExplainStep
	Q1    string
	// Decode are the postprocessor's queries.
	Decode []string
}

// ExplainStep is one named preprocessing statement.
type ExplainStep struct {
	Name string
	SQL  string
}

// Explain translates the statement against db's data dictionary and
// returns the programs that Mine would run, without running them.
func Explain(db *engine.Database, statement string) (*Explanation, error) {
	st, err := mrparse.Parse(statement)
	if err != nil {
		return nil, err
	}
	tr, err := translator.Translate(db, st)
	if err != nil {
		return nil, err
	}
	ex := &Explanation{
		Statement: st,
		Class:     tr.Class,
		Simple:    tr.Class.Simple(),
		Q1:        tr.TotalGroupsQuery(),
		Decode:    append([]string(nil), tr.Program.Decode...),
	}
	for _, s := range tr.Program.Steps() {
		ex.Steps = append(ex.Steps, ExplainStep{Name: s.Name, SQL: s.SQL})
	}
	return ex, nil
}

// Mine evaluates one MINE RULE statement text against the database.
func Mine(db *engine.Database, statement string, opts Options) (*Result, error) {
	return MineContext(context.Background(), db, statement, opts)
}

// MineContext is Mine under a cancellation context: the deadline or
// cancellation is observed between pipeline phases, between Q-steps,
// inside SQL execution and between mining passes, and a canceled run
// rolls its working and output tables back.
func MineContext(ctx context.Context, db *engine.Database, statement string, opts Options) (*Result, error) {
	st, err := mrparse.Parse(statement)
	if err != nil {
		return nil, err
	}
	return MineStatementContext(ctx, db, st, opts)
}

// MineStatement evaluates an already-parsed statement.
func MineStatement(db *engine.Database, st *ast.Statement, opts Options) (*Result, error) {
	return MineStatementContext(context.Background(), db, st, opts)
}

// MineStatementContext evaluates an already-parsed statement under a
// cancellation context and opts.Limits. It is the kernel's outermost
// recover boundary: a panic anywhere in the pipeline surfaces as a
// *resource.InternalError instead of crashing the embedding process.
func MineStatementContext(ctx context.Context, db *engine.Database, st *ast.Statement, opts Options) (res *Result, err error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if opts.Limits.MaxRuntime > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, opts.Limits.MaxRuntime)
		defer cancel()
	}
	// Bound the kernel's own SQL with the run's limits: every statement
	// the pipeline executes sees them through the context, so concurrent
	// runs on one engine each keep their own budgets (no engine-wide
	// state is touched). Zero opts.Limits defers to limits already on
	// the context (a network session's, the UI's per-request bounds);
	// absent those too, the run is unbounded as documented.
	if opts.Limits != (resource.Limits{}) {
		ctx = resource.WithLimits(ctx, opts.Limits)
	} else if _, ok := resource.LimitsFrom(ctx); !ok {
		ctx = resource.WithLimits(ctx, resource.Limits{})
	}
	defer func() {
		if p := recover(); p != nil {
			res, err = nil, resource.NewInternalError("core", p, debug.Stack())
		}
	}()
	return mineStatement(ctx, db, st, opts)
}

func mineStatement(ctx context.Context, db *engine.Database, st *ast.Statement, opts Options) (res *Result, err error) {
	res = &Result{Statement: st}
	met := db.Metrics()
	met.MineRuns.Inc()
	defer func() {
		if err != nil {
			met.MineErrors.Inc()
		}
	}()
	var root *obsv.Span
	if opts.Trace {
		root = obsv.NewSpan("mine")
		res.Trace = root
	}
	defer root.Finish()

	// ---- Translator ------------------------------------------------------
	tsp := root.StartChild("translate")
	start := time.Now()
	tr, err := translator.Translate(db, st)
	if err != nil {
		return nil, err
	}
	res.Class = tr.Class
	res.OutputTable = tr.Names.Output
	res.BodiesTable = tr.Names.OutputBodyT
	res.HeadsTable = tr.Names.OutputHeadT
	if err := prepareOutputs(db, tr, opts); err != nil {
		return nil, err
	}
	res.Timings.Translate = time.Since(start)
	met.TranslateNanos.Add(int64(res.Timings.Translate))
	if tsp != nil {
		tsp.SetStr("class", tr.Class.String())
	}
	tsp.Finish()

	// From here on the pipeline creates working and output objects; any
	// failure — error or panic — must leave the catalog as it was before
	// the run. (Pre-existing output tables dropped under ReplaceOutput
	// are gone by now and cannot be restored; that is the documented
	// limit of the rollback.)
	defer func() {
		if p := recover(); p != nil {
			res, err = nil, resource.NewInternalError("core", p, debug.Stack())
		}
		if err != nil {
			res = nil
			cleanupFailed(db, tr)
		}
	}()

	// ---- Preprocessor ----------------------------------------------------
	psp := root.StartChild("preprocess")
	start = time.Now()
	var pre *preproc.Result
	reused := false
	if opts.ReuseEncoded {
		pre, reused = preproc.TryReuse(db, tr)
	}
	if !reused {
		pre, err = preproc.Run(ctx, db, tr)
		if err != nil {
			return nil, err
		}
	}
	res.Reused = reused
	res.TotalGroups = pre.Totg
	res.MinGroups = pre.MinGroups
	res.PreprocSteps = pre.StepDurations
	res.Timings.Preprocess = time.Since(start)
	met.PreprocNanos.Add(int64(res.Timings.Preprocess))
	if psp != nil {
		psp.SetInt("totg", int64(pre.Totg))
		psp.SetInt("mingroups", int64(pre.MinGroups))
		if reused {
			psp.SetStr("reused", "true")
		}
		for _, s := range pre.StepDurations {
			c := psp.StartChild(s.Name)
			c.SetInt("stmts", int64(s.Stmts))
			c.SetInt("rows", int64(s.Rows))
			c.Finish()
			c.SetDuration(s.Duration)
		}
	}
	psp.Finish()

	// ---- Core operator ----------------------------------------------------
	if err = resource.Check(ctx); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	csp := root.StartChild("core")
	start = time.Now()
	bud := mining.NewBudget(ctx, opts.Limits.MaxCandidates)
	mopts := mining.Options{
		MinSupport:    st.MinSupport,
		MinConfidence: st.MinConfidence,
		BodyCard:      mining.Card{Min: st.Body.Card.Min, Max: st.Body.Card.Max},
		HeadCard:      mining.Card{Min: st.Head.Card.Min, Max: st.Head.Card.Max},
		Budget:        bud,
	}
	var rules []mining.Rule
	groupsRead := 0
	if tr.Class.Simple() {
		miner := poolMiner(opts.Algorithm)
		res.Algorithm = miner.Name()
		var in *mining.SimpleInput
		in, err = readSimpleInput(ctx, db, tr, pre.Totg)
		if err != nil {
			return nil, err
		}
		groupsRead = len(in.Groups)
		rules = mining.MineSimple(miner, in, mopts)
	} else {
		res.Algorithm = "rule-lattice"
		var in *mining.GeneralInput
		in, err = readGeneralInput(ctx, db, tr, pre.Totg)
		if err != nil {
			return nil, err
		}
		groupsRead = len(in.Groups)
		rules = mining.MineGeneral(in, mopts)
	}
	met.MineCandidates.Add(bud.Used())
	if berr := bud.Err(); berr != nil {
		err = fmt.Errorf("core: mining: %w", berr)
		return nil, err
	}
	res.RuleCount = len(rules)
	res.Candidates = bud.Used()
	res.Passes = bud.Passes()
	res.Workers = bud.Workers()
	res.Timings.Core = time.Since(start)
	met.CoreNanos.Add(int64(res.Timings.Core))
	met.MineRules.Add(int64(len(rules)))
	if csp != nil {
		csp.SetStr("algorithm", res.Algorithm)
		csp.SetInt("groups", int64(groupsRead))
		csp.SetInt("candidates", bud.Used())
		csp.SetInt("rules", int64(len(rules)))
		if w := bud.Workers(); w > 0 {
			csp.SetInt("workers", int64(w))
		}
		for _, p := range bud.Passes() {
			ps := csp.StartChild("pass")
			ps.SetInt("level", int64(p.Level))
			ps.SetInt("candidates", int64(p.Candidates))
			ps.SetInt("large", int64(p.Large))
			ps.Finish()
		}
	}
	csp.Finish()

	// ---- Postprocessor ----------------------------------------------------
	osp := root.StartChild("postprocess")
	start = time.Now()
	if err = postproc.Run(ctx, db, tr, rules); err != nil {
		return nil, err
	}
	if opts.KeepEncoded {
		if !reused {
			if err = preproc.WriteMeta(db, tr, pre); err != nil {
				err = fmt.Errorf("core: recording reuse metadata: %w", err)
				return nil, err
			}
		}
	} else {
		preproc.Drop(db, tr)
	}
	res.Timings.Postprocess = time.Since(start)
	met.PostprocNanos.Add(int64(res.Timings.Postprocess))
	osp.SetInt("rules", int64(res.RuleCount))
	osp.Finish()
	root.SetInt("rules", int64(res.RuleCount))
	return res, nil
}

// cleanupFailed rolls a failed run back: every working table of the
// translation and any (possibly partial) output table is dropped, so the
// catalog holds exactly the pre-run objects. It deliberately does not
// use the run's context — cleanup must proceed even when the failure is
// a cancellation.
func cleanupFailed(db *engine.Database, tr *translator.Translation) {
	preproc.Drop(db, tr)
	n := tr.Names
	preproc.DropExisting(db,
		translator.Object{Kind: "TABLE", Name: n.Output},
		translator.Object{Kind: "TABLE", Name: n.OutputBodyT},
		translator.Object{Kind: "TABLE", Name: n.OutputHeadT})
}

func poolMiner(a Algorithm) mining.ItemsetMiner {
	switch a {
	case AlgoHorizontal:
		return mining.Horizontal{}
	case AlgoAprioriTid:
		return mining.AprioriTid{}
	case AlgoAprioriHybrid:
		return mining.AprioriHybrid{}
	case AlgoDHP:
		return mining.Horizontal{Hashing: true}
	case AlgoPartition:
		return mining.Partition{}
	case AlgoSampling:
		return mining.Sampling{}
	case AlgoApriori:
		return mining.Apriori{}
	default: // AlgoBitmap, and the empty default
		return mining.Bitmap{}
	}
}

func prepareOutputs(db *engine.Database, tr *translator.Translation, opts Options) error {
	for _, t := range []string{tr.Names.Output, tr.Names.OutputBodyT, tr.Names.OutputHeadT} {
		if db.Catalog().Exists(t) {
			if !opts.ReplaceOutput {
				return fmt.Errorf("core: output table %q already exists (set ReplaceOutput to overwrite)", t)
			}
			if _, err := db.Exec("DROP TABLE " + t); err != nil {
				return fmt.Errorf("core: cannot replace %q: %w", t, err)
			}
		}
	}
	return nil
}

// readSimpleInput loads CodedSource (Gid, Bid) into the simple-core
// input format. It reads the table snapshot straight out of the
// dictionary and hands the (gid, bid) pairs to the miner without running
// a SELECT, so the preprocessing output skips the executor's
// materialize/re-encode hop. The read answers to the run's row budget
// like any SQL step: a snapshot larger than the effective MaxRows fails
// with a rows BudgetError.
func readSimpleInput(ctx context.Context, db *engine.Database, tr *translator.Translation, totg int) (*mining.SimpleInput, error) {
	t, ok := db.Catalog().Table(tr.Names.CodedSource)
	if !ok {
		return nil, fmt.Errorf("core: coded source %q is not a table", tr.Names.CodedSource)
	}
	sch := t.Schema()
	gidOrd, err := sch.Resolve("", "mr_gid")
	if err != nil {
		return nil, err
	}
	bidOrd, err := sch.Resolve("", "mr_bid")
	if err != nil {
		return nil, err
	}
	rows := t.Snapshot()
	if l, _ := resource.LimitsFrom(ctx); l.MaxRows > 0 && len(rows) > l.MaxRows {
		return nil, &resource.BudgetError{Resource: "rows", Limit: l.MaxRows}
	}
	gids := make([]int64, len(rows))
	items := make([]mining.Item, len(rows))
	for i, row := range rows {
		if i&4095 == 4095 {
			if err := resource.Check(ctx); err != nil {
				return nil, err
			}
		}
		gids[i] = row[gidOrd].Int()
		items[i] = mining.Item(row[bidOrd].Int())
	}
	return mining.NewSimpleInputFromPairs(gids, items, totg), nil
}

// readGeneralInput loads CodedSource (plus ClusterCouples and InputRules
// when present) into the general-core input format.
func readGeneralInput(ctx context.Context, db *engine.Database, tr *translator.Translation, totg int) (*mining.GeneralInput, error) {
	cl := tr.Class
	in := &mining.GeneralInput{
		TotalGroups: totg,
		SameAttr:    !cl.H,
	}
	switch {
	case cl.K:
		in.PairPolicy = mining.ExplicitPairs
	case cl.C:
		in.PairPolicy = mining.AllPairs
	default:
		in.PairPolicy = mining.SelfPairs
	}

	res, err := db.QueryContext(ctx, "SELECT * FROM "+tr.Names.CodedSource)
	if err != nil {
		return nil, err
	}
	col := func(name string) (int, error) { return res.Schema.Resolve("", name) }
	gidIdx, err := col("mr_gid")
	if err != nil {
		return nil, err
	}
	bidIdx, err := col("mr_bid")
	if err != nil {
		return nil, err
	}
	cidIdx := -1
	if cl.C {
		if cidIdx, err = col("mr_cid"); err != nil {
			return nil, err
		}
	}
	hidIdx := -1
	if cl.H {
		if hidIdx, err = col("mr_hid"); err != nil {
			return nil, err
		}
	}

	groups := make(map[int64]*mining.GroupData)
	groupOf := func(g int64) *mining.GroupData {
		gd, ok := groups[g]
		if !ok {
			gd = &mining.GroupData{
				Gid:          g,
				BodyClusters: make(map[int64][]mining.Item),
			}
			if cl.H {
				gd.HeadClusters = make(map[int64][]mining.Item)
			} else {
				gd.HeadClusters = gd.BodyClusters
			}
			groups[g] = gd
		}
		return gd
	}
	for _, row := range res.Rows {
		g := row[gidIdx].Int()
		var cid int64
		if cidIdx >= 0 {
			cid = row[cidIdx].Int()
		}
		gd := groupOf(g)
		if !row[bidIdx].IsNull() {
			gd.BodyClusters[cid] = append(gd.BodyClusters[cid], mining.Item(row[bidIdx].Int()))
		}
		if hidIdx >= 0 && !row[hidIdx].IsNull() {
			gd.HeadClusters[cid] = append(gd.HeadClusters[cid], mining.Item(row[hidIdx].Int()))
		}
	}

	if cl.K {
		cres, err := db.QueryContext(ctx, "SELECT mr_gid, mr_bcid, mr_hcid FROM "+tr.Names.ClusterCouples)
		if err != nil {
			return nil, err
		}
		for _, row := range cres.Rows {
			gd := groupOf(row[0].Int())
			gd.Couples = append(gd.Couples, [2]int64{row[1].Int(), row[2].Int()})
		}
	}

	// Deterministic group order.
	in.Groups = sortedGroups(groups)

	if cl.M {
		sel := "SELECT mr_gid, mr_bid, mr_hid FROM " + tr.Names.InputRules
		if cl.C {
			sel = "SELECT mr_gid, mr_bid, mr_hid, mr_bcid, mr_hcid FROM " + tr.Names.InputRules
		}
		ires, err := db.QueryContext(ctx, sel)
		if err != nil {
			return nil, err
		}
		in.Elementary = make([]mining.ElemOcc, 0, len(ires.Rows))
		for _, row := range ires.Rows {
			e := mining.ElemOcc{
				Body: mining.Item(row[1].Int()),
				Head: mining.Item(row[2].Int()),
				Ctx:  mining.Ctx{G: row[0].Int()},
			}
			if cl.C {
				e.Ctx.BC = row[3].Int()
				e.Ctx.HC = row[4].Int()
			}
			in.Elementary = append(in.Elementary, e)
		}
	}
	return in, nil
}

func sortedGroups(groups map[int64]*mining.GroupData) []mining.GroupData {
	gids := make([]int64, 0, len(groups))
	for g := range groups {
		gids = append(gids, g)
	}
	slices.Sort(gids)
	out := make([]mining.GroupData, 0, len(gids))
	for _, g := range gids {
		out = append(out, *groups[g])
	}
	return out
}

// QueryRules reads a decoded rule table back in a convenient form for
// examples and tests: each rule as body items, head items, and the
// requested measures.
type DecodedRule struct {
	Body       [][]string // one value tuple per body element
	Head       [][]string
	Support    float64
	Confidence float64
}

// ReadRules joins the three output tables of a previous Mine run back
// into in-memory rules (for display; the tables remain the source of
// truth in the DBMS).
func ReadRules(db *engine.Database, res *Result) ([]DecodedRule, error) {
	sel := "SELECT BodyId, HeadId"
	if res.Statement.WantSupport {
		sel += ", SUPPORT"
	}
	if res.Statement.WantConfidence {
		sel += ", CONFIDENCE"
	}
	rres, err := db.Query(sel + " FROM " + res.OutputTable)
	if err != nil {
		return nil, err
	}
	bodies, err := readElements(db, res.BodiesTable, "BodyId")
	if err != nil {
		return nil, err
	}
	heads, err := readElements(db, res.HeadsTable, "HeadId")
	if err != nil {
		return nil, err
	}
	var out []DecodedRule
	for _, row := range rres.Rows {
		r := DecodedRule{
			Body: bodies[row[0].Int()],
			Head: heads[row[1].Int()],
		}
		idx := 2
		if res.Statement.WantSupport {
			r.Support = row[idx].Float()
			idx++
		}
		if res.Statement.WantConfidence {
			r.Confidence = row[idx].Float()
		}
		out = append(out, r)
	}
	return out, nil
}

func readElements(db *engine.Database, table, idCol string) (map[int64][][]string, error) {
	res, err := db.Query("SELECT * FROM " + table)
	if err != nil {
		return nil, err
	}
	idIdx, err := res.Schema.Resolve("", idCol)
	if err != nil {
		return nil, err
	}
	out := make(map[int64][][]string)
	for _, row := range res.Rows {
		var tuple []string
		for i, v := range row {
			if i == idIdx {
				continue
			}
			tuple = append(tuple, v.String())
		}
		out[row[idIdx].Int()] = append(out[row[idIdx].Int()], tuple)
	}
	return out, nil
}
