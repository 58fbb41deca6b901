// Package preproc implements the paper's preprocessor (§4.2): it runs
// the translator-generated SQL programs against the relational server,
// producing the encoded tables (ValidGroups, Bset/Hset, Clusters,
// ClusterCouples, CodedSource/MiningSource) and, under a mining
// condition, the elementary rules Q8 streams to the core: together they
// are the core operator's only view of the data.
package preproc

import (
	"context"
	"fmt"
	"strconv"
	"strings"
	"time"

	"minerule/internal/kernel/translator"
	"minerule/internal/mining"
	"minerule/internal/resource"
	"minerule/internal/sql/engine"
)

// Result reports what the preprocessing computed.
type Result struct {
	// Totg is the paper's :totg — the total number of groups (Q1, or
	// Q2's row count when Q1 is folded).
	Totg int
	// MinGroups is the substituted :mingroups value (⌈support·totg⌉).
	MinGroups int
	// StepDurations records how long each Q-step took, in execution
	// order, for the phase-split experiments.
	StepDurations []StepDuration
	// Sources are the translation's source tables as preprocessing
	// found them; WriteMeta records them so reuse can tell whether the
	// encoding still describes the data.
	Sources []SourceStamp
	// Elementary holds Q8's rows when the statement has a mining
	// condition (nil otherwise): one elementary-rule occurrence per row,
	// duplicates and rules below :mingroups included, for the core to
	// deduplicate and prune.
	Elementary []mining.ElemOcc
}

// SourceStamp is one FROM object and the stamp of its last publication
// (storage.Table.PublishStamp) taken before any Q-step read it. A view
// has Stamp -1: the tables under it are not tracked, so an encoding
// built over a view is never reused.
type SourceStamp struct {
	Name  string
	Stamp int64
}

// sourceStamps reads the publish stamp of every source of tr.
func sourceStamps(db *engine.Database, tr *translator.Translation) []SourceStamp {
	out := make([]SourceStamp, len(tr.Sources))
	for i, o := range tr.Sources {
		out[i] = SourceStamp{Name: o.Name, Stamp: -1}
		if t, ok := db.Catalog().Table(o.Name); ok && o.Kind == "TABLE" {
			out[i].Stamp = int64(t.PublishStamp())
		}
	}
	return out
}

// StepDuration is one preprocessing step's wall time, with the number
// of SQL statements it executed and the rows they wrote.
type StepDuration struct {
	Name     string
	Duration time.Duration
	Stmts    int
	Rows     int
}

// Run executes the full preprocessing for the translation, checking the
// context between Q-steps so a cancellation lands at the next step
// boundary (and, via the executor's own polling, inside long steps).
func Run(ctx context.Context, db *engine.Database, tr *translator.Translation) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	p := &tr.Program
	DropExisting(db, p.Cleanup...)

	// Stamped before the first read: a write that lands while the steps
	// run makes the kept encoding look stale, never current.
	res := &Result{Sources: sourceStamps(db, tr)}
	// step runs one Q-step and returns the rows its statements wrote.
	step := func(name string, sqls []string) (int, error) {
		if len(sqls) == 0 {
			return 0, nil
		}
		if err := resource.Check(ctx); err != nil {
			return 0, fmt.Errorf("preproc: step %s: %w", name, err)
		}
		start := time.Now()
		rows := 0
		for _, q := range sqls {
			q = strings.ReplaceAll(q, translator.MinGroupsPlaceholder, strconv.Itoa(res.MinGroups))
			r, err := db.ExecContext(ctx, q)
			if err != nil {
				return 0, fmt.Errorf("preproc: step %s: %w", name, err)
			}
			rows += r.RowsAffected
		}
		res.StepDurations = append(res.StepDurations, StepDuration{
			Name: name, Duration: time.Since(start), Stmts: len(sqls), Rows: rows,
		})
		return rows, nil
	}
	setTotg := func(totg int) {
		res.Totg = totg
		res.MinGroups = mining.MinCount(tr.Stmt.MinSupport, totg)
	}

	if _, err := step("Q0", p.Q0); err != nil {
		return nil, err
	}
	if !tr.Q1Folded() {
		// Q1: the paper's SELECT COUNT(*) INTO :totg.
		if err := resource.Check(ctx); err != nil {
			return nil, fmt.Errorf("preproc: step Q1: %w", err)
		}
		start := time.Now()
		totg, err := db.QueryIntContext(ctx, p.Q1)
		if err != nil {
			return nil, fmt.Errorf("preproc: step Q1: %w", err)
		}
		setTotg(int(totg))
		res.StepDurations = append(res.StepDurations, StepDuration{Name: "Q1", Duration: time.Since(start), Stmts: 1})
	}
	validGroups, err := step("Q2", p.Q2)
	if err != nil {
		return nil, err
	}
	if tr.Q1Folded() {
		// Q2's only row-writing statement is its INSERT INTO
		// ValidGroups, which here keeps every group: its row count is
		// :totg.
		setTotg(validGroups)
	}

	for _, s := range []struct {
		name string
		sqls []string
	}{
		{"Q3", p.Q3},
		{"Q5", p.Q5},
		{"Q6", p.Q6},
		{"Q7", p.Q7},
		{"Q4", p.Q4},
		{"output", p.OutputSetup},
	} {
		if _, err := step(s.name, s.sqls); err != nil {
			return nil, err
		}
	}
	if err := Elementary(ctx, db, tr, res); err != nil {
		return nil, err
	}
	return res, nil
}

// Elementary runs Q8, the last preprocessing step, when the statement
// has a mining condition, and collects its rows into res.Elementary by
// column name. No table keeps them, so it runs on every mine, also
// after TryReuse.
func Elementary(ctx context.Context, db *engine.Database, tr *translator.Translation, res *Result) error {
	q := tr.Program.Q8
	if q == "" {
		return nil
	}
	fail := func(err error) error { return fmt.Errorf("preproc: step Q8: %w", err) }
	if err := resource.Check(ctx); err != nil {
		return fail(err)
	}
	start := time.Now()
	r, err := db.QueryContext(ctx, q)
	if err != nil {
		return fail(err)
	}
	names := []string{"mr_gid", "mr_bid", "mr_hid"}
	if tr.Class.C {
		names = append(names, "mr_bcid", "mr_hcid")
	}
	ord := make([]int, len(names))
	for i, name := range names {
		if ord[i], err = r.Schema.Resolve("", name); err != nil {
			return fail(err)
		}
	}
	// Non-nil even when empty: a nil list tells the core to derive the
	// elementary rules from the groups, without the mining condition.
	elem := make([]mining.ElemOcc, len(r.Rows))
	for i, row := range r.Rows {
		e := &elem[i]
		e.Ctx.G = row[ord[0]].Int()
		e.Body = mining.Item(row[ord[1]].Int())
		e.Head = mining.Item(row[ord[2]].Int())
		if tr.Class.C {
			e.Ctx.BC = row[ord[3]].Int()
			e.Ctx.HC = row[ord[4]].Int()
		}
	}
	res.Elementary = elem
	res.StepDurations = append(res.StepDurations, StepDuration{
		Name: "Q8", Duration: time.Since(start), Stmts: 1, Rows: len(elem),
	})
	return nil
}

// DropExisting drops each object the catalog holds under that name with
// that kind, so cleanup never issues a DROP bound to fail. Checking the
// kind matters: Source is a table under W, and older programs created a
// view under the same name.
func DropExisting(db *engine.Database, objs ...translator.Object) {
	cat := db.Catalog()
	for _, o := range objs {
		var ok bool
		switch o.Kind {
		case "TABLE":
			_, ok = cat.Table(o.Name)
		case "VIEW":
			_, ok = cat.View(o.Name)
		case "SEQUENCE":
			_, ok = cat.Sequence(o.Name)
		}
		if ok {
			_, _ = db.Exec(o.DropSQL())
		}
	}
}

// WriteMeta records the preprocessing fingerprint, parameters and
// source stamps so a later run of an equivalent statement over
// unchanged sources can reuse the encoded tables (paper §3). Call it
// after a successful Run when the tables are kept. The table holds one
// row per source.
func WriteMeta(db *engine.Database, tr *translator.Translation, res *Result) error {
	n := tr.Names.Meta
	DropExisting(db, translator.Object{Kind: "TABLE", Name: n})
	if _, err := db.Exec(fmt.Sprintf(
		"CREATE TABLE %s (fp VARCHAR, totg INTEGER, minsupport FLOAT, src VARCHAR, stamp INTEGER)", n)); err != nil {
		return err
	}
	fp := strings.ReplaceAll(tr.Fingerprint(), "'", "''")
	var b strings.Builder
	fmt.Fprintf(&b, "INSERT INTO %s VALUES ", n)
	for i, src := range res.Sources {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "('%s', %d, %g, '%s', %d)",
			fp, res.Totg, tr.Stmt.MinSupport, strings.ReplaceAll(src.Name, "'", "''"), src.Stamp)
	}
	_, err := db.Exec(b.String())
	return err
}

// TryReuse checks whether a previous KeepEncoded run left compatible
// encoded tables behind: same fingerprint, a stored support no higher
// than the current one (the encoded tables were pruned at the stored
// support, so they contain everything a stricter threshold needs), and
// every source table still at the publish stamp it had when that run
// read it — no row committed since, not dropped and re-created. On
// success it recreates only the encoded output tables and returns a
// Result without running any Q-step; the caller still runs Q8
// (Elementary), whose rows no table keeps.
func TryReuse(db *engine.Database, tr *translator.Translation) (*Result, bool) {
	n := tr.Names
	if _, ok := db.Catalog().Table(n.Meta); !ok {
		return nil, false
	}
	rows, err := db.Query("SELECT fp, totg, minsupport, src, stamp FROM " + n.Meta)
	if err != nil || len(rows.Rows) == 0 || len(rows.Rows) != len(tr.Sources) {
		return nil, false
	}
	row := rows.Rows[0]
	if row[0].Str() != tr.Fingerprint() {
		return nil, false
	}
	storedSupport := row[2].Float()
	if tr.Stmt.MinSupport < storedSupport {
		return nil, false // the kept tables were pruned too aggressively
	}
	stored := make(map[string]int64, len(rows.Rows))
	for _, r := range rows.Rows {
		stored[strings.ToLower(r[3].Str())] = r[4].Int()
	}
	for _, src := range sourceStamps(db, tr) {
		st, ok := stored[strings.ToLower(src.Name)]
		if !ok || src.Stamp < 0 || st != src.Stamp {
			return nil, false // the source changed since it was encoded
		}
	}
	// The core's input tables, and Q8's, must still exist.
	needed := []string{n.CodedSource}
	if !tr.Class.Simple() {
		needed = []string{n.MiningSource}
	}
	if tr.Class.K {
		needed = append(needed, n.ClusterCouples)
	}
	for _, t := range needed {
		if !db.Catalog().Exists(t) {
			return nil, false
		}
	}
	// Fresh encoded output tables for this run.
	for _, t := range []string{n.OutputRules, n.OutputBodies, n.OutputHeads} {
		DropExisting(db, translator.Object{Kind: "TABLE", Name: t})
	}
	res := &Result{Totg: int(row[1].Int())}
	res.MinGroups = mining.MinCount(tr.Stmt.MinSupport, res.Totg)
	for _, q := range tr.Program.OutputSetup {
		if _, err := db.Exec(q); err != nil {
			return nil, false
		}
	}
	res.StepDurations = append(res.StepDurations, StepDuration{Name: "reused", Duration: 0})
	return res, true
}

// Drop removes every working object of the translation from the
// database (used by the kernel after a successful run unless the caller
// asked to keep the encoded tables for reuse — §3's observation that
// "the same preprocessing could be in common to the execution of several
// data mining queries").
func Drop(db *engine.Database, tr *translator.Translation) {
	DropExisting(db, tr.Program.Cleanup...)
}
