package translator

import (
	"fmt"
	"strings"
	"sync"

	"minerule/internal/sql/parse"
	"minerule/internal/sql/semck"
	"minerule/internal/sql/storage"
)

// SelfCheckError reports a generated SQL statement that failed the
// prepare-time semantic check, identifying the translation step it
// belongs to. Seeing one means the translator produced a program the
// engine would reject — a translator bug, caught before any row moves.
type SelfCheckError struct {
	Step string // paper step name: Q0 … Q8, output, decode
	SQL  string // the offending statement (placeholders substituted)
	Err  error  // the underlying diagnostic (*semck.Error or parse error)
}

func (e *SelfCheckError) Error() string {
	return fmt.Sprintf("translator: self-check failed at %s: %v\n  in: %s", e.Step, e.Err, e.SQL)
}

func (e *SelfCheckError) Unwrap() error { return e.Err }

// selfCheckMemo records programs (by full text) that have already
// passed the self-check. The program text embeds everything the check
// consults — table and attribute names, schema-derived column types —
// so a byte-identical program is identical to semck, and re-proving the
// translator's self-consistency per translation would only repeat work:
// repeated mining of one statement re-generates the same text, and the
// engine's statement cache still semantically checks every statement
// against the live catalog before execution. Failures are never cached
// (they are terminal, and may depend on transient catalog state such as
// a name collision with a user table). The map is cleared when it grows
// past a bound a real workload never reaches.
var selfCheckMemo struct {
	mu sync.Mutex
	m  map[string]bool // guarded by mu
}

const selfCheckMemoLimit = 256

// programKey concatenates every generated statement in check order; two
// translations with identical programs are interchangeable to semck.
func (tr *Translation) programKey() string {
	p := &tr.Program
	var b strings.Builder
	for _, o := range p.Cleanup {
		b.WriteString(o.DropSQL())
		b.WriteByte(0)
	}
	for _, sqls := range [][]string{
		p.Q0, {p.Q1}, p.Q2, p.Q3, p.Q5, p.Q6, p.Q7,
		p.Q4, p.OutputSetup, {p.Q8}, p.Decode,
	} {
		for _, q := range sqls {
			b.WriteString(q)
			b.WriteByte(0)
		}
	}
	return b.String()
}

// selfCheckCached runs SelfCheck through the memo.
func (tr *Translation) selfCheckCached(cat *storage.Catalog) error {
	key := tr.programKey()
	sc := &selfCheckMemo
	sc.mu.Lock()
	passed := sc.m[key]
	sc.mu.Unlock()
	if passed {
		return nil
	}

	if err := tr.SelfCheck(semck.FromStorage(cat)); err != nil {
		return err
	}

	sc.mu.Lock()
	if sc.m == nil || len(sc.m) >= selfCheckMemoLimit {
		sc.m = make(map[string]bool)
	}
	sc.m[key] = true
	sc.mu.Unlock()
	return nil
}

// SelfCheck validates every generated statement against the data
// dictionary in the order the kernel executes them, threading DDL
// effects through an overlay so each statement sees the tables,
// sequences and views its predecessors create. The support placeholder
// is substituted with a neutral literal — thresholds change values, not
// names or types. Cleanup (and the core's output-table replacement) is
// simulated tolerantly, mirroring how the preprocessor drops only the
// objects that exist.
func (tr *Translation) SelfCheck(base semck.Catalog) error {
	ov := semck.NewOverlay(base)

	tolerantDrop := func(objs []Object) {
		for _, o := range objs {
			q := o.DropSQL()
			st, err := parse.Parse(q)
			if err != nil {
				continue
			}
			if semck.Check(ov, st, q) == nil {
				ov.Apply(st)
			}
		}
	}
	n := tr.Names
	tolerantDrop(tr.Program.Cleanup)
	tolerantDrop([]Object{{"TABLE", n.Output}, {"TABLE", n.OutputBodyT}, {"TABLE", n.OutputHeadT}})

	check := func(step string, sqls []string) error {
		for _, q := range sqls {
			src := strings.ReplaceAll(q, MinGroupsPlaceholder, "1")
			st, err := parse.Parse(src)
			if err != nil {
				return &SelfCheckError{Step: step, SQL: src, Err: err}
			}
			if cerr := semck.Check(ov, st, src); cerr != nil {
				return &SelfCheckError{Step: step, SQL: src, Err: cerr}
			}
			ov.Apply(st)
		}
		return nil
	}

	p := &tr.Program
	var q8 []string
	if p.Q8 != "" {
		q8 = []string{p.Q8}
	}
	for _, s := range []struct {
		name string
		sqls []string
	}{
		{"Q0", p.Q0},
		{"Q1", []string{p.Q1}},
		{"Q2", p.Q2},
		{"Q3", p.Q3},
		{"Q5", p.Q5},
		{"Q6", p.Q6},
		{"Q7", p.Q7},
		{"Q4", p.Q4},
		{"output", p.OutputSetup},
		{"Q8", q8},
		{"decode", p.Decode},
	} {
		if err := check(s.name, s.sqls); err != nil {
			return err
		}
	}
	return nil
}
