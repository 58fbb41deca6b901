// Package postproc implements the paper's postprocessor (§4.4): it
// stores the core operator's encoded rules into the DBMS and decodes
// them, through the Bset/Hset dictionaries, into the user-readable
// normalized output tables <name>, <name>_Bodies and <name>_Heads.
package postproc

import (
	"context"
	"fmt"

	"minerule/internal/kernel/translator"
	"minerule/internal/mining"
	"minerule/internal/resource"
	"minerule/internal/sql/engine"
	"minerule/internal/sql/schema"
	"minerule/internal/sql/value"
)

// Run is the postprocessor: StoreEncoded and Decode as one transaction
// on a private connection, so the run's output rows become visible — and
// durable — at a single commit. On failure the connection's Close rolls
// the rows back; the output tables Decode created are DDL and stay for
// the caller's cleanup.
func Run(ctx context.Context, db *engine.Database, tr *translator.Translation, rules []mining.Rule) error {
	c := db.Conn()
	defer c.Close()
	if _, err := c.ExecContext(ctx, "BEGIN"); err != nil {
		return fmt.Errorf("postproc: %w", err)
	}
	if err := StoreEncoded(ctx, c, tr, rules); err != nil {
		return err
	}
	if err := Decode(ctx, c, tr); err != nil {
		return err
	}
	if _, err := c.ExecContext(ctx, "COMMIT"); err != nil {
		return fmt.Errorf("postproc: %w", err)
	}
	return nil
}

// EmptyItemsetError reports a mined rule whose body or head carries no
// items. Such a rule must not be stored: interning the empty itemset
// would hand out an id with zero dictionary rows, and the Decode join
// over <name>_Bodies/<name>_Heads would then silently drop the rule
// from the user-readable tables. The core boundary rejects it instead.
type EmptyItemsetError struct {
	Rule int    // index of the offending rule in the core result
	Side string // "body" or "head"
}

func (e *EmptyItemsetError) Error() string {
	return fmt.Sprintf("postproc: rule %d has an empty %s; MINE RULE itemsets must be non-empty", e.Rule, e.Side)
}

// StoreEncoded writes the core operator's result into the encoded output
// tables (OutputRules, OutputBodies, OutputHeads) the preprocessor
// created. Bodies and heads are dictionary-compressed: identical
// itemsets across rules share one identifier, as §4.4's normalized form
// intends. Rows are appended on c (Conn.AppendRows) as built rows — the
// paper's core operator likewise hands its result to the DBMS without
// re-parsing SQL — and so join c's transaction like any statement.
// Rules with an empty body or head fail with *EmptyItemsetError before
// anything is written.
func StoreEncoded(ctx context.Context, c *engine.Conn, tr *translator.Translation, rules []mining.Rule) error {
	if err := resource.Check(ctx); err != nil {
		return fmt.Errorf("postproc: %w", err)
	}
	bodyIDs := make(map[string]int64)
	headIDs := make(map[string]int64)
	var ruleRows, bodyRows, headRows []schema.Row

	intern := func(ids map[string]int64, items []mining.Item, rows *[]schema.Row) int64 {
		k := itemsKey(items)
		if id, ok := ids[k]; ok {
			return id
		}
		id := int64(len(ids) + 1)
		ids[k] = id
		for _, it := range items {
			*rows = append(*rows, schema.Row{value.NewInt(id), value.NewInt(int64(it))})
		}
		return id
	}

	for i, r := range rules {
		if len(r.Body) == 0 {
			return &EmptyItemsetError{Rule: i, Side: "body"}
		}
		if len(r.Head) == 0 {
			return &EmptyItemsetError{Rule: i, Side: "head"}
		}
		bid := intern(bodyIDs, r.Body, &bodyRows)
		hid := intern(headIDs, r.Head, &headRows)
		ruleRows = append(ruleRows, schema.Row{
			value.NewInt(bid),
			value.NewInt(hid),
			value.NewFloat(r.Support),
			value.NewFloat(r.Confidence),
		})
	}
	n := tr.Names
	if err := c.AppendRows(ctx, n.OutputRules, ruleRows); err != nil {
		return fmt.Errorf("postproc: %w", err)
	}
	if err := c.AppendRows(ctx, n.OutputBodies, bodyRows); err != nil {
		return fmt.Errorf("postproc: %w", err)
	}
	if err := c.AppendRows(ctx, n.OutputHeads, headRows); err != nil {
		return fmt.Errorf("postproc: %w", err)
	}
	return nil
}

func itemsKey(items []mining.Item) string {
	b := make([]byte, 0, len(items)*4)
	for _, it := range items {
		v := uint64(it)
		for v >= 0x80 {
			b = append(b, byte(v)|0x80)
			v >>= 7
		}
		b = append(b, byte(v))
	}
	return string(b)
}

// Decode runs the translator's decode programs on c, producing the
// user-readable output tables.
func Decode(ctx context.Context, c *engine.Conn, tr *translator.Translation) error {
	for _, q := range tr.Program.Decode {
		if _, err := c.ExecContext(ctx, q); err != nil {
			return fmt.Errorf("postproc: %w", err)
		}
	}
	return nil
}
