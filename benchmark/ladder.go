package main

// The per-layer ladder: the traced run. This file is the only one in the
// benchmark that imports the repository's layer packages. It puts the
// stack in-process (minerule.Open + ServeListener on loopback + the
// driver), repeats the workload's MINE RULE for a tenth of the run, and
// records a span around each exported call a T rung names. End-to-end
// metrics are never taken here.

import (
	"bytes"
	"context"
	"database/sql"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"strings"
	"time"

	"minerule"
	"minerule/internal/core"
	"minerule/internal/kernel/translator"
	mrparse "minerule/internal/minerule/parse"
	"minerule/internal/mining"
	"minerule/internal/server/wire"
	"minerule/internal/sql/engine"
	"minerule/internal/sql/lex"
	"minerule/internal/sql/pager"
	"minerule/internal/sql/parse"
	"minerule/internal/sql/schema"
	"minerule/internal/sql/semck"
	"minerule/internal/sql/value"
	"minerule/internal/sql/vfs"
	"minerule/internal/sql/wal"
)

// rung times fn n times under one span each and returns the median
// duration in nanoseconds.
func (t *tracer) rung(name string, n int, fn func(i int) error) (float64, error) {
	for i := 0; i < n; i++ {
		id := t.begin(name, 0, i)
		err := fn(i)
		t.end(id)
		if err != nil {
			return 0, fmt.Errorf("%s: %w", name, err)
		}
	}
	return median(t.durations(name)), nil
}

// ladder runs the traced, in-process pass and adds the T rungs to rep.
func (h *harness) ladder(w *workload, d *dataset, seed int64, dur time.Duration, rep *report) error {
	tr := newTracer()
	set := func(name string, v float64, n int) { rep.layer[name] = sample{v, n} }

	// The stack, in-process.
	var opts []minerule.OpenOption
	dir, err := os.MkdirTemp(h.tmp, "ladder-")
	if err != nil {
		return err
	}
	if w.durable {
		opts = append(opts, minerule.WithStorage(filepath.Join(dir, "db")))
	}
	sys, err := minerule.Open(opts...)
	if err != nil {
		return err
	}
	defer sys.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	ctx, cancel := context.WithCancel(bg)
	served := make(chan error, 1)
	go func() { served <- sys.ServeListener(ctx, ln, minerule.ServerConfig{}) }()
	defer func() {
		cancel()
		<-served
	}()
	db, err := sql.Open("minerule", "tcp://"+ln.Addr().String())
	if err != nil {
		return err
	}
	defer db.Close()
	db.SetMaxOpenConns(1)
	conn, err := db.Conn(bg)
	if err != nil {
		return err
	}
	defer conn.Close()
	if err := load(conn, w, d); err != nil {
		return err
	}
	edb := sys.DB()

	// driver / server: the remote op, and the same statement in-process.
	var rules [][]interface{}
	remote := func() error {
		rows, err := conn.QueryContext(bg, w.mine)
		if err != nil {
			return err
		}
		defer rows.Close()
		rules = rules[:0]
		for rows.Next() {
			var r rule
			if err := rows.Scan(&r.body, &r.head, &r.support, &r.confidence); err != nil {
				return err
			}
			rules = append(rules, []interface{}{r.body, r.head, r.support, r.confidence})
		}
		return rows.Err()
	}
	embedded := func() error {
		res, err := core.MineContext(bg, edb, w.mine, core.Options{ReplaceOutput: true})
		if err != nil {
			return err
		}
		_, err = core.ReadRules(edb, res)
		return err
	}
	for i := 0; i < 3; i++ { // warm-up
		if err := remote(); err != nil {
			return err
		}
		if err := embedded(); err != nil {
			return err
		}
	}
	ops := 0
	for until := time.Now().Add(dur); ops < 5 || time.Now().Before(until); ops++ {
		op := tr.begin("op", 0, ops)
		q := tr.begin("driver.query", op, ops)
		err := remote()
		tr.end(q)
		if err != nil {
			return fmt.Errorf("driver.query: %w", err)
		}
		m := tr.begin("core.mine", op, ops)
		err = embedded()
		tr.end(m)
		tr.end(op)
		if err != nil {
			return fmt.Errorf("core.mine: %w", err)
		}
	}
	query, mine := median(tr.durations("driver.query")), median(tr.durations("core.mine"))
	set("server.overhead_us", (query-mine)/1e3, ops)
	set("trace.overhead_share", ratio(query/1e6-rep.e2e["mine_p50_ms"].value, rep.e2e["mine_p50_ms"].value), ops)

	v, err := tr.rung("driver.roundtrip", 1000, func(int) error {
		var one int
		return conn.QueryRowContext(bg, "SELECT 1").Scan(&one)
	})
	if err != nil {
		return err
	}
	set("driver.roundtrip_us", v/1e3, 1000)

	// wire: the op's own result rows through the row codec.
	var frames bytes.Buffer
	v, err = tr.rung("wire.encode", 50, func(int) error {
		frames.Reset()
		for _, row := range rules {
			var b wire.Builder
			b.PutU16(uint16(len(row)))
			for _, val := range row {
				b.PutValue(val)
			}
			if err := wire.WriteFrame(&frames, wire.MsgRuleRow, b.B); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	set("wire.encode_ns_per_row", v/float64(len(rules)), 50)
	v, err = tr.rung("wire.decode", 50, func(int) error {
		r := bytes.NewReader(frames.Bytes())
		for range rules {
			_, payload, err := wire.ReadFrame(r)
			if err != nil {
				return err
			}
			p := wire.Parser{B: payload}
			for n := p.U16(); n > 0; n-- {
				p.Value()
			}
			if err := p.Err(); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	set("wire.decode_ns_per_row", v/float64(len(rules)), 50)

	// parse / semck: the SQL the translator generates for this statement.
	ex, err := core.Explain(edb, w.mine)
	if err != nil {
		return err
	}
	corpus := []string{ex.Q1}
	for _, st := range ex.Steps {
		corpus = append(corpus, st.SQL)
	}
	corpus = append(corpus, ex.Decode...)
	for i, q := range corpus {
		corpus[i] = strings.ReplaceAll(q, translator.MinGroupsPlaceholder, "1")
	}
	parsed := make([]parse.Statement, len(corpus))
	v, err = tr.rung("parse.sql", 50, func(int) error {
		for i, q := range corpus {
			if _, err := lex.Lex(q); err != nil {
				return err
			}
			if parsed[i], err = parse.Parse(q); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	set("parse.sql_us_per_stmt", v/1e3/float64(len(corpus)), 50)
	v, err = tr.rung("parse.minerule", 200, func(int) error {
		_, err := mrparse.Parse(w.mine)
		return err
	})
	if err != nil {
		return err
	}
	set("parse.minerule_us", v/1e3, 200)
	v, err = tr.rung("semck.check", 50, func(int) error {
		ov := semck.NewOverlay(semck.FromStorage(edb.Catalog()))
		for i, st := range parsed {
			// A DROP of a table that does not exist yet is refused, as in
			// the kernel's own first run; everything accepted is applied.
			if semck.Check(ov, st, corpus[i]) == nil {
				ov.Apply(st)
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	set("semck.check_us_per_stmt", v/1e3/float64(len(corpus)), 50)

	stmt, err := mrparse.Parse(w.mine)
	if err != nil {
		return err
	}
	v, err = tr.rung("translator.translate", 50, func(int) error {
		_, err := translator.Translate(edb, stmt)
		return err
	})
	if err != nil {
		return err
	}
	set("translator.translate_us", v/1e3, 50)

	// exec: a full scan of the loaded table.
	v, err = tr.rung("exec.scan", 20, func(int) error {
		_, err := edb.QueryContext(bg, "SELECT COUNT(*) FROM "+d.table)
		return err
	})
	if err != nil {
		return err
	}
	set("exec.scan_ns_per_row", v/float64(len(d.tuples)), 20)

	// mining: the server's default itemset miner on the workload's own
	// groups, at the statement's thresholds.
	res, err := edb.QueryContext(bg, "SELECT "+d.keyCol+", item FROM "+d.table)
	if err != nil {
		return err
	}
	gid, item := map[string]int64{}, map[string]mining.Item{}
	var gids []int64
	var items []mining.Item
	for _, row := range res.Rows {
		g, it := row[0].Key(), row[1].Key()
		if _, ok := gid[g]; !ok {
			gid[g] = int64(len(gid))
		}
		if _, ok := item[it]; !ok {
			item[it] = mining.Item(len(item))
		}
		gids, items = append(gids, gid[g]), append(items, item[it])
	}
	mopts := mining.Options{
		MinSupport: stmt.MinSupport, MinConfidence: stmt.MinConfidence,
		BodyCard: mining.Card{Min: stmt.Body.Card.Min, Max: stmt.Body.Card.Max},
		HeadCard: mining.Card{Min: stmt.Head.Card.Min, Max: stmt.Head.Card.Max},
	}
	v, err = tr.rung("mining.itemsets", 5, func(int) error {
		in := mining.NewSimpleInputFromPairs(append([]int64(nil), gids...), append([]mining.Item(nil), items...), len(gid))
		mining.MineSimple(mining.Apriori{}, in, mopts)
		return nil
	})
	if err != nil {
		return err
	}
	set("mining.itemsets_ms", v/1e6, 5)

	// txn: BEGIN / 3-row INSERT / COMMIT on an in-memory engine connection.
	mem := engine.New()
	if _, err := mem.Exec("CREATE TABLE t (a INTEGER, b VARCHAR)"); err != nil {
		return err
	}
	ec := mem.Conn()
	defer ec.Close()
	v, err = tr.rung("txn.begin_commit", 500, func(i int) error {
		for _, q := range []string{"BEGIN", fmt.Sprintf("INSERT INTO t VALUES (%d, 'a'), (%d, 'b'), (%d, 'c')", i, i, i), "COMMIT"} {
			if _, err := ec.ExecContext(bg, q); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	set("txn.begin_commit_us", v/1e3, 500)

	// wal: append and fsync in the benchmark's scratch directory.
	log, err := wal.Create(vfs.OS, filepath.Join(dir, "ladder.wal"), 0)
	if err != nil {
		return err
	}
	defer log.Close()
	rec := &wal.Record{Kind: wal.KindInsert, Name: "t", Rows: []schema.Row{
		{value.NewInt(1), value.NewString("a")}, {value.NewInt(2), value.NewString("b")}, {value.NewInt(3), value.NewString("c")},
	}}
	for i := 0; i < 200; i++ {
		a := tr.begin("wal.append", 0, i)
		_, err := log.Append(rec)
		tr.end(a)
		if err != nil {
			return fmt.Errorf("wal.append: %w", err)
		}
		s := tr.begin("wal.sync", 0, i)
		err = log.Sync()
		tr.end(s)
		if err != nil {
			return fmt.Errorf("wal.sync: %w", err)
		}
	}
	set("wal.append_us", median(tr.durations("wal.append"))/1e3, 200)
	set("wal.sync_us", median(tr.durations("wal.sync"))/1e3, 200)

	// pager: a resident page through the buffer pool, 1000 gets per span.
	pool := pager.NewPool(0)
	pf, err := pager.OpenFile(vfs.OS, filepath.Join(dir, "ladder.heap"))
	if err != nil {
		return err
	}
	defer pf.Close()
	page, err := pool.Alloc(pf, 0)
	if err != nil {
		return err
	}
	pager.InitPage(page)
	v, err = tr.rung("pager.get_hit", 50, func(int) error {
		for k := 0; k < 1000; k++ {
			if _, err := pool.Get(pf, 0); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	set("pager.get_hit_ns", v/1000, 50)

	out := filepath.Join(h.root, ".bench_build", "trace")
	if err := os.MkdirAll(out, 0o755); err != nil {
		return err
	}
	file := filepath.Join(out, fmt.Sprintf("%s-seed%d.json", w.name, seed))
	if err := tr.write(file); err != nil {
		return err
	}
	rep.notes = append(rep.notes, fmt.Sprintf("traced run: %d ops, %d spans written to %s", ops, len(tr.spans), file))
	return nil
}
