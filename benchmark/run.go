package main

// One untraced run of one workload against a separate minerule-serve
// process: set-up, the timed section, the output checks. Every number is
// taken from outside the server: client clocks, /metrics deltas scraped
// around the timed section, /proc/<pid>.

import (
	"database/sql"
	"fmt"
	"os"
	"strings"
	"sync"
	"time"

	"minerule"
	_ "minerule/driver"
)

// harness is what every run of this process shares.
type harness struct {
	root string // repository checkout
	bin  string // the built minerule-serve
	tmp  string // scratch directory under .bench_build, removed on exit
	cl   *cleanup
	// instances is how many times a run boots, loads and warms up a server.
	// Each instance serves an equal slice of the timed section: latencies
	// are pooled over the instances and setup_s, peak RSS and recovery time
	// are their medians, so that what differs from one process launch to
	// the next averages out inside a run instead of between runs.
	instances int
}

// instance is one booted, loaded and warmed-up server with the
// connections that will drive it: conns[0] mines and reads; durable
// workloads get conns[1] for the open-loop writer.
type instance struct {
	srv     *child
	db      *sql.DB
	conns   []*sql.Conn
	dir     string // durable database directory, "" in memory
	setup   time.Duration
	nextTxn int64
	acked   []int64 // write transactions acknowledged so far
}

func (in *instance) close() {
	for _, c := range in.conns {
		c.Close()
	}
	in.db.Close()
	in.srv.kill()
	if in.dir != "" {
		os.RemoveAll(in.dir)
	}
}

// reference is the answer every timed MINE RULE must return: Figure 2.b
// for paper_small, an embedded minerule.System.Mine over the same rows
// for the generated tables, nil for the live durable table.
func reference(w *workload, d *dataset) (*ruleSet, error) {
	if w.want != nil {
		s := ruleSetOf(w.want)
		return &s, nil
	}
	if w.durable {
		return nil, nil
	}
	sys, err := minerule.Open()
	if err != nil {
		return nil, err
	}
	defer sys.Close()
	if err := sys.Exec("CREATE TABLE " + d.table + " (" + d.columns + ")"); err != nil {
		return nil, err
	}
	for _, ins := range insertBatches(d.table, d.tuples, 500) {
		if err := sys.Exec(ins); err != nil {
			return nil, err
		}
	}
	res, err := sys.Mine(w.mine, minerule.WithReplaceOutput())
	if err != nil {
		return nil, fmt.Errorf("embedded reference mine: %w", err)
	}
	var s ruleSet
	for _, r := range res.Rules {
		s.add(rule{renderSide(r.Body), renderSide(r.Head), r.Support, r.Confidence})
	}
	return &s, nil
}

// renderSide renders one rule side the way the server streams it.
func renderSide(els [][]string) string {
	parts := make([]string, len(els))
	for i, t := range els {
		parts[i] = strings.Join(t, "/")
	}
	return "{" + strings.Join(parts, ", ") + "}"
}

// setup boots a server, creates the schema, loads the rows in one
// transaction, builds the index and warms up. Its wall time is setup_s.
func (h *harness) setup(w *workload, d *dataset, ref *ruleSet, seed int64) (_ *instance, err error) {
	start := time.Now()
	in := &instance{nextTxn: firstWriteTxn}
	if w.durable {
		if in.dir, err = os.MkdirTemp(h.tmp, "db-"); err != nil {
			return nil, err
		}
	}
	if in.srv, err = startServer(h.cl, h.bin, in.dir); err != nil {
		return nil, err
	}
	if in.db, err = sql.Open("minerule", "tcp://"+in.srv.addr); err != nil {
		in.srv.kill()
		return nil, err
	}
	defer func() {
		if err != nil {
			in.close()
		}
	}()
	nconn := 1
	if w.durable {
		nconn = 2
	}
	in.db.SetMaxOpenConns(nconn)
	for i := 0; i < nconn; i++ {
		c, err := in.db.Conn(bg)
		if err != nil {
			return nil, err
		}
		in.conns = append(in.conns, c)
	}
	if err := load(in.conns[0], w, d); err != nil {
		return nil, fmt.Errorf("load %s: %w", w.name, err)
	}

	// Warm-up: the mining statement, then a few rounds of the other ops,
	// so lazy set-up and the statement cache are out of the timed section.
	warm := &tally{}
	c := &client{conn: in.conns[0], w: w, d: d, ref: ref, r: newRNG(seed ^ 0x5eed), t: warm}
	for i := 0; i < w.warmup; i++ {
		c.mineOp()
	}
	for k := 0; k < 40; k++ {
		c.oltpOp(k, &in.nextTxn)
	}
	if warm.failed > 0 {
		return nil, fmt.Errorf("warm-up of %s: %d of %d ops failed: %s", w.name, warm.failed, warm.attempted, warm.firstFailure)
	}
	in.acked = warm.acked
	in.setup = time.Since(start)
	return in, nil
}

// load creates and fills the mined table, Catalog, and (in memory) the
// Ledger table write transactions insert into.
func load(c *sql.Conn, w *workload, d *dataset) error {
	if _, err := c.ExecContext(bg, "CREATE TABLE "+d.table+" ("+d.columns+")"); err != nil {
		return err
	}
	tx, err := c.BeginTx(bg, nil)
	if err != nil {
		return err
	}
	for _, ins := range insertBatches(d.table, d.tuples, 500) {
		if _, err := tx.ExecContext(bg, ins); err != nil {
			tx.Rollback()
			return err
		}
	}
	if err := tx.Commit(); err != nil {
		return err
	}
	var ddl []string
	if d.indexed {
		ddl = append(ddl, "CREATE INDEX "+d.table+"_key ON "+d.table+" ("+d.keyCol+")")
	}
	ddl = append(ddl, "CREATE TABLE Catalog (item VARCHAR, price FLOAT)")
	var cat []string
	for i, it := range d.items {
		cat = append(cat, fmt.Sprintf("('%s', %g)", it, d.prices[i]))
	}
	ddl = append(ddl, insertBatches("Catalog", cat, len(cat))...)
	if !w.durable {
		ddl = append(ddl, "CREATE TABLE Ledger ("+d.columns+")")
	}
	for _, s := range ddl {
		if _, err := c.ExecContext(bg, s); err != nil {
			return fmt.Errorf("%s: %w", s, err)
		}
	}
	return nil
}

// section accumulates the timed slices of one run, one slice per server
// instance.
type section struct {
	t        tally
	mineWall time.Duration // wall time mining ops were issued over
	oltpWall time.Duration // wall time reads, writes and scans were issued over
	delta    promSample    // summed /metrics deltas
	counted  int           // ops the deltas cover
	maxLate  time.Duration // open-loop sender lateness (durable_mixed)
}

// timed runs one slice of the workload's timed section on one instance.
//
// In-memory workloads: one connection, closed loop, the mining loop and
// then the write/read/scan mix; the /metrics delta covers the mining
// loop only, so the counters are counts per MINE RULE.
//
// durable_mixed: connection W sends write transactions open loop at
// writeRate while connection R runs the closed reader loop, both for the
// whole slice; the delta covers everything.
func (h *harness) timed(s *section, w *workload, in *instance, d *dataset, ref *ruleSet, seed int64, dur time.Duration) error {
	before, err := in.srv.scrape()
	if err != nil {
		return err
	}
	reader := &client{conn: in.conns[0], w: w, d: d, ref: ref, r: newRNG(seed), t: &s.t}
	start := time.Now()
	if !w.durable {
		mines := len(s.t.mine.ms)
		reader.mineLoop(start.Add(time.Duration(float64(dur) * (1 - oltpShare))))
		s.mineWall += time.Since(start)
		after, err := in.srv.scrape()
		if err != nil {
			return err
		}
		s.delta.add(after.delta(before))
		s.counted += len(s.t.mine.ms) - mines
		oltp := time.Now()
		reader.oltpLoop(oltp.Add(time.Duration(float64(dur)*oltpShare)), &in.nextTxn)
		s.oltpWall += time.Since(oltp)
		return nil
	}

	until := start.Add(dur)
	attempted := s.t.attempted
	wt := &tally{}
	writer := &client{conn: in.conns[1], w: w, d: d, r: newRNG(seed ^ 0x77), t: wt}
	var late time.Duration
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		ol := openLoop{start: start, interval: time.Second / writeRate, now: time.Now, sleep: time.Sleep}
		first := in.nextTxn + 1
		_, late = ol.run(until, func(i int, due time.Time) { writer.writeOp(first+int64(i), due) })
	}()
	reader.readerLoop(until)
	wg.Wait()
	wall := time.Since(start)
	s.mineWall += wall
	s.oltpWall += wall
	after, err := in.srv.scrape()
	if err != nil {
		return err
	}
	if late > s.maxLate {
		s.maxLate = late
	}
	in.acked = append(in.acked, wt.acked...)
	s.t.merge(wt)
	s.delta.add(after.delta(before))
	s.counted += s.t.attempted - attempted
	return nil
}

// crashAndReopen SIGKILLs the durable server, reopens it on the same directory
// and checks that every acknowledged write transaction is there. It
// returns the restart time and the number of acknowledged transactions
// that were lost.
func (h *harness) crashAndReopen(in *instance, d *dataset) (restart time.Duration, lost int, err error) {
	for _, c := range in.conns {
		c.Close()
	}
	in.db.Close()
	in.srv.kill()
	start := time.Now()
	if in.srv, err = startServer(h.cl, h.bin, in.dir); err != nil {
		return 0, 0, fmt.Errorf("restart after SIGKILL: %w", err)
	}
	restart = time.Since(start)
	if in.db, err = sql.Open("minerule", "tcp://"+in.srv.addr); err != nil {
		return 0, 0, err
	}
	in.conns = nil
	rows, err := in.db.Query(fmt.Sprintf("SELECT DISTINCT tr FROM %s WHERE tr > %d", d.table, firstWriteTxn))
	if err != nil {
		return 0, 0, fmt.Errorf("read back after recovery: %w", err)
	}
	defer rows.Close()
	have := map[int64]bool{}
	for rows.Next() {
		var tr int64
		if err := rows.Scan(&tr); err != nil {
			return 0, 0, err
		}
		have[tr] = true
	}
	if err := rows.Err(); err != nil {
		return 0, 0, err
	}
	for _, id := range in.acked {
		if !have[id] {
			lost++
		}
	}
	return restart, lost, nil
}
