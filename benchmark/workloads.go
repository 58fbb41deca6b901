package main

// The four workloads and the operations they are built from. Everything
// here reaches the server as SQL / MINE RULE text through database/sql.

import (
	"context"
	"database/sql"
	"fmt"
	"hash/fnv"
	"sort"
	"strings"
	"time"
)

type workload struct {
	name    string
	why     string
	durable bool // boot the server with -db: WAL, fsync per commit, default buffer pool
	data    func(seed int64) *dataset
	mine    string // the MINE RULE statement
	warmup  int    // untimed mining ops that end set-up
	// want is the fixed expected answer (paper_small); nil means compare
	// with an embedded minerule.System.Mine over the same data, or, on
	// the live durable table, check the rules are well-formed.
	want []rule
}

var workloads = []*workload{
	{
		name: "paper_small",
		why:  "Figure-1 table, 8 rows: data work is nil, so latency is the fixed per-statement cost of driver, wire, server, parse, semck, translator, txn and stmt cache",
		data: figure1, warmup: 200,
		mine: `MINE RULE FilteredOrderedSets AS
SELECT DISTINCT 1..n item AS BODY, 1..n item AS HEAD, SUPPORT, CONFIDENCE
WHERE BODY.price >= 100 AND HEAD.price < 100
FROM Purchase
WHERE dt BETWEEN DATE '1995-01-01' AND DATE '1995-12-31'
GROUP BY cust
CLUSTER BY dt HAVING BODY.dt < HEAD.dt
EXTRACTING RULES WITH SUPPORT: 0.2, CONFIDENCE: 0.3`,
		// Figure 2.b of the paper.
		want: []rule{
			{"{brown_boots}", "{col_shirts}", 0.5, 1},
			{"{jackets}", "{col_shirts}", 0.5, 0.5},
			{"{brown_boots, jackets}", "{col_shirts}", 0.5, 1},
		},
	},
	{
		name: "basket_simple",
		why:  "Quest T10.I4, 4000 groups, 40k rows, simple class: preprocessing joins Q0-Q4 in exec and the Apriori core do nearly all the work; fixed overhead is under 2 %",
		data: func(seed int64) *dataset { return basketData(seed, 4000, 500) }, warmup: 5,
		mine: `MINE RULE BasketRules AS
SELECT DISTINCT 1..n item AS BODY, 1..1 item AS HEAD, SUPPORT, CONFIDENCE
FROM Baskets GROUP BY gid
EXTRACTING RULES WITH SUPPORT: 0.01, CONFIDENCE: 0.2`,
	},
	{
		name: "purchase_general",
		why:  "400 customers, 6k rows, general class (1..2 body, CLUSTER BY, mining condition): same layers as basket_simple through Q5-Q10 and the rule-lattice core",
		data: func(seed int64) *dataset { return purchaseData(seed, 400, 80, false, 0) }, warmup: 5,
		mine: `MINE RULE PurchaseRules AS
SELECT DISTINCT 1..2 item AS BODY, 1..1 item AS HEAD, SUPPORT, CONFIDENCE
WHERE BODY.price >= 100 AND HEAD.price < 100
FROM Purchase GROUP BY cust
CLUSTER BY dt HAVING BODY.dt < HEAD.dt
EXTRACTING RULES WITH SUPPORT: 0.04, CONFIDENCE: 0.2`,
	},
	{
		name: "durable_mixed", durable: true,
		why:  "durable server, 1000 customers, indexed: open-loop write transactions beside closed-loop reads, scans and mining on the same exec/storage/txn code, plus wal, group commit and checkpoints",
		data: func(seed int64) *dataset { return purchaseData(seed, 1000, 80, true, 4000) }, warmup: 5,
		mine: `MINE RULE LiveRules AS
SELECT DISTINCT 1..n item AS BODY, 1..1 item AS HEAD, SUPPORT, CONFIDENCE
FROM Purchase GROUP BY cust
EXTRACTING RULES WITH SUPPORT: 0.05, CONFIDENCE: 0.2`,
	},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

const (
	writeRate     = 200     // open-loop write transactions per second (durable_mixed)
	firstWriteTxn = 1000000 // write transactions number their rows from here, above every loaded tr/gid
	mineEvery     = 100     // durable_mixed reader: every 100th op is the MINE RULE
	scanEvery     = 20      // every 20th reader op is the range aggregate
	updateEvery   = 10      // every 10th write transaction also updates a Catalog price
	// An in-memory workload runs, on its one connection, a closed mining
	// loop and then a closed write/read/scan mix, which gets oltpShare of
	// the time.
	oltpShare = 0.2
)

// rule is one row of a MINE RULE result as the driver returns it.
type rule struct {
	body, head          string
	support, confidence float64
}

// ruleSet is a rule count and an order-independent checksum.
type ruleSet struct {
	n   int
	sum uint64
}

func (s *ruleSet) add(r rule) {
	h := fnv.New64a()
	fmt.Fprintf(h, "%s\x00%s\x00%.9g\x00%.9g", sortSide(r.body), sortSide(r.head), r.support, r.confidence)
	s.n++
	s.sum += h.Sum64()
}

// sortSide orders the elements of a rendered rule side "{a, b}": their
// order follows the load order of the rows, which the seed shuffles.
func sortSide(side string) string {
	els := strings.Split(strings.Trim(side, "{}"), ", ")
	sort.Strings(els)
	return strings.Join(els, ", ")
}

func ruleSetOf(rules []rule) ruleSet {
	var s ruleSet
	for _, r := range rules {
		s.add(r)
	}
	return s
}

// tally is what one connection observed: client-side latencies per
// operation type, and the attempted/failed counts behind failed_share.
type tally struct {
	mine, write, read, scan latencies
	attempted, failed       int
	userBytes               int     // bytes of row text the write transactions inserted
	acked                   []int64 // write transaction ids whose COMMIT was acknowledged
	firstFailure            string
}

func (t *tally) fail(format string, args ...interface{}) {
	t.failed++
	if t.firstFailure == "" {
		t.firstFailure = fmt.Sprintf(format, args...)
	}
}

func (t *tally) merge(o *tally) {
	t.mine.ms = append(t.mine.ms, o.mine.ms...)
	t.write.ms = append(t.write.ms, o.write.ms...)
	t.read.ms = append(t.read.ms, o.read.ms...)
	t.scan.ms = append(t.scan.ms, o.scan.ms...)
	t.attempted += o.attempted
	t.failed += o.failed
	t.userBytes += o.userBytes
	t.acked = append(t.acked, o.acked...)
	if t.firstFailure == "" {
		t.firstFailure = o.firstFailure
	}
}

// client is one connection issuing a workload's operations.
type client struct {
	conn *sql.Conn
	w    *workload
	d    *dataset
	ref  *ruleSet // expected MINE RULE answer; nil on the live durable table
	r    *rng
	t    *tally
}

var bg = context.Background()

// mineOp runs the MINE RULE statement, reads every rule row, checks the
// answer and records the latency from call to last row.
func (c *client) mineOp() {
	c.t.attempted++
	start := time.Now()
	rows, err := c.conn.QueryContext(bg, c.w.mine)
	if err != nil {
		c.t.fail("mine: %v", err)
		return
	}
	defer rows.Close()
	var got ruleSet
	sane := true
	for rows.Next() {
		var r rule
		if err := rows.Scan(&r.body, &r.head, &r.support, &r.confidence); err != nil {
			c.t.fail("mine: scan: %v", err)
			return
		}
		got.add(r)
		sane = sane && r.support > 0 && r.support <= 1 && r.confidence > 0 && r.confidence <= 1
	}
	if err := rows.Err(); err != nil {
		c.t.fail("mine: %v", err)
		return
	}
	c.t.mine.add(time.Since(start))
	switch {
	case c.ref != nil && got != *c.ref:
		c.t.fail("mine: got %d rules (checksum %x), want %d (%x)", got.n, got.sum, c.ref.n, c.ref.sum)
	case got.n == 0 || !sane:
		c.t.fail("mine: %d rules, well-formed=%v", got.n, sane)
	}
}

// readOp is a point read by the grouping key through a '?' placeholder;
// keys written during the run are never read, so the answer is exact.
func (c *client) readOp() {
	c.t.attempted++
	key := c.d.keys[c.r.intn(len(c.d.keys))]
	start := time.Now()
	rows, err := c.conn.QueryContext(bg, "SELECT * FROM "+c.d.table+" WHERE "+c.d.keyCol+" = ?", key)
	if err != nil {
		c.t.fail("read: %v", err)
		return
	}
	defer rows.Close()
	n := 0
	for rows.Next() {
		n++
	}
	if err := rows.Err(); err != nil {
		c.t.fail("read: %v", err)
		return
	}
	c.t.read.add(time.Since(start))
	if n != c.d.keyRows[key] {
		c.t.fail("read %v: %d rows, want %d", key, n, c.d.keyRows[key])
	}
}

// scanOp is a range aggregate grouped by item: a two-week window of
// purchase dates, or a tenth of the basket ids. The counts must add up
// to the rows loaded in the range (at least that many on the durable
// table, which write transactions add to).
func (c *client) scanOp() {
	c.t.attempted++
	var q string
	want := 0
	if c.d.dayHi > 0 {
		span := c.d.dayHi - c.d.dayLo
		if span > 13 {
			span = 13
		}
		lo := c.d.dayLo + c.r.intn(c.d.dayHi-span-c.d.dayLo+1)
		for day := lo; day <= lo+span; day++ {
			want += c.d.dayRows[day]
		}
		q = fmt.Sprintf("SELECT item, COUNT(*) FROM %s WHERE dt BETWEEN DATE '%s' AND DATE '%s' GROUP BY item",
			c.d.table, dateString(lo), dateString(lo+span))
	} else {
		span := len(c.d.keys) / 10
		lo := 1 + c.r.intn(len(c.d.keys)-span)
		for gid := lo; gid < lo+span; gid++ {
			want += c.d.keyRows[int64(gid)]
		}
		q = fmt.Sprintf("SELECT item, COUNT(*) FROM %s WHERE gid BETWEEN %d AND %d GROUP BY item", c.d.table, lo, lo+span-1)
	}
	start := time.Now()
	rows, err := c.conn.QueryContext(bg, q)
	if err != nil {
		c.t.fail("scan: %v", err)
		return
	}
	defer rows.Close()
	got := 0
	for rows.Next() {
		var item string
		var n int
		if err := rows.Scan(&item, &n); err != nil {
			c.t.fail("scan: %v", err)
			return
		}
		got += n
	}
	if err := rows.Err(); err != nil {
		c.t.fail("scan: %v", err)
		return
	}
	c.t.scan.add(time.Since(start))
	if got != want && !(c.w.durable && got > want) {
		c.t.fail("scan: %d rows counted, want %d: %s", got, want, q)
	}
}

// writeOp is one write transaction: BEGIN, INSERT a few rows under a
// fresh group key, every tenth time also UPDATE a Catalog price, COMMIT.
// The durable workload writes into the live mined table; the in-memory
// ones into Ledger, so their mined table and its expected rules stay
// fixed. due is when the transaction was scheduled: latency counts from
// there.
func (c *client) writeOp(txid int64, due time.Time) {
	c.t.attempted++
	target := "Ledger"
	if c.w.durable {
		target = c.d.table
	}
	tuples := c.d.writeRows(txid, c.r)
	insert := "INSERT INTO " + target + " VALUES " + strings.Join(tuples, ", ")
	tx, err := c.conn.BeginTx(bg, nil)
	if err != nil {
		c.t.fail("write: begin: %v", err)
		return
	}
	if _, err := tx.ExecContext(bg, insert); err != nil {
		tx.Rollback()
		c.t.fail("write: %v", err)
		return
	}
	if txid%updateEvery == 0 {
		it := c.r.intn(len(c.d.items))
		_, err := tx.ExecContext(bg, fmt.Sprintf("UPDATE Catalog SET price = %g WHERE item = '%s'", c.d.prices[it]+float64(txid%7), c.d.items[it]))
		if err != nil {
			tx.Rollback()
			c.t.fail("write: update: %v", err)
			return
		}
	}
	if err := tx.Commit(); err != nil {
		c.t.fail("write: commit: %v", err)
		return
	}
	c.t.write.add(time.Since(due))
	c.t.userBytes += len(insert) - len("INSERT INTO  VALUES ") - len(target)
	c.t.acked = append(c.t.acked, txid)
}

// mineLoop is the closed mining loop of the in-memory workloads.
func (c *client) mineLoop(until time.Time) {
	for time.Now().Before(until) {
		c.mineOp()
	}
}

// oltpOp is op k of the closed write/read/scan mix: of every 20 ops one
// is the scan, ten are write transactions and nine are point reads, so
// that both get enough samples for a p95 where a read is ten times a
// write.
func (c *client) oltpOp(k int, txid *int64) {
	switch {
	case k%scanEvery == scanEvery-1:
		c.scanOp()
	case k%2 == 0:
		*txid++
		c.writeOp(*txid, time.Now())
	default:
		c.readOp()
	}
}

// oltpLoop runs the mix after the mining loop of an in-memory workload.
func (c *client) oltpLoop(until time.Time, txid *int64) {
	for k := 0; time.Now().Before(until); k++ {
		c.oltpOp(k, txid)
	}
}

// readerLoop is durable_mixed's connection R: a closed loop of point
// reads with every 20th op the range aggregate and every 100th the
// MINE RULE over the live table.
func (c *client) readerLoop(until time.Time) {
	for k := 0; time.Now().Before(until); k++ {
		switch {
		case k%mineEvery == 0:
			c.mineOp()
		case k%scanEvery == scanEvery-1:
			c.scanOp()
		default:
			c.readOp()
		}
	}
}
