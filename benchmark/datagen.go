package main

// Seeded, self-contained data generators. They import nothing from the
// repository (not internal/gen, not internal/bench), so a change to the
// repo's own generators cannot move a workload. Every dataset is a list
// of SQL value tuples plus the DDL that holds them; the server receives
// only that text.

import (
	"fmt"
	"hash/fnv"
	"math"
	"sort"
	"strings"
)

// rng is splitmix64: a fixed algorithm owned by the benchmark, so the
// golden checksums cannot drift with the toolchain's math/rand.
type rng struct{ s uint64 }

// newRNG starts the generator at the mixed seed: the raw seed as the
// state would make seed n+1 the stream of seed n shifted by one draw.
func newRNG(seed int64) *rng {
	r := &rng{s: uint64(seed)}
	r.s = r.next()
	return r
}

func (r *rng) next() uint64 {
	r.s += 0x9E3779B97F4A7C15
	z := r.s
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// float is uniform in [0,1).
func (r *rng) float() float64 { return float64(r.next()>>11) / (1 << 53) }

// intn is uniform in [0,n).
func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// poisson draws by Knuth's product method; means here are below 10.
func (r *rng) poisson(mean float64) int {
	l, k, p := math.Exp(-mean), 0, 1.0
	for {
		p *= r.float()
		if p <= l {
			return k
		}
		k++
	}
}

// shuffle is Fisher-Yates over n elements.
func (r *rng) shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		swap(i, r.intn(i+1))
	}
}

// dataset is one workload's generated input: the mined table, plus what
// the write, point-read and scan operations need to address it.
type dataset struct {
	table   string   // the mined table
	columns string   // its column list, as DDL
	indexed bool     // CREATE INDEX on keyCol after the load
	tuples  []string // "(v1, v2, …)" rows of table, in load order
	keyCol  string   // the grouping column point reads select on
	keys    []interface{}
	// keyRows counts the loaded rows per key, the exact answer a point
	// read must return.
	keyRows map[interface{}]int
	items   []string  // item names; Catalog holds one row per item
	prices  []float64 // price per item, parallel to items
	// stream, when set, is what write transactions insert into the live
	// table: the purchases of further customers drawn like the loaded ones,
	// one transaction per purchase date, numbered from firstWriteTxn+1, so
	// the table keeps its statistics while it grows.
	stream [][]string
	// Purchase dates fall on 1995-01-01 + [dayLo, dayHi], dayRows[day]
	// rows on each; dayHi zero means the table has no date column.
	dayLo, dayHi int
	dayRows      [365]int
}

// checksum is an order-dependent FNV-1a over the tuples; the golden
// test pins it per workload for seed 42.
func (d *dataset) checksum() uint64 {
	h := fnv.New64a()
	for _, t := range d.tuples {
		h.Write([]byte(t))
		h.Write([]byte{'\n'})
	}
	return h.Sum64()
}

const purchaseColumns = "tr INTEGER, cust VARCHAR, item VARCHAR, dt DATE, price FLOAT, qty INTEGER"

// addRow appends one tuple and counts it under its key.
func (d *dataset) addRow(key interface{}, tuple string) {
	if d.keyRows == nil {
		d.keyRows = map[interface{}]int{}
	}
	if d.keyRows[key] == 0 {
		d.keys = append(d.keys, key)
	}
	d.keyRows[key]++
	d.tuples = append(d.tuples, tuple)
}

// figure1 is the paper's Figure-1 Purchase table. The content is fixed
// by the paper; the seed only chooses the order the rows are loaded in.
func figure1(seed int64) *dataset {
	rows := []struct{ cust, tuple string }{
		{"cust1", "(1, 'cust1', 'ski_pants', DATE '1995-12-17', 140, 1)"},
		{"cust1", "(1, 'cust1', 'hiking_boots', DATE '1995-12-17', 180, 1)"},
		{"cust2", "(2, 'cust2', 'col_shirts', DATE '1995-12-18', 25, 2)"},
		{"cust2", "(2, 'cust2', 'brown_boots', DATE '1995-12-18', 150, 1)"},
		{"cust2", "(2, 'cust2', 'jackets', DATE '1995-12-18', 300, 1)"},
		{"cust1", "(3, 'cust1', 'jackets', DATE '1995-12-18', 300, 1)"},
		{"cust2", "(4, 'cust2', 'col_shirts', DATE '1995-12-19', 25, 3)"},
		{"cust2", "(4, 'cust2', 'jackets', DATE '1995-12-19', 300, 2)"},
	}
	r := newRNG(seed)
	r.shuffle(len(rows), func(i, j int) { rows[i], rows[j] = rows[j], rows[i] })
	d := &dataset{
		table: "Purchase", columns: purchaseColumns, keyCol: "cust",
		items:  []string{"ski_pants", "hiking_boots", "col_shirts", "brown_boots", "jackets"},
		prices: []float64{140, 180, 25, 150, 300},
		dayLo:  350, dayHi: 352, // 17-19 December
	}
	d.dayRows[350], d.dayRows[351], d.dayRows[352] = 2, 4, 2
	for _, row := range rows {
		d.addRow(row.cust, row.tuple)
	}
	return d
}

// baskets is a Quest-style T·I·D generator (Agrawal & Srikant): groups
// of mean size avgSize drawn from a pool of potential patterns of mean
// length avgPat over an item universe, with exponential pattern weights,
// half of each pattern shared with its predecessor, and per-pattern
// corruption. Returns one slice of distinct item ids per group.
func baskets(r *rng, groups, avgSize, avgPat, items, patterns int) [][]int {
	pats := make([][]int, patterns)
	cum := make([]float64, patterns)
	corrupt := make([]float64, patterns)
	var prev []int
	total := 0.0
	for p := range pats {
		plen := r.poisson(float64(avgPat))
		if plen < 1 {
			plen = 1
		}
		seen := map[int]bool{}
		var pat []int
		for i := 0; i < plen/2 && i < len(prev); i++ {
			if it := prev[r.intn(len(prev))]; !seen[it] {
				seen[it] = true
				pat = append(pat, it)
			}
		}
		for len(pat) < plen {
			if it := r.intn(items); !seen[it] {
				seen[it] = true
				pat = append(pat, it)
			}
		}
		pats[p] = pat
		total += -math.Log(1 - r.float())
		cum[p] = total
		corrupt[p] = 0.3 + 0.4*r.float()
		prev = pat
	}
	out := make([][]int, groups)
	for g := range out {
		size := r.poisson(float64(avgSize))
		if size < 1 {
			size = 1
		}
		seen := map[int]bool{}
		var tx []int
		for len(tx) < size {
			p := sort.SearchFloat64s(cum, r.float()*total)
			if p >= patterns {
				p = patterns - 1
			}
			for _, it := range pats[p] {
				if len(tx) >= size {
					break
				}
				if r.float() >= corrupt[p] && !seen[it] {
					seen[it] = true
					tx = append(tx, it)
				}
			}
			// One uniform item per round guarantees progress when a
			// pick is fully corrupted or already present.
			if it := r.intn(items); len(tx) < size && !seen[it] {
				seen[it] = true
				tx = append(tx, it)
			}
		}
		out[g] = tx
	}
	return out
}

// basketData is the Baskets(gid, item) table of basket_simple; prices
// exist only to fill Catalog.
func basketData(seed int64, groups, items int) *dataset {
	r := newRNG(seed)
	d := &dataset{table: "Baskets", columns: "gid INTEGER, item VARCHAR", keyCol: "gid"}
	for g, tx := range baskets(r, groups, 10, 4, items, 50) {
		for _, it := range tx {
			d.addRow(int64(g+1), fmt.Sprintf("(%d, 'item_%d')", g+1, it))
		}
	}
	for i := 0; i < items; i++ {
		d.items = append(d.items, fmt.Sprintf("item_%d", i))
		d.prices = append(d.prices, float64(5+r.intn(495)))
	}
	return d
}

// purchaseData is a synthetic big-store Purchase table: customers buy a
// basket on each of a few dates; item prices are stable, exactly 40 % of
// them at or above 100 (the mining condition's split, so its selectivity
// does not vary with the seed); five planted sequences (a dear pair,
// then a cheap item on a later date) give the clustered statement
// regularities to find.
func purchaseData(seed int64, customers, items int, indexed bool, streamTxns int) *dataset {
	r := newRNG(seed)
	d := &dataset{
		table: "Purchase", columns: purchaseColumns, keyCol: "cust",
		indexed: indexed, dayHi: 119,
	}
	ids := make([]int, items)
	for i := range ids {
		ids[i] = i
		d.items = append(d.items, fmt.Sprintf("item_%d", i))
		d.prices = append(d.prices, float64(5+r.intn(90)))
	}
	r.shuffle(items, func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })
	dear, cheap := ids[:items*2/5], ids[items*2/5:]
	for _, it := range dear {
		d.prices[it] = float64(100 + r.intn(400))
	}
	// The shuffle makes dear[0..9] and cheap[0..4] distinct random items.
	type seq struct{ a, b, then int }
	seqs := make([]seq, 5)
	for i := range seqs {
		seqs[i] = seq{dear[2*i], dear[2*i+1], cheap[i]}
	}
	tr := 0
	for c := 0; c < customers || len(d.stream) < streamTxns; c++ {
		cust := fmt.Sprintf("cust_%d", c+1)
		day := r.intn(60)
		follow := -1 // cheap item a planted sequence owes the next date
		for k := 1 + r.poisson(2); k > 0 && day <= d.dayHi; k-- {
			tr++
			if c >= customers {
				d.stream = append(d.stream, nil)
			}
			seen := map[int]bool{}
			buy := func(it int) {
				if seen[it] {
					return
				}
				seen[it] = true
				if c >= customers {
					n := len(d.stream)
					d.stream[n-1] = append(d.stream[n-1], fmt.Sprintf("(%d, '%s', 'item_%d', DATE '%s', %g, %d)",
						firstWriteTxn+n, cust, it, dateString(day), d.prices[it], 1+r.intn(3)))
					return
				}
				d.dayRows[day]++
				d.addRow(cust, fmt.Sprintf("(%d, '%s', 'item_%d', DATE '%s', %g, %d)",
					tr, cust, it, dateString(day), d.prices[it], 1+r.intn(3)))
			}
			if follow >= 0 {
				buy(follow)
				follow = -1
			}
			if r.float() < 0.35 {
				s := seqs[r.intn(len(seqs))]
				buy(s.a)
				buy(s.b)
				follow = s.then
			}
			for n := 1 + r.poisson(4); len(seen) < n; {
				buy(r.intn(items))
			}
			day += 1 + r.intn(14)
		}
	}
	return d
}

// writeRows returns the rows write transaction txid inserts: the next
// purchase of the stream, or 2-4 random rows under a fresh group key.
func (d *dataset) writeRows(txid int64, r *rng) []string {
	if d.stream != nil {
		return d.stream[int(txid-firstWriteTxn-1)%len(d.stream)]
	}
	var rows []string
	for n := 2 + r.intn(3); n > 0; n-- {
		it := r.intn(len(d.items))
		if d.dayHi > 0 {
			day := d.dayLo + r.intn(d.dayHi-d.dayLo+1)
			rows = append(rows, fmt.Sprintf("(%d, 'w_%d', '%s', DATE '%s', %g, %d)",
				txid, txid, d.items[it], dateString(day), d.prices[it], 1+r.intn(3)))
		} else {
			rows = append(rows, fmt.Sprintf("(%d, '%s')", txid, d.items[it]))
		}
	}
	return rows
}

// dateString renders a day offset from 1995-01-01 (not a leap year; the
// generators stay within it).
func dateString(day int) string {
	month := [...]int{31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31}
	m := 0
	for day >= month[m] {
		day -= month[m]
		m++
	}
	return fmt.Sprintf("1995-%02d-%02d", m+1, day+1)
}

// insertBatches renders tuples as multi-row INSERT statements into table.
func insertBatches(table string, tuples []string, per int) []string {
	var out []string
	for i := 0; i < len(tuples); i += per {
		j := i + per
		if j > len(tuples) {
			j = len(tuples)
		}
		out = append(out, "INSERT INTO "+table+" VALUES "+strings.Join(tuples[i:j], ", "))
	}
	return out
}
