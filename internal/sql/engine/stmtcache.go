package engine

import (
	"sync"

	"minerule/internal/sql/parse"
	"minerule/internal/sql/semck"
)

// stmtCacheLimit bounds the number of distinct statement texts kept.
// The mining kernel's generated SQL cycles through a small set of
// templates, so the bound exists only to stop pathological workloads
// (e.g. millions of distinct literal-bearing INSERTs) from growing the
// cache without end. Eviction is second-chance (clock): entries touched
// since the hand last passed survive, so the kernel's hot Q0–Q11
// templates stay cached while one-shot statements cycle through the
// cold slots.
const stmtCacheLimit = 1024

// clockEntry is one cached program with its second-chance bit.
type clockEntry[V any] struct {
	key string
	v   V
	ref bool
}

// clockCache is a bounded map with second-chance (clock) eviction: get
// marks the entry referenced; put, when full, sweeps the ring clearing
// reference bits and replaces the first unreferenced entry. The sweep
// terminates within two revolutions. Not safe for concurrent use — the
// owning stmtCache serializes access.
type clockCache[V any] struct {
	entries map[string]*clockEntry[V]
	ring    []*clockEntry[V]
	hand    int
}

func (c *clockCache[V]) get(k string) (V, bool) {
	e, ok := c.entries[k]
	if !ok {
		var zero V
		return zero, false
	}
	e.ref = true
	return e.v, true
}

// put inserts k→v, evicting one cold entry when the cache is at limit;
// it reports whether an eviction happened.
func (c *clockCache[V]) put(k string, v V, limit int) bool {
	if c.entries == nil {
		c.entries = make(map[string]*clockEntry[V])
	}
	if e, ok := c.entries[k]; ok {
		e.v = v
		return false
	}
	e := &clockEntry[V]{key: k, v: v}
	if len(c.ring) < limit {
		c.entries[k] = e
		c.ring = append(c.ring, e)
		return false
	}
	for {
		cand := c.ring[c.hand]
		if cand.ref {
			cand.ref = false
			c.hand = (c.hand + 1) % len(c.ring)
			continue
		}
		delete(c.entries, cand.key)
		c.ring[c.hand] = e
		c.entries[k] = e
		c.hand = (c.hand + 1) % len(c.ring)
		return true
	}
}

// prepared is one cached program: the parsed statement(s) plus the
// result of the prepare-time semantic check, stamped with the catalog
// version it was last known valid at and the dictionary reads it was
// computed from. A statement executes under a transaction snapshot, so
// the verdict is validated against the snapshot's catalog (txn.Txn) —
// a prepared program racing concurrent DDL rechecks against exactly the
// dictionary state its own statement will bind against, never a newer
// one. A hit at the same version reuses the verdict without touching
// the dictionary; at another version, replaying the read set decides
// whether the verdict still holds (see verdict). err carries the
// statements themselves untouched — the engine still hands the parsed
// form out on a failed check so EXPLAIN can report the diagnostic as
// its plan.
// The verdict fields (checked/ver/err/reads) are accessed only under
// the owning stmtCache's mu; st, sts and a published reads value are
// immutable.
type prepared struct {
	st      parse.Statement
	sts     []parse.Statement // script form
	params  int               // ? parameters in the text
	checked bool              // ver/err valid
	ver     uint64
	err     error
	reads   *semck.ReadSet // what the check behind err looked up; nil for scripts
}

// stmtCache is the engine's prepared-program cache: statement text →
// parsed form plus semantic verdict, so each distinct text is parsed
// once and semantically checked once per set of dictionary answers it
// depends on, then re-executed many times. Name resolution still
// happens at bind time inside the executor on every execution, so a
// cached program can never observe a stale catalog; the version stamp
// and read set only guard the cached semck verdict. (Catalog-dependent plan state, like resolved view
// bodies, is cached in the executor keyed by storage.Catalog.Version.)
type stmtCache struct {
	mu        sync.Mutex
	stmts     clockCache[*prepared] // guarded by mu
	scripts   clockCache[*prepared] // guarded by mu
	hits      uint64                // guarded by mu
	misses    uint64                // guarded by mu
	evictions uint64                // guarded by mu
}

// StatementCacheStats reports the prepared-program cache's hit and miss
// counts since the database was created (for tests and tooling).
func (db *Database) StatementCacheStats() (hits, misses uint64) {
	db.cache.mu.Lock()
	defer db.cache.mu.Unlock()
	return db.cache.hits, db.cache.misses
}

// StatementCacheEvictions reports how many cached programs second-chance
// eviction has discarded since the database was created.
func (db *Database) StatementCacheEvictions() uint64 {
	db.cache.mu.Lock()
	defer db.cache.mu.Unlock()
	return db.cache.evictions
}

// parseStmt returns the parsed form of one statement, from cache when
// the exact text has been seen before. The semantic check is deferred
// to verdict, which the engine calls with the executing transaction's
// snapshot catalog. Parse errors are not cached (they cannot become
// valid without the text changing, and failed texts rarely repeat).
func (db *Database) parseStmt(sql string) (*prepared, error) {
	c := &db.cache
	c.mu.Lock()
	if p, ok := c.stmts.get(sql); ok {
		c.hits++
		c.mu.Unlock()
		db.met.StmtCacheHits.Inc()
		return p, nil
	}
	c.misses++
	c.mu.Unlock()
	db.met.StmtCacheMisses.Inc()

	st, params, err := parse.ParseParams(sql)
	if err != nil {
		return nil, err
	}
	p := &prepared{st: st, params: params}
	c.mu.Lock()
	if c.stmts.put(sql, p, stmtCacheLimit) {
		c.evictions++
		db.met.StmtCacheEvictions.Inc()
	}
	c.mu.Unlock()
	return p, nil
}

// verdict returns the prepare-time semantic verdict for p as of catalog
// version ver; scat is the executing statement's view of the dictionary
// (its transaction snapshot, or the live catalog for Prepare). Catalog
// versions identify dictionary states exactly (every DDL publish
// advances the version), so a hit at the same version is sound no
// matter which snapshot produced it. On a version miss the stored read
// set is replayed against scat: semck sees the dictionary only through
// semck.Catalog, so equal answers mean an equal verdict, and the
// verdict is re-stamped without a check. Only when an answer differs —
// a table re-created with another shape, a dropped sequence — does the
// checker run again, recording a new read set.
func (db *Database) verdict(p *prepared, src string, scat semck.Catalog, ver uint64) error {
	c := &db.cache
	c.mu.Lock()
	if p.checked && p.ver == ver {
		err := p.err
		c.mu.Unlock()
		return err
	}
	reads, err := p.reads, p.err
	c.mu.Unlock()
	if reads != nil && reads.Holds(scat) {
		db.met.SemckVerdictReuse.Inc()
		c.mu.Lock()
		// A concurrent full check may have replaced the read set; its
		// verdict is stamped with its own version, so leave it be.
		if p.reads == reads {
			p.ver = ver
		}
		c.mu.Unlock()
		return err
	}
	db.met.SemckChecks.Inc()
	reads, err = semck.CheckRecorded(scat, p.st, src)
	c.mu.Lock()
	p.checked, p.ver, p.err, p.reads = true, ver, err, reads
	c.mu.Unlock()
	return err
}

// checkScript semantically checks a statement sequence in order,
// threading DDL effects through an overlay so later statements see
// tables and sequences earlier ones create. Offsets in diagnostics are
// script-relative, matching how the parser assigned them.
func (db *Database) checkScript(sts []parse.Statement, src string) error {
	ov := semck.NewOverlay(semck.FromStorage(db.cat))
	for _, st := range sts {
		db.met.SemckChecks.Inc()
		if err := semck.Check(ov, st, src); err != nil {
			return err
		}
		ov.Apply(st)
	}
	return nil
}

// prepareScript is parseStmt+verdict for semicolon-separated scripts:
// the whole sequence is checked as a unit against the live catalog
// (with DDL effects threaded through an overlay), so the per-statement
// verdict path is bypassed at execution. It also returns the script's
// ? parameter count.
func (db *Database) prepareScript(sql string) ([]parse.Statement, int, error) {
	c := &db.cache
	ver := db.cat.Version()
	c.mu.Lock()
	if p, ok := c.scripts.get(sql); ok {
		c.hits++
		if !p.checked || p.ver != ver {
			p.err = db.checkScript(p.sts, sql)
			p.checked, p.ver = true, ver
		}
		sts, params, err := p.sts, p.params, p.err
		c.mu.Unlock()
		db.met.StmtCacheHits.Inc()
		if err != nil {
			return nil, 0, err
		}
		return sts, params, nil
	}
	c.misses++
	c.mu.Unlock()
	db.met.StmtCacheMisses.Inc()

	sts, params, err := parse.ParseScript(sql)
	if err != nil {
		return nil, 0, err
	}
	cerr := db.checkScript(sts, sql)
	c.mu.Lock()
	if c.scripts.put(sql, &prepared{sts: sts, params: params, checked: true, ver: ver, err: cerr}, stmtCacheLimit) {
		c.evictions++
		db.met.StmtCacheEvictions.Inc()
	}
	c.mu.Unlock()
	if cerr != nil {
		return nil, 0, cerr
	}
	return sts, params, nil
}
