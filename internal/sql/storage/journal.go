package storage

import "minerule/internal/sql/schema"

// Journal receives every catalog mutation (DDL) and sequence bump
// before it is applied in memory — the write-ahead discipline of the
// durable storage subsystem. The engine's durable store implements it by
// appending WAL records; an in-memory database has no journal and pays
// nothing. Row changes never pass through it: they reach the log only
// inside a transaction's commit frame (txn.CommitJournal).
//
// A Journal call that returns an error vetoes the mutation: the caller
// returns the error without touching in-memory state, so memory never
// runs ahead of the log. Replay runs with the journal detached, which is
// what makes recovery apply records exactly once.
type Journal interface {
	CreateTable(name string, s *schema.Schema) error
	DropTable(name string) error
	CreateView(name, text string) error
	DropView(name string) error
	CreateSequence(name string) error
	DropSequence(name string) error
	CreateIndex(name, table string, col int) error
	DropIndex(name string) error

	// SequenceBump logs a new sequence ceiling: after recovery the
	// sequence resumes at next, skipping any unlogged values (the classic
	// sequence-cache gap trade).
	SequenceBump(name string, next int64) error
}

// SetJournal attaches (or, with nil, detaches) the journal, propagating
// it to every existing sequence. The durable store calls it once after
// recovery replay, so replayed records mutate memory without being
// re-logged.
func (c *Catalog) SetJournal(jn Journal) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.jn = jn
	for _, s := range c.seqs {
		s.setJournal(jn)
	}
}

func (s *Sequence) setJournal(jn Journal) {
	s.mu.Lock()
	s.jn = jn
	// Force the next NextVal to log a fresh ceiling.
	s.logged = s.next
	s.mu.Unlock()
}
