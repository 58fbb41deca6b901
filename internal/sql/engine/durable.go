package engine

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"log"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"minerule/internal/obsv"
	"minerule/internal/resource"
	"minerule/internal/sql/pager"
	"minerule/internal/sql/schema"
	"minerule/internal/sql/storage"
	"minerule/internal/sql/vfs"
	"minerule/internal/sql/wal"
)

// The durable store keeps a database directory in the LevelDB CURRENT
// style:
//
//	CURRENT      — the live generation number, swapped atomically
//	gen-N/       — checkpoint N: catalog.json + one heap file per table
//	wal-N.log    — redo log of everything since checkpoint N
//
// Opening loads the generation named by CURRENT, replays wal-N.log over
// it (skipping records at or below the snapshot's LSN), truncates any
// torn tail, and attaches itself as the catalog's journal. A checkpoint
// writes gen-(N+1) and an empty wal-(N+1).log, fsyncs both, and only
// then swaps CURRENT — a crash at any point leaves the previous
// generation fully intact. LSNs stay monotone across generations.
//
// Tables remain memory-resident: the heap files and buffer pool serve
// open-time loads and checkpoint writes, while statement reads keep the
// in-memory fast paths (and their alloc profile) untouched.

const (
	currentFile = "CURRENT"
	// autoCheckpointBytes triggers a checkpoint at commit once the live
	// WAL outgrows it, bounding recovery replay time.
	autoCheckpointBytes = 4 << 20
	// appendRetries bounds the retry-with-backoff loop for transient EIO
	// on WAL appends; the first backoff is appendBackoff, doubling.
	appendRetries = 3
	appendBackoff = time.Millisecond
)

// snapTable is one table entry of a checkpoint's catalog.json. Rows live
// in the named heap file; Heap is relative to the generation directory.
type snapTable struct {
	Name string          `json:"name"`
	Cols []schema.Column `json:"cols"`
	Heap string          `json:"heap"`
}

type snapView struct {
	Name string `json:"name"`
	Text string `json:"text"`
}

type snapSequence struct {
	Name string `json:"name"`
	Next int64  `json:"next"` // logged ceiling, not the live value
}

type snapIndex struct {
	Name  string `json:"name"`
	Table string `json:"table"`
	Col   int    `json:"col"`
}

// snapshot is the catalog.json schema of one checkpoint generation.
type snapshot struct {
	LastLSN   uint64         `json:"last_lsn"`
	Tables    []snapTable    `json:"tables"`
	Views     []snapView     `json:"views"`
	Sequences []snapSequence `json:"sequences"`
	Indexes   []snapIndex    `json:"indexes"`
}

// store is the durable backend of a Database: it implements
// storage.Journal (every DDL and sequence bump reaches the WAL before it
// is applied in memory) and txn.CommitJournal (transactions log their
// write set — the only way rows reach the WAL — as one atomic frame and
// wait for durability through the shared group-commit fsync).
//
// Lock order (see DESIGN.md §16): syncMu → Catalog publish lock →
// catalog/table/sequence locks → walMu. walMu is terminal: nothing is
// acquired under it.
type store struct {
	fs   vfs.FS
	dir  string
	cat  *storage.Catalog
	pool *pager.Pool
	met  *obsv.Metrics

	// walMu serializes log appends and guards the writer plus the
	// journal health flags. Appends are memory-speed (the fsync happens
	// in SyncTo), so the critical sections are short.
	walMu sync.Mutex
	gen   uint64      // guarded by walMu
	w     *wal.Writer // guarded by walMu
	// applied is the LSN of the newest record reflected in the live
	// catalog (from the snapshot, replay, or an accepted append). Replay
	// skips records at or below it, which is what makes recovery — and
	// replaying a log twice — idempotent.
	applied uint64 // guarded by walMu

	// sticky is the first journal failure that could not propagate to
	// its caller (NEXTVAL cannot fail); the next commit surfaces it and
	// the store refuses further writes.
	sticky error // guarded by walMu
	// degraded is set the moment durability is lost — a WAL fsync
	// failed, or a torn append could not be repaired. The store stays
	// queryable but every mutation, checkpoint, and close returns this
	// same *resource.DegradedError (fsyncgate: a failed fsync is never
	// followed by a successful write acknowledgment).
	degraded error // guarded by walMu

	// seqCeil tracks each sequence's journaled NEXTVAL ceiling, updated
	// in the same walMu critical section as the SeqBump append. A
	// checkpoint reads it instead of the live sequences, so the manifest
	// ceiling provably covers every bump at or below the manifest LSN
	// without ever taking a sequence lock under walMu.
	seqCeil map[string]int64 // guarded by walMu; lowercase name → ceiling

	closed   bool  // guarded by walMu
	closeErr error // guarded by walMu

	scratch []byte // guarded by walMu; payload encode buffer

	// syncMu elects the group-commit leader and serializes checkpoints:
	// one SyncTo caller fsyncs on behalf of everyone whose records the
	// fsync covers; the rest return on the synced watermark alone.
	syncMu sync.Mutex
	// synced is the highest LSN known durable (watermark). Written only
	// by the leader under syncMu; read lock-free by followers.
	synced atomic.Uint64
}

func genDir(dir string, gen uint64) string {
	return filepath.Join(dir, fmt.Sprintf("gen-%d", gen))
}

func walPath(dir string, gen uint64) string {
	return filepath.Join(dir, fmt.Sprintf("wal-%d.log", gen))
}

func heapName(i int) string { return fmt.Sprintf("t%d.heap", i) }

// listGenerations returns the generation numbers present in dir (from
// gen-N directory entries), in directory order.
func listGenerations(fsys vfs.FS, dir string) []uint64 {
	names, err := fsys.ReadDir(dir)
	if err != nil {
		return nil
	}
	var gens []uint64
	for _, name := range names {
		if n, ok := strings.CutPrefix(name, "gen-"); ok {
			if g, err := strconv.ParseUint(n, 10, 64); err == nil {
				gens = append(gens, g)
			}
		}
	}
	return gens
}

// syncDir fsyncs a directory so renames and creations inside it are
// durable before the caller proceeds.
func syncDir(fsys vfs.FS, path string) error {
	if err := fsys.SyncDir(path); err != nil {
		return resource.NewIOError("dir fsync", err)
	}
	return nil
}

// openStore opens (creating if empty) the database directory on fsys
// and brings cat to the recovered state. The catalog must be empty. On
// return the store is attached as cat's journal.
func openStore(fsys vfs.FS, dir string, poolPages int, cat *storage.Catalog, met *obsv.Metrics) (*store, error) {
	if err := fsys.MkdirAll(dir); err != nil {
		return nil, resource.NewIOError("db dir", err)
	}
	s := &store{fs: fsys, dir: dir, cat: cat, pool: pager.NewPool(poolPages), met: met}
	s.pool.Met = met

	cur, err := fsys.ReadFile(filepath.Join(dir, currentFile))
	switch {
	case errors.Is(err, fs.ErrNotExist):
		// Corruption defense: a directory holding generation data whose
		// CURRENT pointer is missing is damaged, not fresh — initializing
		// it would silently wipe the database. minerule-fsck -salvage can
		// rebuild the pointer.
		if gens := listGenerations(fsys, dir); len(gens) > 0 {
			return nil, fmt.Errorf("engine: %s has generation data but no CURRENT pointer; run minerule-fsck -salvage", dir)
		}
		// The store is not yet shared; walMu is taken only to satisfy
		// the guarded-by contract on the fields initFresh populates.
		s.walMu.Lock()
		err := s.initFresh()
		s.walMu.Unlock()
		if err != nil {
			return nil, err
		}
	case err != nil:
		return nil, resource.NewIOError("read CURRENT", err)
	default:
		gen, perr := strconv.ParseUint(strings.TrimSpace(string(cur)), 10, 64)
		if perr != nil {
			return nil, fmt.Errorf("engine: corrupt CURRENT file in %s: %w", dir, perr)
		}
		s.gen = gen
		s.walMu.Lock()
		err := s.recover()
		s.walMu.Unlock()
		if err != nil {
			return nil, err
		}
	}
	// Every record in the log was just read back from disk (or the log
	// is empty), so the recovered tail is durable by construction.
	s.synced.Store(s.w.LastLSN())
	// Seed the journaled-ceiling map from the recovered sequences; from
	// here on SequenceBump maintains it append-atomically.
	s.seqCeil = make(map[string]int64)
	for _, name := range cat.SequenceNames() {
		if sq, ok := cat.Sequence(name); ok {
			s.seqCeil[strings.ToLower(name)] = sq.LoggedCeiling()
		}
	}
	cat.SetJournal(s)
	return s, nil
}

// initFresh lays out generation 1 of a brand-new database: an empty
// snapshot, an empty log, and a CURRENT file — in that order, so a crash
// mid-init leaves a directory open treats as still uninitialized.
func (s *store) initFresh() error {
	s.gen = 1
	if err := writeSnapshot(s.fs, genDir(s.dir, 1), &snapshot{}, nil, s.pool); err != nil {
		return err
	}
	w, err := wal.Create(s.fs, walPath(s.dir, 1), 0)
	if err != nil {
		return err
	}
	if err := w.Sync(); err != nil {
		w.Close()
		return err
	}
	s.w = w
	s.w.Met = s.met
	if err := s.swapCurrent(1); err != nil {
		s.w.Close()
		return err
	}
	return nil
}

// recover loads generation s.gen and replays its WAL. The journal is
// still detached, so replayed records mutate memory without re-logging.
func (s *store) recover() error {
	snap, err := s.loadSnapshot(genDir(s.dir, s.gen))
	if err != nil {
		return err
	}
	s.applied = snap.LastLSN
	validEnd, lastLSN, err := s.replayLog()
	if err != nil {
		return err
	}
	if lastLSN < s.applied {
		lastLSN = s.applied
	}
	w, err := wal.OpenAppend(s.fs, walPath(s.dir, s.gen), validEnd, lastLSN)
	if err != nil {
		return err
	}
	s.w = w
	s.w.Met = s.met
	return nil
}

// replayLog redoes the live generation's log over the catalog, skipping
// records at or below s.applied and advancing it — so a second call (or
// a replay over a freshly loaded snapshot that already contains a log
// prefix) changes nothing.
func (s *store) replayLog() (validEnd int64, lastLSN uint64, err error) {
	path := walPath(s.dir, s.gen)
	validEnd, lastLSN, tornTail, err := wal.Replay(s.fs, path, func(r *wal.Record) error {
		if r.LSN <= s.applied {
			return nil
		}
		if err := applyRecord(s.cat, r); err != nil {
			return err
		}
		s.applied = r.LSN
		s.met.RecoveryRecords.Inc()
		return nil
	})
	if err != nil {
		return 0, 0, fmt.Errorf("engine: recovering %s: %w", path, err)
	}
	if tornTail > 0 {
		s.met.WalTornTruncations.Inc()
		log.Printf("minerule/storage: %s: truncating %d-byte torn tail at offset %d (crash artifact; the valid prefix is the recovered state)",
			path, tornTail, validEnd)
	}
	return validEnd, lastLSN, nil
}

// loadSnapshot reads one generation into the (empty, journal-detached)
// catalog and returns its manifest.
func (s *store) loadSnapshot(dir string) (*snapshot, error) {
	b, err := s.fs.ReadFile(filepath.Join(dir, "catalog.json"))
	if err != nil {
		return nil, resource.NewIOError("read snapshot", err)
	}
	var snap snapshot
	if err := json.Unmarshal(b, &snap); err != nil {
		return nil, fmt.Errorf("engine: corrupt snapshot in %s: %w", dir, err)
	}
	for _, st := range snap.Tables {
		t, err := s.cat.CreateTable(st.Name, schema.New(st.Name, st.Cols...))
		if err != nil {
			return nil, err
		}
		f, err := pager.OpenFile(s.fs, filepath.Join(dir, st.Heap))
		if err != nil {
			return nil, err
		}
		var rows []schema.Row
		err = pager.ScanHeap(s.pool, f, func(rec []byte) error {
			row, rest, derr := schema.DecodeRowBinary(rec)
			if derr != nil {
				return derr
			}
			if len(rest) != 0 {
				return fmt.Errorf("engine: %d trailing bytes in heap row of %s", len(rest), st.Name)
			}
			rows = append(rows, row)
			return nil
		})
		s.pool.DropFile(f)
		f.Close()
		if err != nil {
			return nil, err
		}
		// Published as recovery replay publishes (see applyRecord), at a
		// stamp no lower than the log position the generation reflects.
		stamp := s.cat.Stamps().Next(snap.LastLSN)
		t.PublishAppend(stamp, rows, stamp)
		s.cat.Stamps().SetVisible(stamp)
	}
	for _, v := range snap.Views {
		if err := s.cat.CreateView(v.Name, v.Text); err != nil {
			return nil, err
		}
	}
	for _, sq := range snap.Sequences {
		seq, err := s.cat.CreateSequence(sq.Name)
		if err != nil {
			return nil, err
		}
		seq.Restore(sq.Next)
	}
	for _, ix := range snap.Indexes {
		if _, err := s.cat.CreateIndex(ix.Name, ix.Table, ix.Col); err != nil {
			return nil, err
		}
	}
	return &snap, nil
}

// applyRecord redoes one WAL record against the catalog. It is only
// called with the journal detached (recovery), so nothing re-logs. Row
// records publish through the PublishAppend/PublishReplace calls a live
// commit makes, at a stamp drawn at the record's LSN — so stamps stay
// aligned with log positions — and with the low-water mark at that same
// stamp: replay has no snapshot readers to keep history for.
func applyRecord(cat *storage.Catalog, r *wal.Record) error {
	switch r.Kind {
	case wal.KindCreateTable:
		_, err := cat.CreateTable(r.Name, schema.New(r.Name, r.Cols...))
		return err
	case wal.KindDropTable:
		return cat.DropTable(r.Name)
	case wal.KindCreateView:
		return cat.CreateView(r.Name, r.Text)
	case wal.KindDropView:
		return cat.DropView(r.Name)
	case wal.KindCreateSequence:
		_, err := cat.CreateSequence(r.Name)
		return err
	case wal.KindDropSequence:
		return cat.DropSequence(r.Name)
	case wal.KindCreateIndex:
		_, err := cat.CreateIndex(r.Name, r.Table, r.Col)
		return err
	case wal.KindDropIndex:
		return cat.DropIndex(r.Name)
	case wal.KindInsert, wal.KindTruncate, wal.KindReplace, wal.KindTxn:
		// A KindTxn frame is one committed transaction, appended (and
		// CRC-covered) as a unit: replay publishes all of it at one stamp,
		// as its commit did, or none of it.
		stamp := cat.Stamps().Next(r.LSN)
		if err := publishRows(cat, r, stamp); err != nil {
			return err
		}
		cat.Stamps().SetVisible(stamp)
		return nil
	case wal.KindSeqBump:
		sq, ok := cat.Sequence(r.Name)
		if !ok {
			return fmt.Errorf("engine: SEQ BUMP for unknown sequence %q", r.Name)
		}
		sq.Restore(r.Next)
		return nil
	case wal.KindCheckpoint:
		return nil // generation marker; state lives in the snapshot
	default:
		return fmt.Errorf("engine: unknown WAL record kind %d", r.Kind)
	}
}

// publishRows redoes one row record, or each sub-record of a KindTxn
// frame, at stamp. Nothing writes KindTruncate any more, but older logs
// carry it: it is an empty replacement.
func publishRows(cat *storage.Catalog, r *wal.Record, stamp uint64) error {
	if r.Kind == wal.KindTxn {
		for _, sub := range r.Subs {
			if err := publishRows(cat, sub, stamp); err != nil {
				return err
			}
		}
		return nil
	}
	t, ok := cat.Table(r.Name)
	if !ok {
		return fmt.Errorf("engine: %s record for unknown table %q", r.Kind, r.Name)
	}
	switch r.Kind {
	case wal.KindInsert:
		t.PublishAppend(stamp, r.Rows, stamp)
	case wal.KindTruncate:
		t.PublishReplace(stamp, nil, stamp)
	case wal.KindReplace:
		t.PublishReplace(stamp, r.Rows, stamp)
	default:
		return fmt.Errorf("engine: %s record inside a transaction frame", r.Kind)
	}
	return nil
}

// ---------------------------------------------------------------------------
// Journal implementation

// append serializes one record append under walMu (journal-first
// discipline for DDL and side-channel records; transaction commits go
// through AppendBatch).
func (s *store) append(rec *wal.Record) error {
	s.walMu.Lock()
	defer s.walMu.Unlock()
	return s.appendLocked(rec, nil)
}

// appendLocked encodes rec, invokes the caller's page-I/O charge on the
// exact frame size, and writes the frame. A budget or I/O error vetoes
// the in-memory mutation (the storage layer applies only after the
// journal accepts — journal-first discipline). Caller holds walMu.
//
// Failure classification:
//   - ENOSPC: the torn frame is truncated off and the mutation vetoed
//     with a plain I/O error — a full disk rejects writes, it does not
//     poison the store. After space is freed, writes flow again.
//   - transient EIO: the tail is repaired and the append retried with
//     bounded exponential backoff; only a persistent fault degrades.
//   - anything else (or an unrepairable tail): degraded mode — the
//     log's tail state is unknown, durability can no longer be claimed.
func (s *store) appendLocked(rec *wal.Record, charge func(pages int) error) error {
	if s.degraded != nil {
		return s.degraded
	}
	if s.sticky != nil {
		return s.sticky
	}
	rec.LSN = s.w.LastLSN() + 1
	s.scratch = rec.AppendPayload(s.scratch[:0])
	frameLen := len(s.scratch) + wal.FrameOverhead
	if charge != nil {
		if err := charge((frameLen + pager.PageSize - 1) / pager.PageSize); err != nil {
			return err
		}
	}
	backoff := appendBackoff
	for attempt := 0; ; attempt++ {
		_, err := s.w.AppendEncoded(s.scratch)
		if err == nil {
			break
		}
		switch {
		case errors.Is(err, syscall.ENOSPC):
			if rerr := s.w.Repair(); rerr != nil {
				return s.degradeLocked(rerr)
			}
			s.met.EnospcVetoes.Inc()
			return err
		case errors.Is(err, syscall.EIO) && attempt < appendRetries:
			if rerr := s.w.Repair(); rerr != nil {
				return s.degradeLocked(rerr)
			}
			s.met.IORetries.Inc()
			time.Sleep(backoff)
			backoff *= 2
		default:
			return s.degradeLocked(err)
		}
	}
	s.applied = rec.LSN // the caller applies in memory upon acceptance
	return nil
}

// degradeLocked flips the store into sticky read-only degraded mode (if
// it is not there already) and returns the typed error every subsequent
// mutation, checkpoint, and close will see. Caller holds walMu.
func (s *store) degradeLocked(cause error) error {
	if s.degraded == nil {
		s.degraded = &resource.DegradedError{Cause: cause}
		s.met.StorageDegraded.Inc()
		log.Printf("minerule/storage: %s: entering degraded (read-only) mode: %v", s.dir, cause)
	}
	return s.degraded
}

// degradedErr reports the sticky degraded error, nil while healthy.
func (s *store) degradedErr() error {
	s.walMu.Lock()
	defer s.walMu.Unlock()
	return s.degraded
}

// ---------------------------------------------------------------------------
// txn.CommitJournal implementation

// AppendBatch logs one transaction's write set as a single atomic
// frame: one record appends as itself, several wrap in a KindTxn
// record sharing one LSN and one CRC. charge is invoked with the
// frame's page count before any byte reaches the log, so a page-I/O
// budget vetoes the commit with the log untouched.
//
// The committing transaction holds the catalog publish lock across
// AppendBatch and its publish, which is what lets a checkpoint (also
// under the publish lock) equate "appended" with "applied in memory".
func (s *store) AppendBatch(recs []*wal.Record, charge func(pages int) error) (uint64, error) {
	rec := recs[0]
	if len(recs) > 1 {
		rec = &wal.Record{Kind: wal.KindTxn, Subs: recs}
	}
	s.walMu.Lock()
	defer s.walMu.Unlock()
	if err := s.appendLocked(rec, charge); err != nil {
		return 0, err
	}
	return rec.LSN, nil
}

// LastLSN reports the newest appended LSN (durable or not); commits
// whose writes all went through side channels (DDL, sequence bumps)
// sync to it.
func (s *store) LastLSN() uint64 {
	s.walMu.Lock()
	defer s.walMu.Unlock()
	return s.w.LastLSN()
}

// SyncTo blocks until every record up to lsn is durable. Concurrent
// committers share fsyncs: the first caller through syncMu becomes the
// leader and fsyncs the log as it stands — covering every record
// appended so far, its own and everyone else's — then publishes the
// new durable watermark; callers whose lsn the watermark already
// covers return without touching the file at all. The leader also
// rolls the log into a new checkpoint generation once it outgrows the
// auto-checkpoint threshold.
func (s *store) SyncTo(lsn uint64) error {
	if s.synced.Load() >= lsn {
		return nil
	}
	s.syncMu.Lock()
	defer s.syncMu.Unlock()
	if s.synced.Load() >= lsn {
		return nil
	}
	s.walMu.Lock()
	if s.degraded != nil {
		err := s.degraded
		s.walMu.Unlock()
		return err
	}
	if s.sticky != nil {
		err := s.sticky
		s.walMu.Unlock()
		return err
	}
	target := s.w.LastLSN()
	err := s.w.Sync()
	if err != nil {
		// fsyncgate: the kernel may have dropped the dirty pages while
		// reporting the failure, so retrying the fsync could "succeed"
		// without the data ever reaching disk. Durability is gone for
		// good — poison the store rather than lie.
		err = s.degradeLocked(err)
		s.walMu.Unlock()
		return err
	}
	size, serr := s.w.Size()
	s.walMu.Unlock()
	s.synced.Store(target)
	s.met.GroupFsyncs.Inc()
	if serr == nil && size > autoCheckpointBytes {
		if cerr := s.checkpointLocked(); cerr != nil {
			if derr := s.degradedErr(); derr != nil {
				return derr
			}
			// The commit itself is durable (the fsync above succeeded); a
			// failed auto-checkpoint just leaves the log long. Report it
			// and retry at a later commit.
			s.met.CheckpointFailures.Inc()
			log.Printf("minerule/storage: %s: auto-checkpoint failed (will retry): %v", s.dir, cerr)
		}
	}
	return nil
}

func (s *store) CreateTable(name string, sc *schema.Schema) error {
	return s.append(&wal.Record{Kind: wal.KindCreateTable, Name: name, Cols: sc.Columns()})
}

func (s *store) DropTable(name string) error {
	return s.append(&wal.Record{Kind: wal.KindDropTable, Name: name})
}

func (s *store) CreateView(name, text string) error {
	return s.append(&wal.Record{Kind: wal.KindCreateView, Name: name, Text: text})
}

func (s *store) DropView(name string) error {
	return s.append(&wal.Record{Kind: wal.KindDropView, Name: name})
}

func (s *store) CreateSequence(name string) error {
	s.walMu.Lock()
	defer s.walMu.Unlock()
	if err := s.appendLocked(&wal.Record{Kind: wal.KindCreateSequence, Name: name}, nil); err != nil {
		return err
	}
	s.seqCeil[strings.ToLower(name)] = 1
	return nil
}

func (s *store) DropSequence(name string) error {
	s.walMu.Lock()
	defer s.walMu.Unlock()
	if err := s.appendLocked(&wal.Record{Kind: wal.KindDropSequence, Name: name}, nil); err != nil {
		return err
	}
	delete(s.seqCeil, strings.ToLower(name))
	return nil
}

func (s *store) CreateIndex(name, table string, col int) error {
	return s.append(&wal.Record{Kind: wal.KindCreateIndex, Name: name, Table: table, Col: col})
}

func (s *store) DropIndex(name string) error {
	return s.append(&wal.Record{Kind: wal.KindDropIndex, Name: name})
}

func (s *store) SequenceBump(name string, next int64) error {
	s.walMu.Lock()
	defer s.walMu.Unlock()
	err := s.appendLocked(&wal.Record{Kind: wal.KindSeqBump, Name: name, Next: next}, nil)
	if err != nil {
		if s.sticky == nil {
			// NEXTVAL cannot surface this error; remember it so the
			// statement's commit fails instead of silently losing
			// durability.
			s.sticky = err
		}
		return err
	}
	// Recorded in the same critical section as the append: a checkpoint
	// that captures a manifest LSN covering this bump is guaranteed to
	// read a ceiling covering it too.
	if k := strings.ToLower(name); next > s.seqCeil[k] {
		s.seqCeil[k] = next
	}
	return nil
}

// ---------------------------------------------------------------------------
// Checkpointing

// checkpoint writes generation gen+1 (snapshot of the live catalog plus
// a fresh empty log) and atomically swaps CURRENT to it. A crash at any
// step leaves the old generation live and complete; a failure before
// the swap discards the partial generation so nothing is left behind.
func (s *store) checkpoint() error {
	s.syncMu.Lock()
	defer s.syncMu.Unlock()
	return s.checkpointLocked()
}

// checkpointLocked is checkpoint with syncMu already held (the
// group-commit leader auto-checkpoints without re-entering it).
//
// Consistency under concurrency: the catalog publish lock is held for
// the duration, so no transaction can append-and-publish and no DDL
// can run — the live catalog is frozen at a commit boundary and heap
// files are written from it without further locking. The only appends
// that can still race are sequence bumps, which never touch tables;
// the manifest LSN and the sequence ceilings are both captured under
// walMu after the heaps are written, and SequenceBump updates its
// ceiling in the same walMu section as its append, so every bump at or
// below the manifest LSN is covered by a manifest ceiling. walMu stays
// held from the LSN capture through the writer swap, so no record can
// land in the old log (which is about to be deleted) above the
// manifest LSN.
func (s *store) checkpointLocked() error {
	s.cat.LockPublish()
	defer s.cat.UnlockPublish()
	s.walMu.Lock()
	if err := s.degraded; err != nil {
		s.walMu.Unlock()
		return err
	}
	if err := s.sticky; err != nil {
		s.walMu.Unlock()
		return err
	}
	newGen := s.gen + 1
	s.walMu.Unlock()

	snap := s.buildManifest()
	dir := genDir(s.dir, newGen)
	if err := writeHeaps(s.fs, dir, snap, s.cat, s.pool); err != nil {
		s.discardGeneration(newGen)
		return err
	}

	s.walMu.Lock()
	snap.LastLSN = s.w.LastLSN()
	for _, name := range s.cat.SequenceNames() {
		ceil := s.seqCeil[strings.ToLower(name)]
		if ceil < 1 {
			ceil = 1
		}
		snap.Sequences = append(snap.Sequences, snapSequence{Name: name, Next: ceil})
	}
	if err := s.w.Sync(); err != nil {
		err = s.degradeLocked(err)
		s.walMu.Unlock()
		s.discardGeneration(newGen)
		return err
	}
	if err := writeManifest(s.fs, dir, snap); err != nil {
		s.walMu.Unlock()
		s.discardGeneration(newGen)
		return err
	}
	w, err := wal.Create(s.fs, walPath(s.dir, newGen), snap.LastLSN)
	if err != nil {
		s.walMu.Unlock()
		s.discardGeneration(newGen)
		return err
	}
	w.Met = s.met
	if _, err := w.Append(&wal.Record{Kind: wal.KindCheckpoint, Next: int64(newGen)}); err != nil {
		w.Abort()
		s.walMu.Unlock()
		s.discardGeneration(newGen)
		return err
	}
	if err := w.Sync(); err != nil {
		w.Abort()
		s.walMu.Unlock()
		s.discardGeneration(newGen)
		return err
	}
	if err := s.swapCurrent(newGen); err != nil {
		w.Abort()
		s.walMu.Unlock()
		s.discardGeneration(newGen)
		return err
	}
	// The swap is durable: retire the old generation. Failures past this
	// point only leak space, never consistency.
	oldGen, oldW := s.gen, s.w
	s.gen, s.w = newGen, w
	durable := w.LastLSN() // everything in the new log is fsynced above
	s.walMu.Unlock()
	s.synced.Store(durable)
	oldW.Close()
	s.fs.Remove(walPath(s.dir, oldGen))
	s.fs.RemoveAll(genDir(s.dir, oldGen))
	s.met.Checkpoints.Inc()
	return nil
}

// discardGeneration removes the partial artifacts of a failed
// checkpoint. The old generation and its log are still live, so a
// failure here (disk still broken) costs space, not consistency.
func (s *store) discardGeneration(gen uint64) {
	s.fs.Remove(walPath(s.dir, gen))
	s.fs.RemoveAll(genDir(s.dir, gen))
}

// buildManifest snapshots the live catalog's structure — tables, views
// and indexes. The manifest LSN and the sequence ceilings are filled in
// later, under walMu (see checkpointLocked): sequences record their
// journaled ceiling, because restoring the live value could re-issue
// NEXTVALs already handed out before the crash.
func (s *store) buildManifest() *snapshot {
	snap := &snapshot{}
	for i, name := range s.cat.TableNames() {
		t, ok := s.cat.Table(name)
		if !ok {
			continue
		}
		snap.Tables = append(snap.Tables, snapTable{
			Name: t.Name(),
			Cols: t.Schema().Columns(),
			Heap: heapName(i),
		})
		for _, ix := range t.Indexes() {
			snap.Indexes = append(snap.Indexes, snapIndex{Name: ix.Name(), Table: t.Name(), Col: ix.Column()})
		}
	}
	for _, name := range s.cat.ViewNames() {
		if v, ok := s.cat.View(name); ok {
			snap.Views = append(snap.Views, snapView{Name: v.Name, Text: v.Text})
		}
	}
	return snap
}

// writeSnapshot materializes one generation directory in a single call
// (heaps, then manifest): initFresh's empty generation and any caller
// that does not need the checkpoint's two-phase locking.
func writeSnapshot(fsys vfs.FS, dir string, snap *snapshot, cat *storage.Catalog, pool *pager.Pool) error {
	if err := writeHeaps(fsys, dir, snap, cat, pool); err != nil {
		return err
	}
	return writeManifest(fsys, dir, snap)
}

// writeHeaps creates the generation directory and writes one fsynced
// heap file per manifest table (cat may be nil only when the manifest
// lists no tables). Nothing references the generation until the caller
// writes the manifest and swaps CURRENT.
func writeHeaps(fsys vfs.FS, dir string, snap *snapshot, cat *storage.Catalog, pool *pager.Pool) error {
	if err := fsys.MkdirAll(dir); err != nil {
		return resource.NewIOError("snapshot dir", err)
	}
	var enc []byte
	for _, st := range snap.Tables {
		t, ok := cat.Table(st.Name)
		if !ok {
			return fmt.Errorf("engine: snapshot table %q vanished", st.Name)
		}
		f, err := pager.OpenFile(fsys, filepath.Join(dir, st.Heap))
		if err != nil {
			return err
		}
		hw := pager.NewHeapWriter(pool, f)
		for _, row := range t.Snapshot() {
			enc = row.AppendBinary(enc[:0])
			if err := hw.Append(enc); err != nil {
				pool.DropFile(f)
				f.Close()
				return err
			}
		}
		err = hw.Flush()
		if err == nil {
			err = f.Sync()
		}
		pool.DropFile(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// writeManifest writes and fsyncs catalog.json, then fsyncs the
// generation directory, completing the snapshot.
func writeManifest(fsys vfs.FS, dir string, snap *snapshot) error {
	b, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		return fmt.Errorf("engine: encode snapshot: %w", err)
	}
	path := filepath.Join(dir, "catalog.json")
	f, err := fsys.Create(path)
	if err != nil {
		return resource.NewIOError("snapshot write", err)
	}
	if _, err := f.Write(b); err != nil {
		f.Close()
		return resource.NewIOError("snapshot write", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return resource.NewIOError("snapshot fsync", err)
	}
	if err := f.Close(); err != nil {
		return resource.NewIOError("snapshot close", err)
	}
	return syncDir(fsys, dir)
}

// swapCurrent atomically points CURRENT at gen (write tmp, fsync,
// rename, fsync dir — the standard crash-safe pointer swap).
func (s *store) swapCurrent(gen uint64) error {
	tmp := filepath.Join(s.dir, currentFile+".tmp")
	f, err := s.fs.Create(tmp)
	if err != nil {
		return resource.NewIOError("CURRENT write", err)
	}
	_, err = f.Write([]byte(strconv.FormatUint(gen, 10) + "\n"))
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return resource.NewIOError("CURRENT write", err)
	}
	if err := s.fs.Rename(tmp, filepath.Join(s.dir, currentFile)); err != nil {
		s.fs.Remove(tmp) // best effort; fsck removes a survivor
		return resource.NewIOError("CURRENT swap", err)
	}
	return syncDir(s.fs, s.dir)
}

// close releases the WAL and heap files. The database directory stays
// openable; close does not checkpoint (recovery replays the log).
// Close is idempotent: a second call returns the first call's result.
// On a degraded or poisoned store it returns the typed sticky error and
// skips the final fsync — the guarantee it would buy is already gone.
func (s *store) close() error {
	s.syncMu.Lock() // wait out any in-flight group fsync or checkpoint
	defer s.syncMu.Unlock()
	s.walMu.Lock()
	defer s.walMu.Unlock()
	if s.closed {
		return s.closeErr
	}
	s.closed = true
	if s.w == nil {
		return nil
	}
	w := s.w
	s.w = nil
	switch {
	case s.degraded != nil:
		w.Abort()
		s.closeErr = s.degraded
	case s.sticky != nil:
		w.Abort()
		s.closeErr = s.sticky
	default:
		s.closeErr = w.Close()
	}
	return s.closeErr
}
