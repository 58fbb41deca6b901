package obsv

import (
	"fmt"
	"io"
	"sync/atomic"
)

// Counter is a monotonically increasing atomic counter. The zero value
// is ready to use; Add never allocates, so counting stays on even when
// tracing is off.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n.
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Load returns the current value.
func (c *Counter) Load() int64 { return c.v.Load() }

// Metrics is the engine- and kernel-wide counter registry. One instance
// lives on each engine.Database; the cmd binaries export it at /metrics.
// Every field is safe for concurrent use.
type Metrics struct {
	// Statement-level engine stats.
	StmtExecuted Counter // statements executed (any kind)
	StmtErrors   Counter // statements that failed
	ParseNanos   Counter // wall time spent in prepare (parse or cache hit)
	ExecNanos    Counter // wall time spent executing prepared statements

	// Prepared-program (statement) cache.
	StmtCacheHits      Counter
	StmtCacheMisses    Counter
	StmtCacheEvictions Counter

	// Prepare-time semantic checks: full checker runs, and cached
	// verdicts revalidated by replaying their dictionary reads.
	SemckChecks       Counter
	SemckVerdictReuse Counter

	// Executor view-plan cache (catalog-version keyed).
	ViewPlanHits   Counter
	ViewPlanMisses Counter

	// Row flow through the executor.
	RowsScanned  Counter // rows materialized out of base-table scans
	RowsReturned Counter // rows in query results handed back to callers

	// Batched execution and cost-based planning.
	ExecBatches       Counter // row batches produced by batched operators
	ExecBatchRows     Counter // rows carried in those batches (avg = rows/batches)
	StatsRefreshes    Counter // table-statistics recomputations
	PlannerIndexPaths Counter // times the planner chose an index path over a scan

	// Mining kernel.
	MineRuns       Counter // MINE RULE evaluations started
	MineErrors     Counter // evaluations that failed
	MineRules      Counter // rules produced across all runs
	MineCandidates Counter // candidates charged against mining budgets

	// Per-phase kernel wall time (Figure 3.a made countable).
	TranslateNanos Counter
	PreprocNanos   Counter
	CoreNanos      Counter
	PostprocNanos  Counter

	// Durable storage subsystem (zero and inert on in-memory databases).
	WalAppends      Counter // WAL records appended
	WalBytes        Counter // WAL bytes appended (frame + payload)
	WalFsyncs       Counter // WAL fsync calls (group commits)
	PageReads       Counter // heap pages read from disk into the pool
	PageWrites      Counter // heap pages written from the pool to disk
	PoolHits        Counter // buffer-pool frame hits
	PoolMisses      Counter // buffer-pool frame misses
	PoolEvictions   Counter // buffer-pool frames evicted (clock sweep)
	Checkpoints     Counter // checkpoints taken
	RecoveryRecords Counter // WAL records replayed during recovery

	// Storage fault handling and corruption defense.
	WalTornTruncations Counter // torn WAL tails truncated at recovery
	PageCRCErrors      Counter // heap pages failing their CRC at read
	StorageDegraded    Counter // times the store entered degraded mode
	IORetries          Counter // transient I/O faults retried
	EnospcVetoes       Counter // mutations vetoed cleanly by ENOSPC
	CheckpointFailures Counter // checkpoints that failed and were discarded

	// Transaction subsystem (internal/sql/txn). Active transactions =
	// begun - committed - rolled back, exported as a gauge like
	// sessions_active. GroupCommitBatch counts commits that rode a group
	// fsync; batch size = commits / fsyncs.
	TxnBegun      Counter // transactions begun (explicit and autocommit)
	TxnCommitted  Counter // transactions committed
	TxnRolledBack Counter // transactions rolled back
	LockWaits     Counter // lock requests that had to wait
	LockTimeouts  Counter // lock waits abandoned (timeout or cancel)
	GroupFsyncs   Counter // group-commit fsyncs performed by a leader
	GroupCommits  Counter // durable commits acknowledged via group commit

	// Network service (internal/server): connection and session flow.
	// Active sessions = opened - closed; both only ever increase, so the
	// difference is exported as a gauge without a decrementing counter.
	SrvConnsOpened   Counter // connections accepted and admitted
	SrvConnsClosed   Counter // admitted connections that have ended
	SrvConnsRejected Counter // connections refused by admission control
	SrvAuthFailures  Counter // startups refused for a bad credential
	SrvRequests      Counter // wire requests processed (any message kind)
	SrvRequestErrors Counter // requests answered with a wire Error frame
	SrvCanceled      Counter // statements aborted by client disconnect or cancel
	SrvBytesRead     Counter // wire bytes read from clients
	SrvBytesWritten  Counter // wire bytes written to clients
}

// metricDesc maps registry fields to their exposition names, in a fixed
// order so /metrics output is stable.
type metricDesc struct {
	name string
	help string
	get  func(*Metrics) int64
}

// gaugeMetrics names the descriptors exposed with TYPE gauge instead of
// counter (point-in-time values that can go down).
var gaugeMetrics = map[string]bool{
	"minerule_server_sessions_active":  true,
	"minerule_txn_active":              true,
	"minerule_group_commit_batch_size": true,
}

var metricDescs = []metricDesc{
	{"minerule_stmt_executed_total", "SQL statements executed", func(m *Metrics) int64 { return m.StmtExecuted.Load() }},
	{"minerule_stmt_errors_total", "SQL statements that failed", func(m *Metrics) int64 { return m.StmtErrors.Load() }},
	{"minerule_stmt_parse_nanoseconds_total", "wall time preparing statements (parse or cache hit)", func(m *Metrics) int64 { return m.ParseNanos.Load() }},
	{"minerule_stmt_exec_nanoseconds_total", "wall time executing prepared statements", func(m *Metrics) int64 { return m.ExecNanos.Load() }},
	{"minerule_stmtcache_hits_total", "prepared-program cache hits", func(m *Metrics) int64 { return m.StmtCacheHits.Load() }},
	{"minerule_stmtcache_misses_total", "prepared-program cache misses", func(m *Metrics) int64 { return m.StmtCacheMisses.Load() }},
	{"minerule_stmtcache_evictions_total", "prepared-program cache entries evicted (clock second-chance)", func(m *Metrics) int64 { return m.StmtCacheEvictions.Load() }},
	{"minerule_semck_checks_total", "full prepare-time semantic checks run", func(m *Metrics) int64 { return m.SemckChecks.Load() }},
	{"minerule_semck_verdict_reuse_total", "cached semantic verdicts revalidated by replaying their dictionary reads", func(m *Metrics) int64 { return m.SemckVerdictReuse.Load() }},
	{"minerule_viewplan_hits_total", "executor view-plan cache hits", func(m *Metrics) int64 { return m.ViewPlanHits.Load() }},
	{"minerule_viewplan_misses_total", "executor view-plan cache misses", func(m *Metrics) int64 { return m.ViewPlanMisses.Load() }},
	{"minerule_rows_scanned_total", "rows materialized from base-table scans", func(m *Metrics) int64 { return m.RowsScanned.Load() }},
	{"minerule_rows_returned_total", "rows returned to engine callers", func(m *Metrics) int64 { return m.RowsReturned.Load() }},
	{"minerule_exec_batches_total", "row batches produced by batched operators", func(m *Metrics) int64 { return m.ExecBatches.Load() }},
	{"minerule_exec_batch_rows_total", "rows carried in batched-operator batches", func(m *Metrics) int64 { return m.ExecBatchRows.Load() }},
	{"minerule_stats_refreshes_total", "table-statistics recomputations", func(m *Metrics) int64 { return m.StatsRefreshes.Load() }},
	{"minerule_planner_index_paths_total", "planner index-path selections over scans", func(m *Metrics) int64 { return m.PlannerIndexPaths.Load() }},
	{"minerule_mine_runs_total", "MINE RULE evaluations started", func(m *Metrics) int64 { return m.MineRuns.Load() }},
	{"minerule_mine_errors_total", "MINE RULE evaluations that failed", func(m *Metrics) int64 { return m.MineErrors.Load() }},
	{"minerule_mine_rules_total", "association rules produced", func(m *Metrics) int64 { return m.MineRules.Load() }},
	{"minerule_mine_candidates_total", "mining candidates charged against budgets", func(m *Metrics) int64 { return m.MineCandidates.Load() }},
	{"minerule_phase_translate_nanoseconds_total", "kernel translator phase wall time", func(m *Metrics) int64 { return m.TranslateNanos.Load() }},
	{"minerule_phase_preprocess_nanoseconds_total", "kernel preprocessor phase wall time", func(m *Metrics) int64 { return m.PreprocNanos.Load() }},
	{"minerule_phase_core_nanoseconds_total", "kernel core operator phase wall time", func(m *Metrics) int64 { return m.CoreNanos.Load() }},
	{"minerule_phase_postprocess_nanoseconds_total", "kernel postprocessor phase wall time", func(m *Metrics) int64 { return m.PostprocNanos.Load() }},
	{"minerule_wal_appends_total", "WAL records appended", func(m *Metrics) int64 { return m.WalAppends.Load() }},
	{"minerule_wal_bytes_total", "WAL bytes appended", func(m *Metrics) int64 { return m.WalBytes.Load() }},
	{"minerule_wal_fsyncs_total", "WAL fsyncs (group commits)", func(m *Metrics) int64 { return m.WalFsyncs.Load() }},
	{"minerule_page_reads_total", "heap pages read from disk", func(m *Metrics) int64 { return m.PageReads.Load() }},
	{"minerule_page_writes_total", "heap pages written to disk", func(m *Metrics) int64 { return m.PageWrites.Load() }},
	{"minerule_pool_hits_total", "buffer-pool frame hits", func(m *Metrics) int64 { return m.PoolHits.Load() }},
	{"minerule_pool_misses_total", "buffer-pool frame misses", func(m *Metrics) int64 { return m.PoolMisses.Load() }},
	{"minerule_pool_evictions_total", "buffer-pool frames evicted", func(m *Metrics) int64 { return m.PoolEvictions.Load() }},
	{"minerule_checkpoints_total", "storage checkpoints taken", func(m *Metrics) int64 { return m.Checkpoints.Load() }},
	{"minerule_recovery_records_total", "WAL records replayed during recovery", func(m *Metrics) int64 { return m.RecoveryRecords.Load() }},
	{"minerule_wal_torn_tail_truncations_total", "torn WAL tails truncated at recovery", func(m *Metrics) int64 { return m.WalTornTruncations.Load() }},
	{"minerule_page_crc_errors_total", "heap pages failing their CRC-32C at read", func(m *Metrics) int64 { return m.PageCRCErrors.Load() }},
	{"minerule_storage_degraded_total", "times the store entered degraded (read-only) mode", func(m *Metrics) int64 { return m.StorageDegraded.Load() }},
	{"minerule_storage_io_retries_total", "transient storage I/O faults retried", func(m *Metrics) int64 { return m.IORetries.Load() }},
	{"minerule_storage_enospc_vetoes_total", "mutations vetoed cleanly on ENOSPC", func(m *Metrics) int64 { return m.EnospcVetoes.Load() }},
	{"minerule_storage_checkpoint_failures_total", "checkpoints that failed and were discarded", func(m *Metrics) int64 { return m.CheckpointFailures.Load() }},
	{"minerule_txn_begun_total", "transactions begun (explicit and autocommit)", func(m *Metrics) int64 { return m.TxnBegun.Load() }},
	{"minerule_txn_committed_total", "transactions committed", func(m *Metrics) int64 { return m.TxnCommitted.Load() }},
	{"minerule_txn_rolled_back_total", "transactions rolled back", func(m *Metrics) int64 { return m.TxnRolledBack.Load() }},
	{"minerule_txn_active", "transactions currently open", func(m *Metrics) int64 {
		return m.TxnBegun.Load() - m.TxnCommitted.Load() - m.TxnRolledBack.Load()
	}},
	{"minerule_lock_waits_total", "lock requests that had to wait for a holder", func(m *Metrics) int64 { return m.LockWaits.Load() }},
	{"minerule_lock_wait_timeouts_total", "lock waits abandoned on timeout or cancellation", func(m *Metrics) int64 { return m.LockTimeouts.Load() }},
	{"minerule_group_commit_fsyncs_total", "group-commit fsyncs performed by a leader", func(m *Metrics) int64 { return m.GroupFsyncs.Load() }},
	{"minerule_group_commit_commits_total", "durable commits acknowledged via group commit", func(m *Metrics) int64 { return m.GroupCommits.Load() }},
	{"minerule_group_commit_batch_size", "average commits amortized per group-commit fsync", func(m *Metrics) int64 {
		f := m.GroupFsyncs.Load()
		if f == 0 {
			return 0
		}
		return m.GroupCommits.Load() / f
	}},
	{"minerule_server_connections_opened_total", "wire connections accepted and admitted", func(m *Metrics) int64 { return m.SrvConnsOpened.Load() }},
	{"minerule_server_connections_closed_total", "admitted wire connections ended", func(m *Metrics) int64 { return m.SrvConnsClosed.Load() }},
	{"minerule_server_connections_rejected_total", "connections refused by admission control", func(m *Metrics) int64 { return m.SrvConnsRejected.Load() }},
	{"minerule_server_auth_failures_total", "startups refused for a bad credential", func(m *Metrics) int64 { return m.SrvAuthFailures.Load() }},
	{"minerule_server_sessions_active", "wire sessions currently open", func(m *Metrics) int64 { return m.SrvConnsOpened.Load() - m.SrvConnsClosed.Load() }},
	{"minerule_server_requests_total", "wire requests processed", func(m *Metrics) int64 { return m.SrvRequests.Load() }},
	{"minerule_server_request_errors_total", "wire requests answered with an error frame", func(m *Metrics) int64 { return m.SrvRequestErrors.Load() }},
	{"minerule_server_canceled_total", "statements aborted by client disconnect or cancellation", func(m *Metrics) int64 { return m.SrvCanceled.Load() }},
	{"minerule_server_bytes_read_total", "wire bytes read from clients", func(m *Metrics) int64 { return m.SrvBytesRead.Load() }},
	{"minerule_server_bytes_written_total", "wire bytes written to clients", func(m *Metrics) int64 { return m.SrvBytesWritten.Load() }},
}

// WritePrometheus renders every counter in Prometheus text exposition
// format (all counters, fixed order).
func (m *Metrics) WritePrometheus(w io.Writer) error {
	for _, d := range metricDescs {
		typ := "counter"
		if gaugeMetrics[d.name] {
			typ = "gauge"
		}
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n%s %d\n",
			d.name, d.help, d.name, typ, d.name, d.get(m)); err != nil {
			return err
		}
	}
	return nil
}

// Snapshot returns every counter keyed by its exposition name.
func (m *Metrics) Snapshot() map[string]int64 {
	out := make(map[string]int64, len(metricDescs))
	for _, d := range metricDescs {
		out[d.name] = d.get(m)
	}
	return out
}
