package main

// The metric names, units and regression bounds of record. BENCHMARK.json
// at the repository root lists the same; contract_test.go holds the two
// together.

type metricDef struct {
	name, unit string
	better     string  // "lower" or "higher"
	bound      float64 // end-to-end only: share of the parent's median it may worsen by
}

// endToEnd is what a user of the server sees. failed_share is the twelfth
// end-to-end number; the result line carries it as failed/attempted, which
// is where the driver reads it, because a metric that is 0 at the seed
// cannot have a relative bound.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"mine_p50_ms", "ms", "lower", 0.25},
	{"mine_p95_ms", "ms", "lower", 0.25},
	{"mine_per_s", "1/s", "higher", 0.25},
	{"write_p50_ms", "ms", "lower", 0.25},
	{"write_p95_ms", "ms", "lower", 0.25},
	{"read_p50_ms", "ms", "lower", 0.25},
	{"read_p95_ms", "ms", "lower", 0.25},
	{"scan_p50_ms", "ms", "lower", 0.25},
	{"reads_per_s", "1/s", "higher", 0.25},
	{"server_peak_rss_mb", "MiB", "lower", 0.25},
}

// perLayer is one ladder rung per module a remote statement crosses.
// Source C is a count and B a busy-time counter, both from the server's
// /metrics delta over the timed section divided by ops; T is a benchmark
// span around an exported function in the traced, in-process run.
var perLayer = []metricDef{
	{"driver.roundtrip_us", "us", "lower", 0},                   // T
	{"wire.encode_ns_per_row", "ns", "lower", 0},                // T
	{"wire.decode_ns_per_row", "ns", "lower", 0},                // T
	{"wire.bytes_out_per_op", "B", "lower", 0},                  // C
	{"wire.bytes_in_per_op", "B", "lower", 0},                   // C
	{"server.overhead_us", "us", "lower", 0},                    // T
	{"server.requests_per_op", "count", "lower", 0},             // C
	{"engine.stmts_per_op", "count", "lower", 0},                // C
	{"engine.stmt_error_share", "fraction", "lower", 0},         // C
	{"engine.stmtcache_hit_share", "fraction", "higher", 0},     // C
	{"engine.exec_busy_ms_per_op", "ms", "lower", 0},            // B
	{"engine.prepare_busy_us_per_op", "us", "lower", 0},         // B
	{"engine.recovery_ms", "ms", "lower", 0},                    // T (restart after SIGKILL, durable_mixed)
	{"parse.sql_us_per_stmt", "us", "lower", 0},                 // T
	{"parse.minerule_us", "us", "lower", 0},                     // T
	{"semck.check_us_per_stmt", "us", "lower", 0},               // T
	{"translator.busy_ms_per_op", "ms", "lower", 0},             // B
	{"translator.translate_us", "us", "lower", 0},               // T
	{"preproc.busy_ms_per_op", "ms", "lower", 0},                // B
	{"exec.rows_scanned_per_op", "count", "lower", 0},           // C
	{"exec.rows_scanned_per_row_returned", "count", "lower", 0}, // C
	{"exec.batches_per_op", "count", "lower", 0},                // C
	{"exec.index_path_share", "fraction", "higher", 0},          // C
	{"exec.scan_ns_per_row", "ns", "lower", 0},                  // T
	{"mining.busy_ms_per_op", "ms", "lower", 0},                 // B
	{"mining.candidates_per_op", "count", "lower", 0},           // C
	{"mining.rules_per_op", "count", "higher", 0},               // C
	{"mining.itemsets_ms", "ms", "lower", 0},                    // T
	{"postproc.busy_ms_per_op", "ms", "lower", 0},               // B
	{"txn.commits_per_op", "count", "lower", 0},                 // C
	{"txn.rollbacks_per_op", "count", "lower", 0},               // C
	{"txn.lock_waits_per_op", "count", "lower", 0},              // C
	{"txn.begin_commit_us", "us", "lower", 0},                   // T
	{"wal.bytes_per_op", "B", "lower", 0},                       // C
	{"wal.fsyncs_per_op", "count", "lower", 0},                  // C
	{"wal.appends_per_op", "count", "lower", 0},                 // C
	{"wal.group_commit_batch", "count", "higher", 0},            // C
	{"wal.bytes_per_user_byte", "B/B", "lower", 0},              // C
	{"wal.append_us", "us", "lower", 0},                         // T
	{"wal.sync_us", "us", "lower", 0},                           // T
	{"pager.hit_share", "fraction", "higher", 0},                // C
	{"pager.page_writes_per_op", "count", "lower", 0},           // C
	{"pager.evictions_per_op", "count", "lower", 0},             // C
	{"pager.checkpoints", "count", "lower", 0},                  // C
	{"pager.get_hit_ns", "ns", "lower", 0},                      // T
	{"loadgen.max_lateness_ms", "ms", "lower", 0},               // harness
	{"trace.overhead_share", "fraction", "lower", 0},            // harness
}

// counterMetrics derives the C and B rungs from a /metrics delta over a
// section that ran ops operations and inserted userBytes of row text.
func counterMetrics(d promSample, ops, userBytes int) map[string]float64 {
	n := float64(ops)
	return map[string]float64{
		"wire.bytes_out_per_op":              ratio(d.c("server_bytes_written"), n),
		"wire.bytes_in_per_op":               ratio(d.c("server_bytes_read"), n),
		"server.requests_per_op":             ratio(d.c("server_requests"), n),
		"engine.stmts_per_op":                ratio(d.c("stmt_executed"), n),
		"engine.stmt_error_share":            ratio(d.c("stmt_errors"), d.c("stmt_executed")),
		"engine.stmtcache_hit_share":         ratio(d.c("stmtcache_hits"), d.c("stmtcache_hits")+d.c("stmtcache_misses")),
		"engine.exec_busy_ms_per_op":         ratio(d.c("stmt_exec_nanoseconds")/1e6, n),
		"engine.prepare_busy_us_per_op":      ratio(d.c("stmt_parse_nanoseconds")/1e3, n),
		"translator.busy_ms_per_op":          ratio(d.c("phase_translate_nanoseconds")/1e6, n),
		"preproc.busy_ms_per_op":             ratio(d.c("phase_preprocess_nanoseconds")/1e6, n),
		"mining.busy_ms_per_op":              ratio(d.c("phase_core_nanoseconds")/1e6, n),
		"postproc.busy_ms_per_op":            ratio(d.c("phase_postprocess_nanoseconds")/1e6, n),
		"exec.rows_scanned_per_op":           ratio(d.c("rows_scanned"), n),
		"exec.rows_scanned_per_row_returned": ratio(d.c("rows_scanned"), d.c("rows_returned")),
		"exec.batches_per_op":                ratio(d.c("exec_batches"), n),
		"exec.index_path_share":              ratio(d.c("planner_index_paths"), d.c("stmt_executed")),
		"mining.candidates_per_op":           ratio(d.c("mine_candidates"), n),
		"mining.rules_per_op":                ratio(d.c("mine_rules"), n),
		"txn.commits_per_op":                 ratio(d.c("txn_committed"), n),
		"txn.rollbacks_per_op":               ratio(d.c("txn_rolled_back"), n),
		"txn.lock_waits_per_op":              ratio(d.c("lock_waits"), n),
		"wal.bytes_per_op":                   ratio(d.c("wal_bytes"), n),
		"wal.fsyncs_per_op":                  ratio(d.c("wal_fsyncs"), n),
		"wal.appends_per_op":                 ratio(d.c("wal_appends"), n),
		"wal.group_commit_batch":             ratio(d.c("group_commit_commits"), d.c("group_commit_fsyncs")),
		"wal.bytes_per_user_byte":            ratio(d.c("wal_bytes"), float64(userBytes)),
		"pager.hit_share":                    ratio(d.c("pool_hits"), d.c("pool_hits")+d.c("pool_misses")),
		"pager.page_writes_per_op":           ratio(d.c("page_writes"), n),
		"pager.evictions_per_op":             ratio(d.c("pool_evictions"), n),
		"pager.checkpoints":                  d.c("checkpoints"),
	}
}
