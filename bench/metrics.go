package main

// metricDef names one reported number. The tables below are the single
// source for BENCHMARK.json (bench_test.go asserts the file matches) and
// for the bounds -diff and -check apply.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // end-to-end only
}

// endToEnd is measured with tracing off, on every workload. "op" is the
// workload's repeated operation: one cold start on the four cold-start
// workloads (there op_p50_ms restates converge_s in ms), one update or
// burst on the three update workloads.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"converge_s", "s", "lower", 0.25},
	{"op_p50_ms", "ms", "lower", 0.25},
	{"allocs_per_op", "allocs", "lower", 0.05},
	{"peak_heap_mb", "MB", "lower", 0.05},
}

// perLayer comes from the traced run. The first block is user-visible
// but defined on a subset of workloads only, so the contract (every
// end-to-end metric on every workload, never 0) keeps it out of
// endToEnd; it is measured on the public executor with no hooks. A
// metric reads 0 on a workload that does not exercise its layer.
var perLayer = []metricDef{
	{"op_p90_ms", "ms", "lower", 0},
	{"vconverge_s", "s", "lower", 0},
	{"wire_msgs_per_op", "msgs", "lower", 0},
	{"wire_kb_per_op", "kB", "lower", 0},
	{"fsyncs_per_op", "fsyncs", "lower", 0},
	{"recover_ms", "ms", "lower", 0},
	{"failed_share", "ratio", "lower", 0},
	{"result_rows", "rows", "lower", 0},

	{"parser.parse_ms", "ms", "lower", 0},
	{"planner.localize_ms", "ms", "lower", 0},
	{"analysis.analyze_ms", "ms", "lower", 0},

	{"engine.compile_ms", "ms", "lower", 0},
	{"engine.compiles_per_run", "count", "lower", 0},
	{"engine.drain_s", "s", "lower", 0},
	{"engine.drains", "count", "lower", 0},
	{"engine.deltas_in", "count", "lower", 0},
	{"engine.deltas_out", "count", "lower", 0},
	{"engine.derivations", "count", "lower", 0},
	{"engine.stores", "count", "lower", 0},
	{"engine.retracts", "count", "lower", 0},
	{"engine.store_ratio", "ratio", "higher", 0},
	{"engine.ns_per_derivation", "ns", "lower", 0},
	{"engine.allocs_per_derivation", "allocs", "lower", 0},
	{"engine.queue_hwm", "count", "lower", 0},
	{"engine.update.drain_ms_p50", "ms", "lower", 0},
	{"engine.update.derivations_per_burst", "count", "lower", 0},
	{"engine.update.retracts_per_burst", "count", "lower", 0},
	{"engine.central.sn_converge_s", "s", "lower", 0},
	{"engine.central.sn_p1_converge_s", "s", "lower", 0},
	{"engine.parallel.w1_converge_s", "s", "lower", 0},
	{"engine.parallel.speedup_x", "x", "higher", 0},
	{"engine.cluster.overhead_share", "ratio", "lower", 0},

	{"codec.encode_s", "s", "lower", 0},
	{"codec.decode_s", "s", "lower", 0},
	{"codec.encode_ns_per_delta", "ns", "lower", 0},
	{"codec.decode_ns_per_delta", "ns", "lower", 0},
	{"codec.decode_allocs_per_delta", "allocs", "lower", 0},
	{"codec.bytes_per_delta", "B", "lower", 0},
	{"codec.deltas_per_msg", "count", "higher", 0},
	{"val.intern_hit_ratio", "ratio", "higher", 0},
	{"val.intern_ns", "ns", "lower", 0},

	{"table.insert_ns", "ns", "lower", 0},
	{"table.delete_ns", "ns", "lower", 0},
	{"table.match_ns", "ns", "lower", 0},
	{"table.rows_hwm", "rows", "lower", 0},
	{"table.agg_add_ns", "ns", "lower", 0},
	{"table.agg_remove_ns", "ns", "lower", 0},

	{"simnet.events", "count", "lower", 0},
	{"simnet.ns_per_event", "ns", "lower", 0},

	{"netrun.bind_ms", "ms", "lower", 0},
	{"netrun.work_s", "s", "lower", 0},
	{"netrun.quiesce_lag_ms", "ms", "lower", 0},
	{"netrun.inject_us_p50", "us", "lower", 0},
	{"netrun.msgs_per_update", "msgs", "lower", 0},
	{"netrun.bytes_per_msg", "B", "lower", 0},
	{"netrun.us_per_msg", "us", "lower", 0},
	{"netrun.loss_share", "ratio", "lower", 0},
	{"netrun.goroutines", "count", "lower", 0},
	{"netrun.udp_floor_us", "us", "lower", 0},
	{"netrun.storm52.work_s", "s", "lower", 0},
	{"netrun.storm52.loss_share", "ratio", "lower", 0},
	{"netrun.storm52.failed_share", "ratio", "lower", 0},

	{"durable.commit_us_p50", "us", "lower", 0},
	{"durable.commit_us_p90", "us", "lower", 0},
	{"durable.fsyncs_per_commit", "fsyncs", "lower", 0},
	{"durable.wal_bytes_per_user_byte", "ratio", "lower", 0},
	{"durable.snapshot_ms", "ms", "lower", 0},
	{"durable.open_recover_ms", "ms", "lower", 0},
	{"durable.update_share", "ratio", "lower", 0},

	{"runtime.gc_cycles", "count", "lower", 0},
	{"runtime.gc_pause_ms", "ms", "lower", 0},

	{"trace.overhead_share", "ratio", "lower", 0},
	{"trace.driver_vs_cluster_x", "x", "lower", 0},
}
