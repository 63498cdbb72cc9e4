package main

// metricDef declares one metric the benchmark reports; BENCHMARK.json at
// the repository root lists the same names (TestBenchmarkJSONMatches).
type metricDef struct {
	Name, Unit, Better string
}

// e2eDefs are the end-to-end metrics of the untraced run. Every workload
// reports every one; where a workload has no separate class the metric
// names the class it has (README.md, "End-to-end metrics").
var e2eDefs = []metricDef{
	{"setup_s", "s", "lower"},
	{"answer_p50_ms", "ms", "lower"},
	{"answers_per_s", "1/s", "higher"},
	{"alloc_mb_per_answer", "MB", "lower"},
	{"cold_p50_ms", "ms", "lower"},
	{"hit_p50_ms", "ms", "lower"},
	{"ok_ratio", "ratio", "higher"},
}

// layerDefs are the per-layer metrics of the traced run.
var layerDefs = []metricDef{
	{"cli.answer_ms", "ms", "lower"},
	{"cli.read_ms", "ms", "lower"},
	{"cli.encode_ms", "ms", "lower"},
	{"graphio.parse_ms", "ms", "lower"},
	{"graphio.parse_alloc_mb", "MB", "lower"},
	{"graphio.parse_mb_per_s", "MB/s", "higher"},
	{"graph.build_ms", "ms", "lower"},
	{"core.solve_ms", "ms", "lower"},
	{"core.init_ms", "ms", "lower"},
	{"core.ecc_ms", "ms", "lower"},
	{"core.winnow_ms", "ms", "lower"},
	{"core.chain_ms", "ms", "lower"},
	{"core.eliminate_ms", "ms", "lower"},
	{"core.other_ms", "ms", "lower"},
	{"core.ecc_bfs", "count", "lower"},
	{"core.winnow_calls", "count", "lower"},
	{"core.eliminate_calls", "count", "lower"},
	{"core.eliminate_visited", "count", "lower"},
	{"core.bound_improvements", "count", "lower"},
	{"core.msbfs_batches", "count", "higher"},
	{"core.msbfs_sources", "count", "higher"},
	{"core.msbfs_useful_ratio", "ratio", "higher"},
	{"bfs.traversal_ms", "ms", "lower"},
	{"bfs.levels", "count", "lower"},
	{"bfs.level_us", "us", "lower"},
	{"bfs.marcs_per_s", "Marcs/s", "higher"},
	{"bfs.dir_switches", "count", "lower"},
	{"msbfs.batch_ms", "ms", "lower"},
	{"msbfs.levels", "count", "lower"},
	{"par.dispatches", "count", "lower"},
	{"par.spawn_fallbacks", "count", "lower"},
	{"par.inline_runs", "count", "lower"},
	{"par.dispatch_wait_ms", "ms", "lower"},
	{"obs.armed_ratio", "ratio", "lower"},
	{"obs.traced_ratio", "ratio", "lower"},
	{"serve.cold_solve_ms", "ms", "lower"},
	{"serve.cold_overhead_ms", "ms", "lower"},
	{"serve.queue_wait_ms", "ms", "lower"},
	{"serve.req_p90_ms", "ms", "lower"},
	{"serve.result_hit_ratio", "ratio", "higher"},
	{"serve.graph_hit_ratio", "ratio", "higher"},
	{"serve.rejected", "count", "lower"},
	{"serve.cancelled", "count", "lower"},
	{"runtime.gc_cycles", "count", "lower"},
	{"runtime.gc_pause_ms", "ms", "lower"},
	{"trace.overhead_ratio", "ratio", "lower"},
	{"trace.answer_coverage", "ratio", "higher"},
}

// value is one reported number with its sample count (0 when it is a
// single measurement or a ratio of totals) and an optional note.
type value struct {
	V       float64
	Samples int
	Note    string
}
