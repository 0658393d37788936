package main

// metric is one named measurement the benchmark reports. The tables below
// are the single source of the names, units, directions and bounds;
// TestBenchmarkJSONMatchesTables holds BENCHMARK.json to them.
type metric struct {
	Name   string
	Unit   string
	Better string
	// Bound is the share of the baseline median by which an end-to-end
	// metric may worsen before a change counts as a regression (0 for
	// per-layer metrics, which have none).
	Bound float64
}

const (
	lower  = "lower"
	higher = "higher"
)

// endToEnd lists the metrics every untraced run reports. Each is defined
// for every workload, so one list serves all four (see README.md).
var endToEnd = []metric{
	{"setup_s", "s", lower, 0.25},
	{"medges_per_ref", "Medge/ref", higher, 0.25},
	{"latency_p50_ref", "ref", lower, 0.25},
	{"peak_rss_mb", "MB", lower, 0.20},
}

// perLayer lists the metrics every traced run reports. A layer the
// workload does not run, or cannot see from outside, reads 0.
var perLayer = []metric{
	{"host.calib_ns", "ns", lower, 0},
	{"gen.build_s", "s", lower, 0},
	{"graph.relabel_s", "s", lower, 0},
	{"graph.relabel_alloc_mb", "MB", lower, 0},
	{"reorder.dbg_s", "s", lower, 0},
	{"reorder.hubsort_s", "s", lower, 0},
	{"reorder.boba_s", "s", lower, 0},
	{"reorder.sb_s", "s", lower, 0},
	{"reorder.ro_s", "s", lower, 0},
	{"reorder.go_s", "s", lower, 0},
	{"reorder.dbg_alloc_mb", "MB", lower, 0},
	{"reorder.hubsort_alloc_mb", "MB", lower, 0},
	{"reorder.boba_alloc_mb", "MB", lower, 0},
	{"reorder.sb_alloc_mb", "MB", lower, 0},
	{"reorder.ro_alloc_mb", "MB", lower, 0},
	{"reorder.go_alloc_mb", "MB", lower, 0},
	{"trace.ns_per_access", "ns", lower, 0},
	{"trace.records_ns_per_access", "ns", lower, 0},
	{"trace.overhead_frac", "frac", lower, 0},
	{"cachesim.cache_ns_per_access", "ns", lower, 0},
	{"cachesim.tlb_ns_per_access", "ns", lower, 0},
	{"cachesim.accesses", "count", lower, 0},
	{"cachesim.misses", "count", lower, 0},
	{"cachesim.writebacks", "count", lower, 0},
	{"cachesim.tlb_misses", "count", lower, 0},
	{"core.ecs_pct", "%", higher, 0},
	{"core.simulate_s", "s", lower, 0},
	{"core.maccess_per_s", "Maccess/s", higher, 0},
	{"core.pervertex_extra_s", "s", lower, 0},
	{"core.snapshot_extra_s", "s", lower, 0},
	{"core.layer_sum_ratio", "ratio", lower, 0},
	{"core.multicore_speedup", "x", higher, 0},
	{"spmv.iter_ms.identity", "ms", lower, 0},
	{"spmv.iter_ms.dbg", "ms", lower, 0},
	{"spmv.iter_ms.hubsort", "ms", lower, 0},
	{"spmv.iter_ms.boba", "ms", lower, 0},
	{"spmv.breakeven_iters.dbg", "iters", lower, 0},
	{"spmv.breakeven_iters.hubsort", "iters", lower, 0},
	{"spmv.breakeven_iters.boba", "iters", lower, 0},
	{"serve.hit_p50_ms", "ms", lower, 0},
	{"serve.miss_p50_ms", "ms", lower, 0},
	{"serve.server_p50_ms", "ms", lower, 0},
	{"serve.transport_p50_ms", "ms", lower, 0},
	{"serve.cache_hit_rate", "frac", higher, 0},
	{"serve.shed", "count", lower, 0},
	{"serve.queue_depth_max", "count", lower, 0},
	{"runtime.gc_cycles", "count", lower, 0},
	{"runtime.gc_pause_ms", "ms", lower, 0},
	{"runtime.alloc_mb", "MB", lower, 0},
	{"runtime.gomaxprocs", "count", higher, 0},
}
