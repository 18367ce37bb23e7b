package main

// metricDef describes one reported metric. Bound is the share of the
// baseline median by which an end-to-end metric may worsen before a
// change counts as a regression; per-layer metrics have none.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	Bound  float64
}

// endToEnd are the user-visible metrics every workload reports from its
// untraced run; they are the metrics BENCHMARK.json gates on. Each is
// non-zero on every workload and, over ten runs, spreads less than its
// bound on a shared 2-vCPU host.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"latency_p50_ms", "ms", "lower", 0.25},
	{"alloc_bytes_per_op", "B", "lower", 0.05},
	{"allocs_per_op", "count", "lower", 0.05},
	{"setup_heap_mb", "MB", "lower", 0.2},
}

// endToEndExtra are end-to-end metrics that are printed, written to
// --out and judged by compare, but not gated. Throughput and the tail
// moved by a quarter between sets of runs of the same code on a shared
// host, the serve-only metrics exist on one workload, and error_ratio
// reads 0 when nothing fails.
var endToEndExtra = []metricDef{
	{"ops_per_s", "1/s", "higher", 0.25},
	{"latency_p90_ms", "ms", "lower", 0.25},
	{"latency_p99_ms", "ms", "lower", 0.25},
	{"read_p50_ms", "ms", "lower", 0.25},
	{"write_p50_ms", "ms", "lower", 0.25},
	{"error_ratio", "ratio", "lower", 0},
}

// perLayer are the traced run's layer metrics that every workload
// reports. Counts of work (facts, lookups, probes) repeat exactly on the
// library workloads; times are per op unless the name says otherwise.
var perLayer = []metricDef{
	{Name: "parser.program_parse_s", Unit: "s", Better: "lower"},
	{Name: "analysis.analyze_s", Unit: "s", Better: "lower"},
	{Name: "kb.load_s", Unit: "s", Better: "lower"},
	{Name: "kb.exec_ms", Unit: "ms", Better: "lower"},
	{Name: "kb.self_ms", Unit: "ms", Better: "lower"},
	{Name: "eval.plan_ms", Unit: "ms", Better: "lower"},
	{Name: "trace.overhead_ms", Unit: "ms", Better: "lower"},
	{Name: "eval.facts_per_op", Unit: "count", Better: "lower"},
	{Name: "eval.lookups_per_op", Unit: "count", Better: "lower"},
	{Name: "eval.iterations_per_op", Unit: "count", Better: "lower"},
	{Name: "eval.facts_per_answer", Unit: "ratio", Better: "lower"},
	{Name: "storage.probes_per_op", Unit: "count", Better: "lower"},
	{Name: "storage.candidates_per_probe", Unit: "ratio", Better: "lower"},
	{Name: "storage.full_scan_ratio", Unit: "ratio", Better: "lower"},
	{Name: "storage.index_builds_per_op", Unit: "count", Better: "lower"},
	{Name: "storage.wal_bytes_per_write", Unit: "B", Better: "lower"},
	{Name: "core.describe_nodes_per_op", Unit: "count", Better: "lower"},
	{Name: "server.prepared_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "server.shed_total", Unit: "count", Better: "lower"},
	{Name: "runtime.gc_cycles_per_op", Unit: "count", Better: "lower"},
}

// perLayerExtra are layer self times that exist only on the workloads
// that reach the layer (a render, an SCC, a WAL, an HTTP hop). They are
// printed in the traced run's layer table and written to --out.
var perLayerExtra = []metricDef{
	{Name: "parser.query_parse_us", Unit: "us", Better: "lower"},
	{Name: "render.string_ms", Unit: "ms", Better: "lower"},
	{Name: "eval.self_ms", Unit: "ms", Better: "lower"},
	{Name: "eval.scc_ms", Unit: "ms", Better: "lower"},
	{Name: "eval.scc_max_ms", Unit: "ms", Better: "lower"},
	{Name: "storage.self_ms", Unit: "ms", Better: "lower"},
	{Name: "core.eval_ms", Unit: "ms", Better: "lower"},
	{Name: "core.describe_self_ms", Unit: "ms", Better: "lower"},
	{Name: "storage.wal_append_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "storage.wal_append_ms_mean", Unit: "ms", Better: "lower"},
	{Name: "server.serve_self_ms", Unit: "ms", Better: "lower"},
	{Name: "server.handler_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "server.handler_ms_mean", Unit: "ms", Better: "lower"},
	{Name: "server.http_overhead_ms", Unit: "ms", Better: "lower"},
	{Name: "bench.self_ms", Unit: "ms", Better: "lower"},
}

// lookupMetric finds a metric definition by name.
func lookupMetric(name string) (metricDef, bool) {
	for _, list := range [][]metricDef{endToEnd, endToEndExtra, perLayer, perLayerExtra} {
		for _, m := range list {
			if m.Name == name {
				return m, true
			}
		}
	}
	return metricDef{}, false
}
