package main

// metricDef defines one reported metric. Per-layer metrics also record which
// end-to-end metric they should move and on which workloads, the map that a
// performance claim is checked against.
type metricDef struct {
	Name   string
	Unit   string
	Better string
	Bound  float64 // end-to-end only: tolerated worsening, as a share of the median
	Moves  string  // per-layer only
	On     string  // per-layer only
}

// Every bound is 0.25, the largest allowed: over ten seeds on a 2-vCPU VM
// with noisy neighbours, the IQR/median spreads of these metrics were at
// most 0.12, and 0.18 for setup_s (see README.md).
var endToEnd = []metricDef{
	{Name: "latency_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "latency_p90_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "throughput_qps", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "cpu_ms_per_query", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "alloc_mb_per_query", Unit: "MB", Better: "lower", Bound: 0.25},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.25},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
}

const (
	allWorkloads = "loose-dseq, loose-dcand, text-dfs"
	looseBoth    = "loose-dseq, loose-dcand"
)

var perLayer = []metricDef{
	// From the timed run, read from the daemon at the window edges.
	{Name: "service.queue_ms", Unit: "ms", Better: "lower", Moves: "latency_p50_ms (admission wait; near 0 with one client)", On: allWorkloads},
	{Name: "service.compile_ms", Unit: "ms", Better: "lower", Moves: "latency_p50_ms (cache-hit lookup, near 0)", On: allWorkloads},
	{Name: "service.mine_ms", Unit: "ms", Better: "lower", Moves: "latency_p50_ms, latency_p90_ms", On: allWorkloads},
	{Name: "service.compile_cache_hit_ratio", Unit: "ratio", Better: "higher", Moves: "latency_p50_ms (1.0 inside the window)", On: allWorkloads},
	{Name: "http.overhead_ms", Unit: "ms", Better: "lower", Moves: "latency_p50_ms", On: looseBoth},
	{Name: "http.response_kb", Unit: "KB", Better: "lower", Moves: "latency_p50_ms", On: looseBoth},
	// From the traced run.
	{Name: "fst.compile_ms", Unit: "ms", Better: "lower", Moves: "none in the window (first query of an expression only)", On: allWorkloads},
	{Name: "fst.states", Unit: "count", Better: "lower", Moves: "none in the window (first query of an expression only)", On: allWorkloads},
	{Name: "fst.transitions", Unit: "count", Better: "lower", Moves: "none in the window (first query of an expression only)", On: allWorkloads},
	{Name: "pivot.analyze_ms", Unit: "ms", Better: "lower", Moves: "cpu_ms_per_query (at most ~5%)", On: looseBoth},
	{Name: "pivot.rewrite_ms", Unit: "ms", Better: "lower", Moves: "cpu_ms_per_query (at most ~5%)", On: looseBoth},
	{Name: "pivot.allocs", Unit: "count", Better: "lower", Moves: "alloc_mb_per_query", On: looseBoth},
	{Name: "pivot.pivots_per_seq", Unit: "count", Better: "lower", Moves: "latency_p50_ms, cpu_ms_per_query (replication sizes shuffle and reduce)", On: "loose-dseq"},
	{Name: "pivot.hit_ratio", Unit: "ratio", Better: "lower", Moves: "cpu_ms_per_query (share of sequences shipped)", On: looseBoth},
	{Name: "miner.partition_ms", Unit: "ms", Better: "lower", Moves: "latency_p50_ms, cpu_ms_per_query", On: "loose-dseq"},
	{Name: "miner.partition_max_ms", Unit: "ms", Better: "lower", Moves: "latency_p50_ms (slowest reduce task)", On: "loose-dseq"},
	{Name: "miner.partition_allocs", Unit: "count", Better: "lower", Moves: "alloc_mb_per_query", On: "loose-dseq"},
	{Name: "miner.dfs_ms", Unit: "ms", Better: "lower", Moves: "latency_p50_ms, latency_p90_ms", On: "text-dfs"},
	{Name: "miner.dfs_allocs", Unit: "count", Better: "lower", Moves: "alloc_mb_per_query", On: "text-dfs"},
	{Name: "mapreduce.map_ms", Unit: "ms", Better: "lower", Moves: "latency_p50_ms", On: looseBoth},
	{Name: "mapreduce.shuffle_ms", Unit: "ms", Better: "lower", Moves: "latency_p50_ms", On: looseBoth},
	{Name: "mapreduce.reduce_ms", Unit: "ms", Better: "lower", Moves: "latency_p50_ms", On: looseBoth},
	{Name: "mapreduce.map_records", Unit: "count", Better: "lower", Moves: "alloc_mb_per_query", On: looseBoth},
	{Name: "mapreduce.shuffle_records", Unit: "count", Better: "lower", Moves: "alloc_mb_per_query", On: looseBoth},
	{Name: "mapreduce.combine_ratio", Unit: "ratio", Better: "lower", Moves: "alloc_mb_per_query", On: looseBoth},
	{Name: "mapreduce.shuffle_kb", Unit: "KB", Better: "lower", Moves: "alloc_mb_per_query", On: looseBoth},
	{Name: "mapreduce.partitions", Unit: "count", Better: "lower", Moves: "latency_p50_ms", On: looseBoth},
	{Name: "mapreduce.max_partition_share", Unit: "ratio", Better: "lower", Moves: "latency_p50_ms (slowest reduce task)", On: looseBoth},
	{Name: "mapreduce.allocs", Unit: "count", Better: "lower", Moves: "alloc_mb_per_query", On: looseBoth},
	{Name: "nfa.bytes_per_record", Unit: "B", Better: "lower", Moves: "alloc_mb_per_query", On: "loose-dcand"},
	{Name: "service.execute_ms", Unit: "ms", Better: "lower", Moves: "latency_p90_ms, throughput_qps", On: "text-dfs"},
	{Name: "service.son_candidates", Unit: "count", Better: "lower", Moves: "latency_p90_ms, throughput_qps", On: "text-dfs"},
	{Name: "service.son_precision", Unit: "ratio", Better: "higher", Moves: "latency_p90_ms, throughput_qps", On: "text-dfs"},
	{Name: "http.encode_ms", Unit: "ms", Better: "lower", Moves: "latency_p50_ms", On: looseBoth},
	{Name: "http.encode_allocs", Unit: "count", Better: "lower", Moves: "alloc_mb_per_query", On: looseBoth},
	{Name: "trace.coverage", Unit: "ratio", Better: "higher", Moves: "none (flags latency no layer explains)", On: allWorkloads},
}
