package main

// metricSpec names one reported metric and its unit. BENCHMARK.json lists
// the same names; TestMetricListsMatchBenchmarkJSON keeps the two in step.
type metricSpec struct{ name, unit string }

// endToEnd are the metrics of an untraced run, reported by every workload.
var endToEnd = []metricSpec{
	{"wall_s", "s"}, {"setup_s", "s"}, {"cpu_s", "s"}, {"alloc_mb", "MB"},
}

// perLayer are the metrics of a traced run. Every workload reports every
// one; a layer the workload does not exercise, or whose counts its public
// calls do not expose, reads 0. README.md says which workload moves which.
var perLayer = []metricSpec{
	{"sim.events", "count"}, {"sim.max_queued", "count"}, {"sim.self_share", "ratio"}, {"sim.ns_per_event", "ns"},
	{"phy.tx", "count"}, {"phy.corrupted_ratio", "ratio"}, {"phy.self_share", "ratio"}, {"phy.ns_per_tx", "ns"},
	{"mac.self_share", "ratio"}, {"mac.csma.self_share", "ratio"}, {"mac.maca.self_share", "ratio"},
	{"mac.macaw.self_share", "ratio"}, {"mac.token.self_share", "ratio"}, {"mac.dcf.self_share", "ratio"},
	{"mac.tournament.self_share", "ratio"}, {"mac.retry_ratio", "ratio"},
	{"core.self_share", "ratio"}, {"transport.self_share", "ratio"}, {"traffic.self_share", "ratio"},
	{"experiments.self_share", "ratio"},
	{"gc.self_share", "ratio"}, {"gc.cycles", "count"}, {"alloc.bytes_per_event", "B"}, {"mem.peak_rss_mb", "MB"},
	{"oracle.self_share", "ratio"}, {"metrics.self_share", "ratio"}, {"trace.self_share", "ratio"},
	{"json.self_share", "ratio"}, {"observer.overhead_ratio", "ratio"},
	{"fork.adopt_ms", "ms"}, {"fork.capture_ms", "ms"}, {"fork.state_kb", "KB"}, {"fork.share", "ratio"},
	{"shard.partition_ms", "ms"}, {"topo.build_ms", "ms"}, {"shard.components", "count"}, {"shard.utilization", "ratio"},
	{"ledger.put_p50_ms", "ms"}, {"ledger.put_p90_ms", "ms"}, {"ledger.write_mb", "MB"},
	{"ledger.open_ms", "ms"}, {"ledger.bytes", "B"}, {"gob.self_share", "ratio"}, {"snapshot.self_share", "ratio"},
	{"campaign.self_share", "ratio"}, {"http.self_share", "ratio"}, {"http.submit_ms", "ms"}, {"http.stream_mb", "MB"},
	{"campaign.cache_hits", "count"}, {"runner.utilization", "ratio"},
	{"campaign.runs_per_s", "1/s"}, {"campaign.ttfr_s", "s"}, {"campaign.result_p50_s", "s"},
	{"campaign.result_p90_s", "s"}, {"campaign.write_mb", "MB"}, {"campaign.restart_s", "s"},
	{"campaign.cached_wall_s", "s"},
	{"runtime.self_share", "ratio"}, {"other.self_share", "ratio"}, {"trace.overhead_s", "s"},
}
