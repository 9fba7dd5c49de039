package main

// The benchmark's metric vocabulary. BENCHMARK.json at the repository root
// lists the end-to-end and per-layer names with their units and directions;
// this table adds, for every per-layer metric, the end-to-end metric and
// workload it is predicted to move and the workload where it should not
// move. TestRegistryMatchesBenchmarkJSON keeps the two in step.

// metricDef describes one metric.
type metricDef struct {
	name   string
	unit   string
	better string // "higher" or "lower"
	moves  string // end-to-end metric a per-layer change should move
	on     string // workload where it moves
	noMove string // workload where no change is predicted
}

// prediction is the per-layer metric's predicted effect, for the report.
func (d metricDef) prediction() string {
	s := "moves " + d.moves + " on " + d.on
	if d.moves == "" {
		s = "reported on " + d.on
	}
	if d.noMove != "" {
		s += "; no move on " + d.noMove
	}
	return s
}

// endToEnd are the metrics a user of the system sees, reported by every
// untraced run. failed_ratio and latency_p99_ms are printed in the report
// but kept out of the JSON result: failed_ratio is 0 on a correct run
// (failures are the result's "failed" count and fail the run), and p99
// needs 1000 requests, which only object_mix reaches.
var endToEnd = []metricDef{
	{name: "goodput_mbps", unit: "MB/s", better: "higher"},
	{name: "latency_p50_ms", unit: "ms", better: "lower"},
	{name: "latency_p90_ms", unit: "ms", better: "lower"},
	{name: "cpu_ns_per_byte", unit: "ns/B", better: "lower"},
	{name: "max_rss_mb", unit: "MiB", better: "lower"},
	{name: "setup_s", unit: "s", better: "lower"},
}

// reportOnly are end-to-end metrics printed in the report only.
var reportOnly = []metricDef{
	{name: "latency_p99_ms", unit: "ms", better: "lower"},
	{name: "failed_ratio", unit: "ratio", better: "lower"},
}

// perLayer are the metrics of the traced run, derived from its spans and
// CPU profile. A metric a workload does not exercise reads 0 there.
var perLayer = []metricDef{
	{name: "core.source_ns_per_byte", unit: "ns/B", better: "lower", moves: "cpu_ns_per_byte, goodput_mbps", on: "bulk_pull", noMove: "object_mix"},
	{name: "core.source_calls_per_chunk", unit: "ratio", better: "lower", moves: "cpu_ns_per_byte, goodput_mbps", on: "bulk_pull", noMove: "object_mix"},
	{name: "cpu_share.wire", unit: "ratio", better: "lower", moves: "cpu_ns_per_byte", on: "bulk_pull"},
	{name: "cpu_share.udplan", unit: "ratio", better: "lower", moves: "cpu_ns_per_byte", on: "lossy_striped"},
	{name: "cpu_share.syscall", unit: "ratio", better: "lower", moves: "cpu_ns_per_byte", on: "bulk_pull"},
	{name: "cpu_share.core", unit: "ratio", better: "lower", moves: "cpu_ns_per_byte", on: "bulk_pull"},
	{name: "cpu_share.session", unit: "ratio", better: "lower", moves: "cpu_ns_per_byte", on: "lossy_striped"},
	{name: "cpu_share.store", unit: "ratio", better: "lower", moves: "cpu_ns_per_byte", on: "object_mix"},
	{name: "cpu_share.sim", unit: "ratio", better: "lower", moves: "cpu_ns_per_byte", on: "des_load"},
	{name: "cpu_share.runtime", unit: "ratio", better: "lower", moves: "cpu_ns_per_byte", on: "des_load"},
	{name: "cpu_share.other", unit: "ratio", better: "lower", moves: "cpu_ns_per_byte", on: "bulk_pull"},
	{name: "runtime.gc_cpu_share", unit: "ratio", better: "lower", moves: "cpu_ns_per_byte", on: "des_load"},
	{name: "runtime.allocs_per_mb", unit: "1/MB", better: "lower", moves: "cpu_ns_per_byte", on: "bulk_pull"},
	{name: "udplan.dial_us", unit: "us", better: "lower", moves: "latency_p50_ms", on: "object_mix", noMove: "bulk_pull"},
	{name: "core.stat_us", unit: "us", better: "lower", moves: "latency_p50_ms", on: "object_mix"},
	{name: "session.overhead_ms", unit: "ms", better: "lower", moves: "latency_p50_ms", on: "object_mix", noMove: "bulk_pull"},
	{name: "session.server_mbps", unit: "MB/s", better: "higher", moves: "goodput_mbps", on: "bulk_pull"},
	{name: "session.busy_refusals", unit: "count", better: "lower", moves: "latency_p99_ms, failed_ratio", on: "object_mix"},
	{name: "session.req_stalls", unit: "count", better: "lower", moves: "latency_p99_ms, failed_ratio", on: "object_mix"},
	{name: "store.chunk_ns", unit: "ns", better: "lower", moves: "latency_p99_ms, goodput_mbps", on: "object_mix", noMove: "bulk_pull"},
	{name: "store.hit_ratio", unit: "ratio", better: "higher", moves: "latency_p99_ms, goodput_mbps", on: "object_mix", noMove: "bulk_pull"},
	{name: "store.read_ops_per_mb", unit: "1/MB", better: "lower", moves: "latency_p99_ms, goodput_mbps", on: "object_mix", noMove: "bulk_pull"},
	{name: "store.evictions", unit: "count", better: "lower", moves: "latency_p99_ms, goodput_mbps", on: "object_mix", noMove: "bulk_pull"},
	{name: "store.stat_us", unit: "us", better: "lower", moves: "latency_p99_ms, goodput_mbps", on: "object_mix", noMove: "bulk_pull"},
	{name: "store.sink_ns_per_byte", unit: "ns/B", better: "lower", moves: "latency_p50_ms", on: "object_mix"},
	{name: "core.retrans_ratio", unit: "ratio", better: "lower", moves: "goodput_mbps, latency_p90_ms", on: "lossy_striped", noMove: "bulk_pull"},
	{name: "core.naks_per_mb", unit: "1/MB", better: "lower", moves: "goodput_mbps, latency_p90_ms", on: "lossy_striped", noMove: "bulk_pull"},
	{name: "core.dup_ratio", unit: "ratio", better: "lower", moves: "goodput_mbps, latency_p90_ms", on: "lossy_striped", noMove: "bulk_pull"},
	{name: "core.linger_events", unit: "count", better: "lower", moves: "goodput_mbps, latency_p90_ms", on: "lossy_striped", noMove: "bulk_pull"},
	{name: "simrun.packets_per_s", unit: "1/s", better: "higher", moves: "goodput_mbps", on: "des_load", noMove: "bulk_pull, object_mix, lossy_striped"},
	{name: "simrun.virtual_per_wall", unit: "ratio", better: "higher", moves: "goodput_mbps", on: "des_load", noMove: "bulk_pull, object_mix, lossy_striped"},
	{name: "trace.overhead_ratio", unit: "ratio", better: "higher", on: "every workload"},
}
