package main

import (
	"fmt"
	"math"
	"sort"
)

// metricDef declares one metric the harness emits. The two tables below are
// the single source for BENCHMARK.json's end_to_end and per_layer lists
// (bench_test.go compares them) and for what a run prints.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd is what a user of the system sees. Every workload emits every
// one of them, so each is defined through two per-workload notions
// (README.md has the table):
//
//   - the operation, what someone waits for: a report pass, a serve cycle,
//     an API request (serve_scrape), a captured telescope day;
//   - the work item, what throughput counts: an experiment artifact, a
//     simulated day, a flow.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"op_ms_p50", "ms", "lower", 0.25},
	{"work_per_s", "1/s", "higher", 0.25},
	{"alloc_bytes_per_work", "B", "lower", 0.20},
	{"heap_live_mb", "MB", "lower", 0.20},
}

// perLayer is the traced run's breakdown. A workload reports 0 for a layer
// it does not exercise.
var perLayer = []metricDef{
	// Tracing and process context, every workload.
	{"trace.op_ms_p50", "ms", "lower", 0},
	{"trace.spans", "count", "lower", 0},
	{"proc.peak_rss_mb", "MB", "lower", 0},
	{"proc.gc_count", "count", "lower", 0},
	{"proc.gc_pause_ms", "ms", "lower", 0},
	{"proc.mallocs_per_work", "count", "lower", 0},
	{"proc.gomaxprocs", "count", "higher", 0},
	// What the host withheld, and the wall-clock readings before that is
	// taken out of them.
	{"host.steal_pct", "%", "lower", 0},
	{"host.cpu_s_per_work", "s", "lower", 0},
	{"op_ms_p90", "ms", "lower", 0},
	{"raw.op_ms_p50", "ms", "lower", 0},
	{"raw.op_ms_p90", "ms", "lower", 0},
	{"raw.work_per_s", "1/s", "higher", 0},

	// report_default: scan path.
	{"scan.run_ms", "ms", "lower", 0},
	{"scan.probes", "count", "lower", 0},
	{"scan.responded", "count", "higher", 0},
	{"scan.probe_ns", "ns", "lower", 0},
	{"scan.useful_ratio", "ratio", "higher", 0},
	{"expr.table6_ms", "ms", "lower", 0},
	{"report.scan_share", "ratio", "lower", 0},
	{"netsim.synprobe_ns", "ns", "lower", 0},
	{"netsim.query_ns", "ns", "lower", 0},
	// report_default: everything else in a pass.
	{"expr.build_world_ms", "ms", "lower", 0},
	{"fingerprint.filter_ms", "ms", "lower", 0},
	{"fingerprint.detections", "count", "higher", 0},
	{"classify.run_ms", "ms", "lower", 0},
	{"classify.findings", "count", "higher", 0},
	{"datasets.sonar_ms", "ms", "lower", 0},
	{"datasets.shodan_ms", "ms", "lower", 0},
	{"datasets.censys_ms", "ms", "lower", 0},
	{"attack.month_ms", "ms", "lower", 0},
	{"attack.events_run", "count", "higher", 0},
	{"attack.conversation_us", "us", "lower", 0},
	{"report.telescope_ms", "ms", "lower", 0},
	{"expr.headline_ms", "ms", "lower", 0},
	{"expr.other_ms", "ms", "lower", 0},
	{"report.render_ms", "ms", "lower", 0},
	{"report.bytes", "B", "lower", 0},
	{"report.cold_pass_s", "s", "lower", 0},
	{"report.unattributed_ms", "ms", "lower", 0},

	// serve_*: the cycle and its legs.
	{"serve.cycle_ms_p50", "ms", "lower", 0},
	{"serve.cycle_ms_p90", "ms", "lower", 0},
	{"serve.leg.campaign_ms", "ms", "lower", 0},
	{"serve.leg.telescope_ms", "ms", "lower", 0},
	{"serve.leg.honeypots_ms", "ms", "lower", 0},
	{"serve.leg.scan_ms", "ms", "lower", 0},
	{"serve.leg.commit_ms", "ms", "lower", 0},
	{"serve.leg.honeypots_growth", "ratio", "lower", 0},
	{"serve.leg.commit_growth", "ratio", "lower", 0},
	{"serve.cycle_ms.day01_05", "ms", "lower", 0},
	{"serve.cycle_ms.day26_30", "ms", "lower", 0},
	{"serve.cycle_growth", "ratio", "lower", 0},
	{"serve.commit_share", "ratio", "lower", 0},
	{"serve.unattributed_ms", "ms", "lower", 0},
	{"serve.attack_events_per_cycle", "count", "higher", 0},
	{"serve.telescope_flows_per_cycle", "count", "higher", 0},
	{"serve.scan_targets_per_cycle", "count", "higher", 0},
	{"attack.world_rebuild_ms", "ms", "lower", 0},
	{"honeypot.events_per_s", "1/s", "higher", 0},
	{"honeypot.paper_rate_multiple", "ratio", "higher", 0},

	// serve_durable: checkpoint write and restore.
	{"checkpoint.bytes_per_cycle", "B", "lower", 0},
	{"checkpoint.bytes_day01", "B", "lower", 0},
	{"checkpoint.bytes_day29", "B", "lower", 0},
	{"checkpoint.bytes_growth", "ratio", "lower", 0},
	{"checkpoint.tsdb_dup_bytes", "B", "lower", 0},
	{"checkpoint.write_mb_per_s", "MB/s", "higher", 0},
	{"serve.hourfile_bytes_per_cycle", "B", "lower", 0},
	{"serve.resume_ms", "ms", "lower", 0},
	{"serve.resume_ms.day01", "ms", "lower", 0},

	// serve_scrape: the query API under a paced scraper.
	{"api.p50_ms", "ms", "lower", 0},
	{"api.p99_ms", "ms", "lower", 0},
	{"api.snapshot_small.p50_ms", "ms", "lower", 0},
	{"api.snapshot_small.p99_ms", "ms", "lower", 0},
	{"api.trends.p50_ms", "ms", "lower", 0},
	{"api.trends.p99_ms", "ms", "lower", 0},
	{"api.ts_catalog.p50_ms", "ms", "lower", 0},
	{"api.ts_catalog.p99_ms", "ms", "lower", 0},
	{"api.ts_range.p50_ms", "ms", "lower", 0},
	{"api.ts_range.p99_ms", "ms", "lower", 0},
	{"api.ts_rollup.p50_ms", "ms", "lower", 0},
	{"api.ts_rollup.p99_ms", "ms", "lower", 0},
	{"api.ts_prom.p50_ms", "ms", "lower", 0},
	{"api.ts_prom.p99_ms", "ms", "lower", 0},
	{"api.trends.bytes", "B", "lower", 0},
	{"api.requests", "count", "higher", 0},
	{"api.failed", "count", "lower", 0},
	{"api.server_mean_us", "us", "lower", 0},
	{"api.pacer_late_ms_p99", "ms", "lower", 0},

	// telescope_capture: generate, ingest, partition, encode, parse.
	{"darknet.gen_ns_per_flow", "ns", "lower", 0},
	{"telescope.drain_ns_per_flow", "ns", "lower", 0},
	{"telescope.partition_ns_per_flow", "ns", "lower", 0},
	{"telescope.aggregate_ns_per_flow", "ns", "lower", 0},
	{"telescope.encode_ns_per_flow", "ns", "lower", 0},
	{"telescope.parse_ns_per_flow", "ns", "lower", 0},
	{"telescope.bytes_per_flow", "B", "lower", 0},
	{"telescope.flows_per_day", "count", "higher", 0},
	{"telescope.packets_per_s", "1/s", "higher", 0},
	{"telescope.paper_rate_multiple", "ratio", "higher", 0},
	{"telescope.pipeline_share", "ratio", "higher", 0},
}

// metricValue is one emitted number with its unit.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the one JSON object a run prints as its last line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// selectMetrics builds the emitted set for one mode from what the workload
// measured: every declared name appears exactly once; a per-layer metric the
// workload does not exercise reads 0, a missing end-to-end metric or a
// non-finite value is an error, and so is a measured name no table declares.
func selectMetrics(measured map[string]float64, traced bool) (map[string]metricValue, error) {
	declared := make(map[string]bool, len(endToEnd)+len(perLayer))
	for _, d := range endToEnd {
		declared[d.Name] = true
	}
	for _, d := range perLayer {
		declared[d.Name] = true
	}
	for name := range measured {
		if !declared[name] {
			return nil, fmt.Errorf("metric %q is measured but not declared", name)
		}
	}
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		v, ok := measured[d.Name]
		if !ok && !traced {
			return nil, fmt.Errorf("end-to-end metric %q was not measured", d.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %q is not finite", d.Name)
		}
		out[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	return out, nil
}

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of xs,
// or 0 when xs is empty. xs is not modified.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}

// median is the mean of the middle pair for an even count, unlike
// percentile(xs, 50), so that few samples (five report passes) do not
// quantize to one of them.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return sum(xs) / float64(len(xs))
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// ratio is a/b, or 0 when b is 0 (a layer that did no work).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func ms(ns int64) float64 { return float64(ns) / 1e6 }
