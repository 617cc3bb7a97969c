package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"openhire/internal/expr"
	"openhire/internal/netsim"
)

// toyConfig shrinks a workload to a /22 world and a handful of operations,
// so plain `go test` keeps the harness compiling and honest without running
// the real sizes.
func toyConfig(t *testing.T, name string, traced bool) config {
	cfg := defaultConfig()
	cfg.workload = name
	cfg.trace = traced
	cfg.seed = 7
	cfg.seconds = 3600 // the clock never ends a toy window; maxOps does
	cfg.prefix = netsim.MustParsePrefix("100.0.0.0/22")
	cfg.captureScale = 1.0 / 8192
	cfg.restores = 2
	cfg.tmpBase = filepath.Join(t.TempDir(), "tmp")
	cfg.maxOps = 1
	if strings.HasPrefix(name, "serve_") {
		cfg.maxOps = 3
	}
	return cfg
}

// exercised names, per workload, some of the layers a traced run must fill in:
// the ones the workload exists to stress.
var exercised = map[string][]string{
	"report_default":    {"scan.run_ms", "scan.probes", "expr.table6_ms", "classify.findings", "attack.events_run", "report.bytes", "netsim.synprobe_ns"},
	"serve_month":       {"serve.leg.campaign_ms", "serve.leg.scan_ms", "serve.scan_targets_per_cycle", "attack.world_rebuild_ms"},
	"serve_durable":     {"checkpoint.bytes_per_cycle", "checkpoint.tsdb_dup_bytes", "serve.hourfile_bytes_per_cycle", "serve.resume_ms", "serve.leg.commit_ms"},
	"serve_scrape":      {"api.p50_ms", "api.requests", "api.trends.bytes", "api.server_mean_us"},
	"telescope_capture": {"darknet.gen_ns_per_flow", "telescope.parse_ns_per_flow", "telescope.bytes_per_flow", "telescope.paper_rate_multiple"},
}

// TestWorkloadsEmitDeclaredMetrics runs every workload in both modes at toy
// size: each declared metric appears once, finite, with its unit; no other
// name appears; every output check passes; the traced run fills in the
// layers its workload stresses.
func TestWorkloadsEmitDeclaredMetrics(t *testing.T) {
	for _, wl := range workloads {
		for _, traced := range []bool{false, true} {
			name := wl.name + "/e2e"
			defs := endToEnd
			if traced {
				name, defs = wl.name+"/traced", perLayer
			}
			t.Run(name, func(t *testing.T) {
				r, res, err := execute(toyConfig(t, wl.name, traced))
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Errorf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
				}
				if len(res.Metrics) != len(defs) {
					t.Errorf("emitted %d metrics, declared %d", len(res.Metrics), len(defs))
				}
				for _, d := range defs {
					m, ok := res.Metrics[d.Name]
					switch {
					case !ok:
						t.Errorf("%s not emitted", d.Name)
					case m.Unit != d.Unit:
						t.Errorf("%s has unit %q, declared %q", d.Name, m.Unit, d.Unit)
					case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
						t.Errorf("%s is not finite", d.Name)
					case !traced && m.Value <= 0:
						t.Errorf("end-to-end metric %s reads %v; it must never be 0", d.Name, m.Value)
					}
				}
				for _, m := range exercised[wl.name] {
					if traced && res.Metrics[m].Value <= 0 {
						t.Errorf("%s reads %v", m, res.Metrics[m].Value)
					}
				}
				if entries, _ := os.ReadDir(r.cfg.tmpBase); len(entries) != 0 {
					t.Errorf("%d temporary directories left behind", len(entries))
				}
			})
		}
	}
}

// TestReportPassMatchesPlainLoop pins that forcing each world phase just
// before the experiment that needs it (so it gets a span of its own) leaves
// the artifacts exactly those of openhire-report's plain loop.
func TestReportPassMatchesPlainLoop(t *testing.T) {
	cfg := toyConfig(t, "report_default", false)
	got := reportPass(newRun(cfg), 0)

	wc := expr.DefaultConfig()
	wc.Seed, wc.UniversePrefix = cfg.seed, cfg.prefix
	world := expr.BuildWorld(wc)
	digest := sha256.New()
	for _, e := range expr.All() {
		render(io.Discard, digest, e, e.Run(world))
	}
	if want := hex.EncodeToString(digest.Sum(nil)); got.digest != want {
		t.Errorf("pass digest %s, plain loop %s", got.digest, want)
	}
	if got.artifacts != reportExperiments {
		t.Errorf("%d non-empty artifacts, want %d", got.artifacts, reportExperiments)
	}
}

// TestServeDigestsAgreeAcrossModes is the cross-process check of -all at toy
// size: tracing and scraping leave the aggregates untouched.
func TestServeDigestsAgreeAcrossModes(t *testing.T) {
	digest := func(name string, traced bool) string {
		cfg := toyConfig(t, name, traced)
		cfg.maxOps = monthDays - 1 // reach cycle 30, where the digest is taken
		r, _, err := execute(cfg)
		if err != nil {
			t.Fatal(err)
		}
		d := r.info["aggregates_sha256_cycle30"]
		if d == "" {
			t.Fatalf("%s printed no digest", name)
		}
		return d
	}
	// One comparison covers both: a traced, scraped daemon against a plain one.
	want := digest("serve_month", false)
	if got := digest("serve_scrape", true); got != want {
		t.Errorf("traced serve_scrape digest %s, untraced serve_month %s", got, want)
	}
}

func TestSelectMetricsRejectsUndeclared(t *testing.T) {
	if _, err := selectMetrics(map[string]float64{"no.such_metric": 1}, true); err == nil {
		t.Error("an undeclared metric was accepted")
	}
	if _, err := selectMetrics(map[string]float64{"setup_s": 1}, false); err == nil {
		t.Error("a run missing end-to-end metrics was accepted")
	}
}

func TestCompareFlagsOnlyWhatIsOutsideItsBound(t *testing.T) {
	set := func(opMS, workPerS float64, failed int) *resultSet {
		return &resultSet{Runs: []setRun{{Workload: "serve_month", result: result{
			Correct: failed == 0, Attempted: 10, Failed: failed,
			Metrics: map[string]metricValue{
				"op_ms_p50":  {opMS, "ms"},
				"work_per_s": {workPerS, "1/s"},
			},
		}}}}
	}
	var out bytes.Buffer
	if n := compareSets(&out, set(100, 20, 0), set(110, 19, 0)); n != 0 {
		t.Errorf("10%% slower and 5%% less throughput is inside the bounds, got %d outside\n%s", n, out.String())
	}
	out.Reset()
	if n := compareSets(&out, set(100, 20, 0), set(140, 30, 0)); n != 1 {
		t.Errorf("40%% slower must be outside and 50%% more throughput inside, got %d outside\n%s", n, out.String())
	}
	if !strings.Contains(out.String(), "OUTSIDE") {
		t.Errorf("no row marked OUTSIDE:\n%s", out.String())
	}
	out.Reset()
	if n := compareSets(&out, set(100, 20, 0), set(100, 10, 0)); n != 1 {
		t.Errorf("half the throughput must be outside, got %d\n%s", n, out.String())
	}
}

// TestBenchmarkJSONMatchesHarness keeps the contract file and the code that
// emits the metrics from drifting apart.
func TestBenchmarkJSONMatchesHarness(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metricDef `json:"end_to_end"`
		PerLayer []metricDef `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(spec.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs from the harness table:\n%v\n%v", spec.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(spec.PerLayer, perLayer) {
		t.Errorf("per_layer differs from the harness table")
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the harness", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.name || spec.Workloads[i].Why != w.why {
			t.Errorf("workload %d: %q in BENCHMARK.json, %q in the harness", i, spec.Workloads[i].Name, w.name)
		}
		if len(w.why) > 200 {
			t.Errorf("%s: why is %d characters, limit 200", w.name, len(w.why))
		}
	}
	if !reflect.DeepEqual(spec.Paths, []string{"bench"}) || float64(spec.RunSeconds) != defaultConfig().seconds {
		t.Errorf("paths %v, run_seconds %d", spec.Paths, spec.RunSeconds)
	}
	if !reflect.DeepEqual(spec.Command, []string{"sh", "bench/run.sh"}) {
		t.Errorf("command %v", spec.Command)
	}
}
