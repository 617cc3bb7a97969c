package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"

	"openhire/internal/checkpoint"
	"openhire/internal/obs/tsdb"
)

// simState runs a fresh loop for cycles cycles and returns the sim stream's
// marshaled state.
func simState(t *testing.T, cfg Config, cycles int) []byte {
	t.Helper()
	l := New(cfg)
	if err := l.Run(context.Background(), cycles); err != nil {
		t.Fatal(err)
	}
	data, err := l.Observatory().Sim.MarshalState()
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestTSDBWorkerCountIndependent asserts the sim time-series state is
// byte-identical across worker counts: every point is sampled from
// order-normalized aggregates on the single-threaded driver, so scheduling
// can never leak into the history.
func TestTSDBWorkerCountIndependent(t *testing.T) {
	const cycles = 3
	golden := simState(t, testConfig(7), cycles)
	if len(golden) == 0 {
		t.Fatal("empty sim tsdb state")
	}
	for _, workers := range []int{1, 32} {
		got := simState(t, testConfig(workers), cycles)
		if !bytes.Equal(golden, got) {
			t.Errorf("workers=%d: sim tsdb state differs from workers=7:\n want: %s\n got:  %s", workers, golden, got)
		}
	}
}

// TestTSDBDisabledZeroPerturbation is the zero-perturbation gate: running
// with the observatory disabled must yield byte-identical leg artifacts —
// the tsdb only observes the aggregates, never feeds back into them.
func TestTSDBDisabledZeroPerturbation(t *testing.T) {
	const cycles = 3
	run := func(disabled bool) ([]byte, map[int]*Published) {
		cfg := testConfig(7)
		cfg.TSDBDisabled = disabled
		snaps := make(map[int]*Published)
		cfg.OnPublish = func(s *Published) { snaps[s.Watermark.Cycle] = s }
		l := New(cfg)
		if err := l.Run(context.Background(), cycles); err != nil {
			t.Fatal(err)
		}
		data, err := l.AggregatesJSON()
		if err != nil {
			t.Fatal(err)
		}
		return data, snaps
	}
	onJSON, onSnaps := run(false)
	offJSON, offSnaps := run(true)
	if !bytes.Equal(onJSON, offJSON) {
		t.Errorf("aggregates differ between tsdb on and off")
	}
	for c := 1; c <= cycles; c++ {
		sameSnapshot(t, fmt.Sprintf("tsdb on/off cycle=%d", c), onSnaps[c], offSnaps[c])
	}
}

// TestTSDBCheckpointFileMatchesEmbedded asserts the standalone serve-tsdb
// checkpoint file carries exactly the state embedded in the serve record —
// the digest the checkpoint stores is the file's actual digest, and a fresh
// store loaded from the file round-trips to the live store's bytes.
func TestTSDBCheckpointFileMatchesEmbedded(t *testing.T) {
	dir := t.TempDir()
	cfg := testConfig(7)
	cfg.CheckpointDir = dir
	l := New(cfg)
	if err := l.Run(context.Background(), 2); err != nil {
		t.Fatal(err)
	}
	live, err := l.Observatory().Sim.MarshalState()
	if err != nil {
		t.Fatal(err)
	}

	data, err := os.ReadFile(checkpoint.FileName(dir, "serve-tsdb"))
	if err != nil {
		t.Fatal(err)
	}
	f, err := checkpoint.Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	st, err := tsdb.DecodeState(f.Payload)
	if err != nil {
		t.Fatal(err)
	}
	db := tsdb.New(tsdb.Options{RawCapacity: st.RawCapacity, RollupEvery: st.RollupEvery, RollupCapacity: st.RollupCapacity})
	if err := db.LoadState(st); err != nil {
		t.Fatal(err)
	}
	loaded, err := db.MarshalState()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(live, loaded) {
		t.Errorf("serve-tsdb.ckpt state differs from the live store:\n want: %s\n got:  %s", live, loaded)
	}

	// A corrupted standalone file (the kill-between-writes window) must be
	// rewritten from the embedded state on restore.
	if err := os.WriteFile(checkpoint.FileName(dir, "serve-tsdb"), []byte("torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	second := New(cfg)
	found, err := second.Restore()
	if err != nil || !found {
		t.Fatalf("Restore: found=%v err=%v", found, err)
	}
	rewritten, err := os.ReadFile(checkpoint.FileName(dir, "serve-tsdb"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(rewritten, data) {
		t.Error("restore did not rewrite the torn serve-tsdb.ckpt back to the committed bytes")
	}
}

// TestTimeseriesAPI drives a 31-cycle daemon — crossing the first rollup
// window boundary — and exercises the live query surface: the catalog, a
// 30+-cycle raw trend query, the rollup tier, the Prometheus range export,
// query validation, and the status ops block.
func TestTimeseriesAPI(t *testing.T) {
	if testing.Short() {
		t.Skip("31-cycle daemon run")
	}
	const cycles = 31
	cfg := testConfig(9)
	cfg.TelescopeDir = filepath.Join(t.TempDir(), "telescope")
	l := New(cfg)
	if err := l.Run(context.Background(), cycles); err != nil {
		t.Fatal(err)
	}
	mux := NewMux(l.Publisher(), nil, l.Observatory())
	get := func(path string, wantStatus int) []byte {
		t.Helper()
		w := httptest.NewRecorder()
		mux.ServeHTTP(w, httptest.NewRequest(http.MethodGet, path, nil))
		if w.Code != wantStatus {
			t.Fatalf("GET %s: status %d (want %d): %s", path, w.Code, wantStatus, w.Body.String())
		}
		return w.Body.Bytes()
	}

	var cat tsdb.Catalog
	if err := json.Unmarshal(get("/api/timeseries", http.StatusOK), &cat); err != nil {
		t.Fatal(err)
	}
	if cat.LastCycle != cycles-1 {
		t.Errorf("catalog last_cycle = %d, want %d", cat.LastCycle, cycles-1)
	}
	streams := map[string]bool{}
	for _, s := range cat.Series {
		streams[s.Stream] = true
	}
	if !streams["sim"] || !streams["wall"] {
		t.Errorf("catalog streams = %v, want both sim and wall", streams)
	}

	var res tsdb.Result
	if err := json.Unmarshal(get("/api/timeseries?metric=serve.trend.attack_events&from=0", http.StatusOK), &res); err != nil {
		t.Fatal(err)
	}
	if len(res.Series) != 1 || len(res.Series[0].Points) != cycles {
		t.Fatalf("trend query returned %d series / %d points, want 1 / %d",
			len(res.Series), pointCount(res), cycles)
	}

	if err := json.Unmarshal(get("/api/timeseries?metric=serve.trend.attack_events&tier=rollup", http.StatusOK), &res); err != nil {
		t.Fatal(err)
	}
	if len(res.Series) != 1 || len(res.Series[0].Buckets) != 2 {
		t.Fatalf("rollup query returned %d series / %d buckets, want 1 / 2 (completed [0..29] + active [30])",
			len(res.Series), bucketCount(res))
	}
	if b := res.Series[0].Buckets[0]; b.Start != 0 || b.Count != 30 {
		t.Errorf("first rollup bucket = start %d count %d, want start 0 count 30", b.Start, b.Count)
	}

	// Wall-stream fallback: leg attribution lives in the wall store but is
	// reachable through the same endpoint.
	if err := json.Unmarshal(get("/api/timeseries?metric=serve.cycle.leg_wall_ns", http.StatusOK), &res); err != nil {
		t.Fatal(err)
	}
	if len(res.Series) == 0 {
		t.Error("no leg attribution series from the wall stream")
	}

	prom := get("/api/timeseries?metric=serve.trend.attack_events&from=0&format=prom", http.StatusOK)
	if !bytes.HasPrefix(prom, []byte("# TYPE serve_trend_attack_events gauge\n")) {
		t.Errorf("prom export missing TYPE header: %.80s", prom)
	}
	if got := bytes.Count(prom, []byte("\n")); got != cycles+1 {
		t.Errorf("prom export has %d lines, want %d", got, cycles+1)
	}

	get("/api/timeseries?metric=x&tier=bogus", http.StatusBadRequest)
	get("/api/timeseries?metric=x&label=nocolon", http.StatusBadRequest)

	var status struct {
		Ops *OpsStatus `json:"ops"`
	}
	if err := json.Unmarshal(get("/api/status", http.StatusOK), &status); err != nil {
		t.Fatal(err)
	}
	if status.Ops == nil {
		t.Fatal("/api/status has no ops block")
	}
	if status.Ops.CyclesCompleted != cycles || status.Ops.TSDBSeries == 0 || status.Ops.LastCycleWallNS <= 0 {
		t.Errorf("ops block = %+v, want cycles_completed=%d and live tsdb/wall figures", status.Ops, cycles)
	}
	if len(status.Ops.LegWallNS) == 0 {
		t.Error("ops block has no per-leg wall attribution")
	}

	// The hourly telescope capture directory fills as cycles drain.
	names, err := filepath.Glob(filepath.Join(cfg.TelescopeDir, "day*-hour*.ft"))
	if err != nil {
		t.Fatal(err)
	}
	if len(names) == 0 {
		t.Error("no hourly telescope capture files written")
	}
	if got := len(l.TelescopeFiles()); got != len(names) {
		t.Errorf("loop tracked %d telescope file digests, %d files on disk", got, len(names))
	}
}

func pointCount(r tsdb.Result) int {
	n := 0
	for _, s := range r.Series {
		n += len(s.Points)
	}
	return n
}

func bucketCount(r tsdb.Result) int {
	n := 0
	for _, s := range r.Series {
		n += len(s.Buckets)
	}
	return n
}

// BenchmarkServeCycle measures one full daemon cycle (all three legs plus the
// observatory samples) on the small test world.
func BenchmarkServeCycle(b *testing.B) {
	cfg := testConfig(9)
	l := New(cfg)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := l.runCycle(); err != nil {
			b.Fatal(err)
		}
	}
}

// TestCycleSpanCoversTheCycle requires the cycle span to attribute the whole
// cycle: a month leg on the cycles that build the month world, a publish leg
// for the rendered bodies after the commit, and a status body that reports
// the span of the cycle it publishes.
func TestCycleSpanCoversTheCycle(t *testing.T) {
	cfg := testConfig(3)
	var l *Loop
	var got [][]string
	cfg.OnPublish = func(s *Published) {
		legs, total := l.Observatory().LastCycleWall()
		var names []string
		for _, leg := range legs {
			names = append(names, leg.Name)
		}
		got = append(got, names)
		var status struct {
			Ops *OpsStatus `json:"ops"`
		}
		if err := json.Unmarshal(s.Status, &status); err != nil {
			t.Fatal(err)
		}
		if status.Ops.LastCycleWallNS != total.Nanoseconds() || status.Ops.LegWallNS["publish"] != legs[len(legs)-1].WallNS {
			t.Errorf("cycle %d: status reports %+v, the finished span %v over %+v", s.Watermark.Cycle, status.Ops, total, legs)
		}
	}
	l = New(cfg)
	if err := l.Run(context.Background(), 2); err != nil {
		t.Fatal(err)
	}
	want := [][]string{
		{"month", "campaign", "telescope", "honeypots", "scan", "commit", "publish"},
		{"campaign", "telescope", "honeypots", "scan", "commit", "publish"},
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("cycle legs %v, want %v", got, want)
	}
}
