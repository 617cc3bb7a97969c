package serve

import (
	"net/http"
	"net/http/pprof"
	"time"

	"openhire/internal/obs"
	"openhire/internal/obs/tsdb"
)

// NewMux builds the daemon's query mux:
//
//	/api/exposure   — per-protocol exposure tables (current / complete / total)
//	/api/trends     — the attack-trend time series, one row per simulated day
//	/api/correlate  — misconfiguration/attacker correlation join counts
//	/api/status     — watermark + resolved run parameters + ops health
//	/api/timeseries — the observatory: catalog without ?metric, range query
//	                  with (?metric=…&label=k:v&from=…&to=…&step=…&tier=…,
//	                  ?format=prom for Prometheus range text)
//	/metrics        — the obs registry (JSON, ?format=prom), when reg != nil
//	/debug/pprof/   — the standard pprof handlers
//
// Every /api handler serves pre-rendered bodies or immutable COW views — a
// pointer load, no locks, no live state — and answers 503 until the first
// cycle commits. Scrape traffic therefore cannot perturb the run: the
// zero-perturbation equivalence tests hammer these endpoints while a cycle
// loop runs and assert byte-identical artifacts. When obsv != nil, handler
// latency is sampled into the wall-clock profiling stream (atomics only —
// never sim state).
func NewMux(p *Publisher, reg *obs.Registry, obsv *Observatory) *http.ServeMux {
	mux := http.NewServeMux()
	handle := func(pattern string, h http.HandlerFunc) {
		mux.HandleFunc(pattern, timed(obsv, h))
	}
	handle("/api/exposure", snapshotHandler(p, func(s *Published) []byte { return s.Exposure }))
	handle("/api/trends", snapshotHandler(p, func(s *Published) []byte { return s.Trends }))
	handle("/api/correlate", snapshotHandler(p, func(s *Published) []byte { return s.Correlate }))
	handle("/api/status", snapshotHandler(p, func(s *Published) []byte { return s.Status }))
	if obsv != nil {
		handle("/api/timeseries", timeseriesHandler(p, obsv))
	}
	if reg != nil {
		mux.HandleFunc("/metrics", reg.MetricsHandler())
	}
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// timed samples handler wall latency into the observatory's profiling stream.
func timed(obsv *Observatory, h http.HandlerFunc) http.HandlerFunc {
	if obsv == nil {
		return h
	}
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		h(w, r)
		obsv.ObserveRequest(time.Since(start))
	}
}

// snapshotHandler serves one pre-rendered body from the current snapshot.
func snapshotHandler(p *Publisher, body func(*Published) []byte) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		s := p.Snapshot()
		if s == nil {
			http.Error(w, "no cycle committed yet", http.StatusServiceUnavailable)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write(body(s))
	}
}

// timeseriesHandler answers observatory queries from the published COW views.
// Without ?metric it returns the merged sim+wall catalog; with one it queries
// the sim stream first and falls back to the wall stream, so a metric name is
// enough — callers never say which store a series lives in.
func timeseriesHandler(p *Publisher, obsv *Observatory) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if p.Snapshot() == nil {
			http.Error(w, "no cycle committed yet", http.StatusServiceUnavailable)
			return
		}
		q, err := tsdb.ParseQuery(r.URL.Query())
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		sim, wall := obsv.Sim.View(), obsv.Wall.View()
		if q.Metric == "" {
			writeJSON(w, sim.Catalog("sim").Merge(wall.Catalog("wall")))
			return
		}
		res := sim.Query(q)
		if len(res.Series) == 0 {
			if wr := wall.Query(q); len(wr.Series) > 0 {
				res = wr
			}
		}
		if r.URL.Query().Get("format") == "prom" {
			w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
			_ = res.WritePrometheus(w)
			return
		}
		writeJSON(w, res)
	}
}

// writeJSON renders v like the pre-rendered bodies: indented, newline-
// terminated.
func writeJSON(w http.ResponseWriter, v any) {
	data, err := marshalBody(v)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_, _ = w.Write(data)
}
