// Package obs is the pipeline's observability layer: a deterministic metrics
// registry, simulated-time spans over pipeline phases, a progress reporter
// for long runs, JSON run manifests, and optional expvar/pprof debug
// endpoints for the cmd/ binaries.
//
// The layer is built around one invariant: **zero perturbation**. Metrics are
// collected from state the pipeline already maintains (per-worker stat
// shards, the drained event log, day-boundary callbacks) after the hot path
// has finished with it; nothing in this package ever adds shared mutable
// state to a probe, flow or event loop. An instrumented run is byte-identical to an
// uninstrumented one — the equivalence tests under `make check` enforce it —
// and every value in the registry is a pure function of (seed, config), so
// manifests from two runs of the same build diff clean.
package obs

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"sync"
	"time"
)

// Registry holds named counters, gauges and simulated-time histograms. It is
// safe for concurrent use, but it is designed to be written from phase
// boundaries and post-run summaries, never from per-probe hot paths: the
// values come from the per-worker shards and event logs the pipeline
// already keeps, so attaching a Registry cannot change scheduling or output.
//
// A nil *Registry is a valid no-op sink: every method short-circuits, which
// lets library code thread an optional registry without nil checks at every
// call site.
type Registry struct {
	mu       sync.Mutex
	counters map[string]uint64
	gauges   map[string]float64
	hists    map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]uint64),
		gauges:   make(map[string]float64),
		hists:    make(map[string]*Histogram),
	}
}

// Add increments the named counter by v.
func (r *Registry) Add(name string, v uint64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.counters[name] += v
	r.mu.Unlock()
}

// AddAll merges a counter map under a name prefix ("scan.telnet" +
// ".probed"), the bridge from the per-leg Counters() snapshots to one
// registry.
func (r *Registry) AddAll(prefix string, counters map[string]uint64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	for k, v := range counters {
		r.counters[prefix+"."+k] += v
	}
	r.mu.Unlock()
}

// SetGauge records the named gauge's current value.
func (r *Registry) SetGauge(name string, v float64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.gauges[name] = v
	r.mu.Unlock()
}

// Observe adds one simulated duration to the named histogram, creating it
// with DefaultBuckets on first use.
func (r *Registry) Observe(name string, d time.Duration) {
	if r == nil {
		return
	}
	r.mu.Lock()
	h, ok := r.hists[name]
	if !ok {
		h = NewHistogram(DefaultBuckets)
		r.hists[name] = h
	}
	r.mu.Unlock()
	h.Observe(d)
}

// Counter returns the named counter's current value (0 if absent).
func (r *Registry) Counter(name string) uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.counters[name]
}

// Snapshot is a point-in-time copy of a registry with deterministic
// ordering: encoding/json sorts map keys, so two snapshots of equal
// registries marshal byte-identically.
type Snapshot struct {
	Counters   map[string]uint64            `json:"counters,omitempty"`
	Gauges     map[string]float64           `json:"gauges,omitempty"`
	Histograms map[string]HistogramSnapshot `json:"histograms,omitempty"`
}

// Snapshot copies the registry's current contents.
func (r *Registry) Snapshot() Snapshot {
	var s Snapshot
	if r == nil {
		return s
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.counters) > 0 {
		s.Counters = make(map[string]uint64, len(r.counters))
		for k, v := range r.counters {
			s.Counters[k] = v
		}
	}
	if len(r.gauges) > 0 {
		s.Gauges = make(map[string]float64, len(r.gauges))
		for k, v := range r.gauges {
			s.Gauges[k] = v
		}
	}
	if len(r.hists) > 0 {
		s.Histograms = make(map[string]HistogramSnapshot, len(r.hists))
		for k, h := range r.hists {
			s.Histograms[k] = h.Snapshot()
		}
	}
	return s
}

// MetricsHandler returns the /metrics endpoint handler — JSON by default,
// Prometheus text with ?format=prom — for callers that mount the registry on
// their own mux (the serve daemon's query API) instead of going through
// Serve. The handler reads snapshots only, so arbitrary scrape traffic
// cannot perturb the pipeline feeding the registry.
func (r *Registry) MetricsHandler() http.HandlerFunc {
	return r.handler
}

// handler serves the registry — the /metrics endpoint. The default body is
// indented JSON; ?format=prom switches to the Prometheus text exposition
// format for scrapers.
func (r *Registry) handler(w http.ResponseWriter, req *http.Request) {
	s := r.Snapshot()
	if req != nil && req.URL.Query().Get("format") == "prom" {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = s.WritePrometheus(w)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(s)
}

// DefaultBuckets are the fixed simulated-time histogram boundaries:
// logarithmic from 1ms to a full simulated day. Fixed boundaries (rather
// than adaptive ones) keep two runs' histograms structurally identical, so
// manifests diff bucket-for-bucket across PRs.
var DefaultBuckets = []time.Duration{
	time.Millisecond,
	10 * time.Millisecond,
	100 * time.Millisecond,
	time.Second,
	10 * time.Second,
	time.Minute,
	10 * time.Minute,
	time.Hour,
	6 * time.Hour,
	24 * time.Hour,
}

// Histogram counts simulated durations into fixed buckets. Observations are
// mutex-guarded; histograms are fed from phase boundaries and post-run
// walks, not per-probe code.
type Histogram struct {
	mu      sync.Mutex
	bounds  []time.Duration
	counts  []uint64 // len(bounds)+1; last is overflow
	total   uint64
	sumSim  time.Duration
	maxSeen time.Duration
}

// NewHistogram builds a histogram with the given ascending bucket upper
// bounds. It panics if bounds is empty or unsorted: bucket layout is part of
// the manifest schema and must be fixed at construction.
func NewHistogram(bounds []time.Duration) *Histogram {
	if len(bounds) == 0 {
		panic("obs: histogram needs at least one bucket bound")
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("obs: histogram bounds not ascending at %d", i))
		}
	}
	b := make([]time.Duration, len(bounds))
	copy(b, bounds)
	return &Histogram{bounds: b, counts: make([]uint64, len(b)+1)}
}

// Observe adds one duration. A value lands in the first bucket whose upper
// bound is >= d; values beyond every bound land in the overflow bucket.
// Negative durations clamp to zero: a misbehaving caller (a clock stepping
// backwards, a subtraction in the wrong order) would otherwise land in
// bucket 0 while silently dragging sumSim down and skewing maxSeen, leaving
// a manifest whose _sum no longer reconciles with its buckets.
func (h *Histogram) Observe(d time.Duration) {
	if d < 0 {
		d = 0
	}
	idx := sort.Search(len(h.bounds), func(i int) bool { return h.bounds[i] >= d })
	h.mu.Lock()
	h.counts[idx]++
	h.total++
	h.sumSim += d
	if d > h.maxSeen {
		h.maxSeen = d
	}
	h.mu.Unlock()
}

// HistogramSnapshot is the JSON form of one histogram: parallel bound/count
// slices (bounds in nanoseconds, the final implicit bound rendered as
// "+Inf" by its absence), plus total/sum/max for quick reconciliation.
type HistogramSnapshot struct {
	BoundsNS []int64  `json:"bounds_ns"`
	Counts   []uint64 `json:"counts"`
	Total    uint64   `json:"total"`
	SumNS    int64    `json:"sum_ns"`
	MaxNS    int64    `json:"max_ns"`
}

// Snapshot copies the histogram's current state.
func (h *Histogram) Snapshot() HistogramSnapshot {
	h.mu.Lock()
	defer h.mu.Unlock()
	s := HistogramSnapshot{
		BoundsNS: make([]int64, len(h.bounds)),
		Counts:   make([]uint64, len(h.counts)),
		Total:    h.total,
		SumNS:    int64(h.sumSim),
		MaxNS:    int64(h.maxSeen),
	}
	for i, b := range h.bounds {
		s.BoundsNS[i] = int64(b)
	}
	copy(s.Counts, h.counts)
	return s
}
