package serve

import (
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"sync/atomic"
	"time"

	"openhire/internal/attack"
	"openhire/internal/checkpoint/atomicio"
	"openhire/internal/checkpoint/crashpoint"
	"openhire/internal/core/scan"
	"openhire/internal/obs"
	"openhire/internal/obs/tsdb"
)

// Observatory is the daemon's time-series store pair plus the wall-clock
// self-profiling instruments. The two streams are strictly separated:
//
//   - Sim holds series that are pure functions of (seed, config, cycle) —
//     exposure counts per protocol, attack trend rows, telescope hourly
//     buckets, scan/breaker counters. Its marshaled state is byte-identical
//     across runs, worker counts and kill/resume, rides the serve checkpoint,
//     and is what the determinism gates compare.
//   - Wall holds self-profiling series — per-leg cycle durations from
//     obs.CycleSpan, GC/heap deltas from runtime.ReadMemStats, API request
//     latency — which are explicitly excluded from manifests, checkpoint
//     digests and every determinism guarantee.
//
// Both stores are appended only by the single-threaded cycle driver at
// commit; API handlers read their published COW views.
type Observatory struct {
	Sim  *tsdb.DB
	Wall *tsdb.DB

	// apiReqs/apiLatSum/apiLatMax accumulate API request latency. Handlers
	// update them with atomics from arbitrary goroutines; the driver samples
	// them into Wall at each commit.
	apiReqs   atomic.Uint64
	apiLatSum atomic.Int64
	apiLatMax atomic.Int64

	prevMem    runtime.MemStats
	havePrev   bool
	lastLegs   []obs.CycleLeg
	lastTotal  time.Duration
	sampleWall bool
}

// newObservatory builds the store pair for the resolved config. Returns nil
// when the tsdb is disabled — every method is nil-safe, so the loop threads
// it unconditionally.
func newObservatory(cfg Config) *Observatory {
	if cfg.TSDBDisabled {
		return nil
	}
	opt := tsdb.Options{RawCapacity: cfg.TSDBRetention}
	return &Observatory{
		Sim:        tsdb.New(opt),
		Wall:       tsdb.New(opt),
		sampleWall: true,
	}
}

// Retention returns the raw retention window in cycles (0 when disabled).
func (o *Observatory) Retention() int {
	if o == nil {
		return 0
	}
	return o.Sim.Options().RawCapacity
}

// SeriesCount returns the sim-stream series count.
func (o *Observatory) SeriesCount() int {
	if o == nil {
		return 0
	}
	return len(o.Sim.View().Series())
}

// ObserveRequest records one API request's wall latency (handler-side,
// concurrent). It touches only the wall-stream atomics, never sim state.
func (o *Observatory) ObserveRequest(d time.Duration) {
	if o == nil {
		return
	}
	ns := d.Nanoseconds()
	if ns < 0 {
		ns = 0
	}
	o.apiReqs.Add(1)
	o.apiLatSum.Add(ns)
	for {
		cur := o.apiLatMax.Load()
		if ns <= cur || o.apiLatMax.CompareAndSwap(cur, ns) {
			return
		}
	}
}

// appendSim samples the deterministic stream for the just-completed cycle
// cyc (the day index) from the aggregate state. Driver-thread only; the
// caller publishes afterwards.
func (o *Observatory) appendSim(cyc int64, a *Aggregates, scanInFlight map[string]uint64) {
	if o == nil {
		return
	}
	if d := int(cyc); d >= 0 && d < len(a.Trends.Days) {
		row := a.Trends.Days[d]
		o.Sim.Append(cyc, "serve.trend.attack_events", nil, float64(row.AttackEvents))
		o.Sim.Append(cyc, "serve.trend.attack_sources", nil, float64(row.AttackSources))
		o.Sim.Append(cyc, "serve.trend.telescope_flows", nil, float64(row.TelescopeFlows))
		o.Sim.Append(cyc, "serve.trend.telescope_packets", nil, float64(row.TelescopePackets))
		for h, pkts := range row.HourlyPackets {
			o.Sim.Append(cyc, "serve.telescope.hourly_packets",
				tsdb.Labels{{Key: "hour", Value: fmt.Sprintf("%02d", h)}}, float64(pkts))
		}
	}
	// Exposure: cumulative per-protocol counts across finished sweeps plus
	// the in-flight one, keyed like Table 4/5.
	for _, proto := range sortedKeys(a.Exposure.Total, a.Exposure.Current) {
		var targets, responded, misconfigured uint64
		for _, e := range [...]*ProtocolExposure{a.Exposure.Total[proto], a.Exposure.Current[proto]} {
			if e != nil {
				targets += e.Targets
				responded += e.Responded
				misconfigured += e.Misconfigured
			}
		}
		lbl := tsdb.Labels{{Key: "protocol", Value: proto}}
		o.Sim.Append(cyc, "serve.exposure.targets", lbl, float64(targets))
		o.Sim.Append(cyc, "serve.exposure.responded", lbl, float64(responded))
		o.Sim.Append(cyc, "serve.exposure.misconfigured", lbl, float64(misconfigured))
	}
	// Scan/breaker counters: finished sweeps' fold plus the in-flight
	// segmented state's deterministic stat shards.
	for _, name := range sortedKeys(a.ScanStats, scanInFlight) {
		o.Sim.Append(cyc, "serve.scan."+name, nil, float64(a.ScanStats[name]+scanInFlight[name]))
	}
	o.Sim.Append(cyc, "serve.watermark.targets_fed", nil, float64(a.TargetsFed))
	o.Sim.Append(cyc, "serve.watermark.sweeps_complete", nil, float64(a.Exposure.SweepsComplete))
}

// appendWall samples the self-profiling stream for cycle cyc: per-leg wall
// attribution, runtime memory/GC deltas, and the API latency accumulators.
func (o *Observatory) appendWall(cyc int64, legs []obs.CycleLeg, total time.Duration) {
	if o == nil || !o.sampleWall {
		return
	}
	o.lastLegs, o.lastTotal = legs, total
	for _, leg := range legs {
		o.Wall.Append(cyc, "serve.cycle.leg_wall_ns",
			tsdb.Labels{{Key: "leg", Value: leg.Name}}, float64(leg.WallNS))
	}
	o.Wall.Append(cyc, "serve.cycle.wall_ns", nil, float64(total.Nanoseconds()))

	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	o.Wall.Append(cyc, "runtime.heap_alloc_bytes", nil, float64(ms.HeapAlloc))
	if o.havePrev {
		o.Wall.Append(cyc, "runtime.gc_pause_delta_ns", nil, float64(ms.PauseTotalNs-o.prevMem.PauseTotalNs))
		o.Wall.Append(cyc, "runtime.gc_count_delta", nil, float64(ms.NumGC-o.prevMem.NumGC))
	} else {
		o.Wall.Append(cyc, "runtime.gc_pause_delta_ns", nil, float64(ms.PauseTotalNs))
		o.Wall.Append(cyc, "runtime.gc_count_delta", nil, float64(ms.NumGC))
	}
	o.prevMem, o.havePrev = ms, true

	o.Wall.Append(cyc, "serve.api.requests", nil, float64(o.apiReqs.Load()))
	o.Wall.Append(cyc, "serve.api.latency_sum_ns", nil, float64(o.apiLatSum.Load()))
	o.Wall.Append(cyc, "serve.api.latency_max_ns", nil, float64(o.apiLatMax.Load()))
}

// LastCycleWall returns the most recent cycle's leg attribution for the
// /api/status ops block.
func (o *Observatory) LastCycleWall() ([]obs.CycleLeg, time.Duration) {
	if o == nil {
		return nil, 0
	}
	return o.lastLegs, o.lastTotal
}

// publish seals both streams' views.
func (o *Observatory) publish() {
	if o == nil {
		return
	}
	o.Sim.Publish()
	o.Wall.Publish()
}

// inflightScanStats flattens the in-flight sweep's per-module deterministic
// stat counters (nil state = between sweeps = no in-flight counters).
func inflightScanStats(st *scan.SegmentedState) map[string]uint64 {
	if st == nil {
		return nil
	}
	out := make(map[string]uint64)
	for _, m := range st.Modules {
		for name, v := range m.Stats.Counters() {
			out[name] += v
		}
	}
	return out
}

// sortedKeys merges and sorts the keys of maps (protocols of exposure
// tables, names of stat counters).
func sortedKeys[V any](ms ...map[string]V) []string {
	seen := make(map[string]bool)
	var out []string
	for _, m := range ms {
		for k := range m {
			if !seen[k] {
				seen[k] = true
				out = append(out, k)
			}
		}
	}
	sort.Strings(out)
	return out
}

// writeHourFiles persists the folded day's telescope capture, rotated hourly,
// under dir: dayNNNN-hourHH.ft, one file of binary FlowTuple records
// (openhire-telescope -parse reads it) per rotation bucket, content-digested
// for the manifest. Hour h's file is the units' encoded hour-h records in
// unit order, written straight from the units' buffers: the order
// Telescope.Drain gives a recorded day, restricted to the hour, so the bytes
// are worker-count and kill-history independent. The day's files are one
// durable group (atomicio.WriteGroup): digested, staged and fsynced
// concurrently, then renamed, with one directory sync before this returns —
// so a digest reaches digests, and through it the checkpoint, only once every
// file and every rename of the day is durable.
func writeHourFiles(dir string, cyc int, units []attack.UnitFold, digests map[string]string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	var names [24]string
	for h := range names {
		names[h] = fmt.Sprintf("day%04d-hour%02d.ft", cyc, h)
	}
	var sums [24]string
	err := atomicio.WriteGroup(dir, names[:], func(h int, w io.Writer) error {
		dw := obs.NewDigestWriter()
		for i := range units {
			rec := units[i].Hours[h]
			if _, err := w.Write(rec); err != nil {
				return err
			}
			_, _ = dw.Write(rec) // a hash never fails
		}
		sums[h] = dw.Sum()
		return nil
	})
	if err != nil {
		return err
	}
	for h, name := range names {
		digests[name] = sums[h]
		crashpoint.Here(crashpoint.SiteServeHourFileWritten)
	}
	return nil
}
