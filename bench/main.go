// Command openhire-bench is the repository's benchmark: five workloads that
// drive the layers' public functions in-process, end-to-end metrics with
// tracing off and a per-layer breakdown from a separate traced run, output
// checks, and a comparison tool for two sets of results. README.md has the
// tables; BENCHMARK.json at the repository root is the contract.
//
// Usage:
//
//	openhire-bench -workload NAME [-seed N] [-seconds S] [-trace 0|1]
//	openhire-bench -all [-seed N] [-seconds S] [-repeat N] [-out FILE]
//	openhire-bench -compare A.json B.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"openhire/internal/netsim"
)

// processStart is as close to process start as a Go program can read.
var processStart = time.Now()

// ceilingSlack is how long a run may take beyond its measuring time (set-up,
// the overrun to the next month end, restores) before it fails rather than
// print numbers from a run that did not fit. Runs take 12-22 s at the default
// 10 s; the issue's 25 s ceiling was hit by serve_durable (25.8 s) in a
// minute when the host's disk and CPUs were both slow, so it is 40 s.
const ceilingSlack = 30 * time.Second

// How often a workload sets up (see setUp).
const (
	minSetups   = 3
	maxSetups   = 25
	setupBudget = time.Second
)

// config sizes one run. The zero-argument defaults are the binaries' own
// (/14 universe, boost 16, intensity 1/16, scale 1/8192); only the tests
// shrink them.
type config struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool

	// prefix is the scanned universe.
	prefix netsim.Prefix
	// maxOps, when > 0, ends the timed window after that many operations
	// regardless of the clock or of month boundaries (tests only).
	maxOps int
	// captureScale is telescope_capture's darknet volume scale.
	captureScale float64
	// restores is how many cold restores serve_durable times.
	restores int
	// tmpBase is where temporary directories are created.
	tmpBase string
}

func defaultConfig() config {
	return config{
		seed:         2021,
		seconds:      10,
		prefix:       netsim.MustParsePrefix("100.0.0.0/14"),
		captureScale: 1.0 / 128,
		restores:     5,
		tmpBase:      filepath.Join(".bench_build", "tmp"),
	}
}

// workload is one named set of inputs.
type workload struct {
	name string
	why  string
	run  func(*run) error
}

// workloads lists the five in the order -all runs them. The why strings are
// BENCHMARK.json's.
var workloads = []workload{
	{"report_default", "Batch user: build the default world, run and render all 18 experiments; two bulk scans are ~75% of a pass, serve/checkpoint/tsdb do nothing.", runReport},
	{"serve_month", "Daemon steady state in memory: day cycles with month reseeds; campaign rebuild, segmented scan, telescope and honeypot re-fold dominate, commit ~0.", func(r *run) error { return runServe(r, serveMonth) }},
	{"serve_durable", "Same loop with checkpoint and hourly capture files: commit is >=40% of the wall and the hour files another third, then cold restores of the largest checkpoint.", func(r *run) error { return runServe(r, serveDurable) }},
	{"serve_scrape", "Same loop while one keep-alive client runs a paced closed loop at 400 req/s over eight API endpoints; the operation is one round of the eight.", func(r *run) error { return runServe(r, serveScrape) }},
	{"telescope_capture", "Darknet at scale 1/128 (~671K flows/day): generate, drain, partition, aggregate, encode to a file and parse back; telescope and darknet do all the work.", runTelescope},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// run is the state of one workload run: what it measured, what it checked,
// and what it must clean up.
type run struct {
	cfg config
	tr  *tracer

	measured map[string]float64
	// info holds non-numeric results (digests, where the checkpoint
	// directory lives) printed as "info KEY VALUE" lines before the result.
	info map[string]string

	attempted, failed int

	mu      sync.Mutex
	tmpDirs []string
}

func newRun(cfg config) *run {
	r := &run{cfg: cfg, measured: make(map[string]float64), info: make(map[string]string)}
	if cfg.trace {
		r.tr = newTracer(processStart)
	}
	return r
}

func (r *run) set(name string, v float64) { r.measured[name] = v }

// check counts one output check and reports a failed one on standard error.
func (r *run) check(ok bool, format string, args ...any) {
	r.attempted++
	if !ok {
		r.failed++
		fmt.Fprintf(os.Stderr, "check failed: "+format+"\n", args...)
	}
}

// tempDir creates a directory under cfg.tmpBase that cleanup removes.
func (r *run) tempDir(pattern string) (string, error) {
	if err := os.MkdirAll(r.cfg.tmpBase, 0o755); err != nil {
		return "", err
	}
	dir, err := os.MkdirTemp(r.cfg.tmpBase, pattern)
	if err != nil {
		return "", err
	}
	r.mu.Lock()
	r.tmpDirs = append(r.tmpDirs, dir)
	r.mu.Unlock()
	return dir, nil
}

// cleanup removes every temporary directory; safe to call more than once and
// from the signal handler.
func (r *run) cleanup() {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, dir := range r.tmpDirs {
		_ = os.RemoveAll(dir)
	}
	r.tmpDirs = nil
}

// overCeiling fails a run that has outgrown its time budget.
func (r *run) overCeiling() error {
	limit := time.Duration(r.cfg.seconds*float64(time.Second)) + ceilingSlack
	if el := time.Since(processStart); el > limit {
		return fmt.Errorf("%s ran %.1fs, over its %.0fs ceiling: shrink -seconds, not the world",
			r.cfg.workload, el.Seconds(), limit.Seconds())
	}
	return nil
}

// setUp builds the workload's system several times and keeps the last
// instance: at least minSetups times and until setupBudget has been spent
// (so a 50 ms set-up is repeated often enough for a steady median), at most
// maxSetups. setup_s is the median build time, undisturbed (host.go), plus
// the process's own start-up. build returns the instance and a function
// that discards it.
func setUp[T any](r *run, build func(unit int) (T, func(), error)) (T, error) {
	startup := time.Since(processStart)
	var (
		inst    T
		discard func()
		durs    []float64
		begin   = time.Now()
		from    = readHostMark()
	)
	for len(durs) < minSetups || (len(durs) < maxSetups && time.Since(begin) < setupBudget) {
		if discard != nil {
			discard()
		}
		start := time.Now()
		var err error
		// Set-up units are numbered below zero so span totals can leave
		// them out.
		inst, discard, err = build(len(durs) - maxSetups)
		if err != nil {
			return inst, err
		}
		durs = append(durs, time.Since(start).Seconds())
		if r.cfg.maxOps > 0 {
			break // tests set up once
		}
	}
	r.set("setup_s", startup.Seconds()+median(durs)*undisturbed(from, readHostMark()))
	return inst, nil
}

// window is the timed part of a run, cut into blocks (a report pass, five
// serve cycles, a telescope day) so that what the host withheld (host.go) is
// taken out block by block, where it happened.
type window struct {
	r     *run
	start time.Time
	mem0  runtime.MemStats
	// marks[i] and marks[i+1] are the host clocks around block i; block is
	// the index of the open one, read by the scraper's goroutine.
	marks []hostMark
	block atomic.Int32
}

// sample is one timed duration in milliseconds and the block it fell in.
type sample struct {
	ms    float64
	block int
}

func (r *run) openWindow() *window {
	w := &window{r: r}
	runtime.ReadMemStats(&w.mem0)
	w.marks = []hostMark{readHostMark()}
	w.start = time.Now()
	return w
}

// sample stamps a duration with the open block.
func (w *window) sample(d time.Duration) sample {
	return sample{ms: ms(d.Nanoseconds()), block: int(w.block.Load())}
}

// endBlock closes the open block and opens the next.
func (w *window) endBlock() {
	w.marks = append(w.marks, readHostMark())
	w.block.Add(1)
}

// factors is each block's undisturbed share (host.go).
func (w *window) factors() []float64 {
	out := make([]float64, len(w.marks)-1)
	for i := range out {
		out[i] = undisturbed(w.marks[i], w.marks[i+1])
	}
	return out
}

// done reports whether the window should close after units passes, cycles or
// days. boundary says the workload is at a point where stopping keeps the
// sample mix fixed (a whole pass, a month end).
func (w *window) done(units int, boundary bool) (bool, error) {
	if err := w.r.overCeiling(); err != nil {
		return true, err
	}
	if n := w.r.cfg.maxOps; n > 0 {
		return units >= n, nil
	}
	return boundary && time.Since(w.start).Seconds() >= w.r.cfg.seconds, nil
}

// close derives the end-to-end metrics every workload shares. ops are the
// operations' latencies; units are the passes, cycles or days whose wall is
// the time the work took (the same samples, except on serve_scrape where the
// operation is a scrape round); work counts the work items done; heapLiveMB
// was read by liveHeapMB at a point the workload chose.
func (w *window) close(ops, units []sample, work, heapLiveMB float64) {
	w.endBlock()
	var mem1 runtime.MemStats
	runtime.ReadMemStats(&mem1)
	r := w.r
	factor := w.factors()
	scale := func(xs []sample, by []float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x.ms
			if by != nil {
				out[i] *= by[x.block]
			}
		}
		return out
	}
	lat, busy := scale(ops, factor), sum(scale(units, factor))/1e3
	rawLat, rawBusy := scale(ops, nil), sum(scale(units, nil))/1e3

	r.set("op_ms_p50", median(lat))
	r.set("op_ms_p90", percentile(lat, 90)) // per-layer: too unsteady to bound (README.md)
	r.set("work_per_s", ratio(work, busy))
	r.set("alloc_bytes_per_work", ratio(float64(mem1.TotalAlloc-w.mem0.TotalAlloc), work))
	r.set("heap_live_mb", heapLiveMB)

	first, last := w.marks[0], w.marks[len(w.marks)-1]
	r.set("host.steal_pct", 100*ratio(last.steal-first.steal, last.cpu-first.cpu+last.steal-first.steal))
	r.set("host.cpu_s_per_work", ratio(last.cpu-first.cpu, work))
	r.set("raw.op_ms_p50", median(rawLat))
	r.set("raw.op_ms_p90", percentile(rawLat, 90))
	r.set("raw.work_per_s", ratio(work, rawBusy))
	if r.tr != nil {
		// The same reading as op_ms_p50, under the name the traced run prints
		// it by: -all sets the two against each other as tracing overhead.
		r.set("trace.op_ms_p50", median(lat))
		r.set("trace.spans", float64(len(r.tr.spans)))
	}
	r.set("proc.mallocs_per_work", ratio(float64(mem1.Mallocs-w.mem0.Mallocs), work))
	r.set("proc.gc_count", float64(mem1.NumGC-w.mem0.NumGC))
	r.set("proc.gc_pause_ms", ms(int64(mem1.PauseTotalNs-w.mem0.PauseTotalNs)))
	r.set("proc.gomaxprocs", float64(runtime.GOMAXPROCS(0)))
	r.set("proc.peak_rss_mb", peakRSSMB())
	r.info["raw"] = fmt.Sprintf("steal_pct=%.2f,op_ms_p50=%.4g,op_ms_p90=%.4g,work_per_s=%.4g", r.measured["host.steal_pct"], median(rawLat), percentile(rawLat, 90), ratio(work, rawBusy))
}

// liveHeapMB is the heap still reachable after a collection. The second
// collection frees what the first only moved to the sync.Pool victim caches.
func liveHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	return float64(mem.HeapAlloc) / (1 << 20)
}

// peakRSSMB reads VmHWM from /proc/self/status (0 where there is none).
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024
		}
	}
	return 0
}

// execute runs one workload and returns the result object.
func execute(cfg config) (*run, *result, error) {
	wl, ok := findWorkload(cfg.workload)
	if !ok {
		names := make([]string, len(workloads))
		for i, w := range workloads {
			names[i] = w.name
		}
		return nil, nil, fmt.Errorf("unknown workload %q; known: %s", cfg.workload, strings.Join(names, " "))
	}
	r := newRun(cfg)
	defer r.cleanup()
	// A signal still removes the temporary directories before exiting.
	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	finished := make(chan struct{})
	go func() {
		select {
		case <-sigCh:
			r.cleanup()
			os.Exit(130)
		case <-finished:
		}
	}()
	defer func() {
		signal.Stop(sigCh)
		close(finished)
	}()

	if err := wl.run(r); err != nil {
		return r, nil, err
	}
	if err := r.overCeiling(); err != nil {
		return r, nil, err
	}
	if r.tr != nil {
		dir := filepath.Dir(cfg.tmpBase)
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return r, nil, err
		}
		path := filepath.Join(dir, "trace-"+cfg.workload+".json")
		if err := r.tr.writeFile(path); err != nil {
			return r, nil, err
		}
		r.info["trace_file"] = path
	}
	metrics, err := selectMetrics(r.measured, cfg.trace)
	if err != nil {
		return r, nil, err
	}
	return r, &result{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: metrics}, nil
}

func main() { os.Exit(realMain()) }

func realMain() int {
	cfg := defaultConfig()
	var (
		trace   = flag.Int("trace", 0, "1 records spans and prints the per-layer metrics; 0 prints the end-to-end ones")
		all     = flag.Bool("all", false, "run every workload, untraced then traced, each in its own process, and write one result set")
		repeat  = flag.Int("repeat", 1, "with -all: runs per workload and mode; the set keeps every run")
		out     = flag.String("out", "", "with -all: write the result set to this file (default: standard output)")
		compare = flag.Bool("compare", false, "compare two result sets given as arguments; exit 1 when an end-to-end metric is outside its bound")
	)
	flag.StringVar(&cfg.workload, "workload", "", "workload to run")
	flag.Uint64Var(&cfg.seed, "seed", cfg.seed, "seed for the world, the daemon and the scrape mix")
	flag.Float64Var(&cfg.seconds, "seconds", cfg.seconds, "how long the timed window measures")
	flag.StringVar(&cfg.tmpBase, "tmp", cfg.tmpBase, "where temporary directories (checkpoints, capture files) are created")
	flag.Parse()
	cfg.trace = *trace != 0

	switch {
	case *compare:
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "-compare needs two result-set files")
			return 2
		}
		return compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
	case *all:
		return runAll(cfg, *repeat, *out)
	case cfg.workload == "":
		flag.Usage()
		return 2
	}

	r, res, err := execute(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "openhire-bench:", err)
		return 1
	}
	for _, k := range sortedKeys(r.info) {
		fmt.Printf("info %s %s\n", k, r.info[k])
	}
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	}
	for _, d := range defs {
		fmt.Printf("%-34s %16.6g %s\n", d.Name, res.Metrics[d.Name].Value, d.Unit)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "openhire-bench:", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}
