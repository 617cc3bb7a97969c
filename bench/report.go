package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"io"
	"runtime"
	"time"

	"openhire/internal/core/report"
	"openhire/internal/expr"
	"openhire/internal/netsim"
)

// reportExperiments is how many artifacts one pass must produce.
const reportExperiments = 18

// netsimCalls is how many SynProbe and Query calls the traced run times.
const netsimCalls = 1_000_000

// passResult is what one report pass produced.
type passResult struct {
	world  *expr.World
	digest string
	// bytes is the rendered size; artifacts counts the non-empty ones.
	bytes     int64
	artifacts int
}

// countingWriter counts the bytes written through it to w.
type countingWriter struct {
	w io.Writer
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}

// phase is one lazily executed World phase and the span it is traced under.
type phase struct {
	span  string
	force func(*expr.World)
}

// phasesBefore lists the world phases an experiment is the first to force.
// The pass calls them itself, in the order the experiment would, just before
// the experiment runs: the work and its order are those of openhire-report
// (bench_test.go pins the digest against a plain loop), but each phase gets
// a span of its own and the experiment's span keeps only its own work.
var phasesBefore = map[string][]phase{
	"table4": {
		{"scan.run", func(w *expr.World) { w.RunScan() }},
		{"datasets.sonar", func(w *expr.World) { w.Sonar() }},
		{"datasets.shodan", func(w *expr.World) { w.Shodan() }},
	},
	"table5": {
		{"fingerprint.filter", func(w *expr.World) { w.FilterHoneypots() }},
		{"classify.run", func(w *expr.World) { w.Classify() }},
	},
	"table7":   {{"attack.month", func(w *expr.World) { w.RunAttackMonth() }}},
	"table8":   {{"report.telescope", func(w *expr.World) { w.RunTelescope() }}},
	"headline": {{"datasets.censys", func(w *expr.World) { w.PopulateCensys() }}},
}

// reportPass does what cmd/openhire-report does for one seed: build the
// world, run every experiment in order, render each artifact and its
// comparisons. The world is fresh every pass, never expr.Shared().
func reportPass(r *run, unit int) passResult {
	tr := r.tr
	root := tr.begin("report.pass", -1, unit)
	cfg := expr.DefaultConfig()
	cfg.Seed = r.cfg.seed
	cfg.UniversePrefix = r.cfg.prefix

	var world *expr.World
	tr.in("expr.build_world", root, unit, func() { world = expr.BuildWorld(cfg) })

	out := &countingWriter{w: io.Discard}
	digest := sha256.New()
	res := passResult{world: world}
	for _, e := range expr.All() {
		for _, ph := range phasesBefore[e.ID] {
			tr.in(ph.span, root, unit, func() { ph.force(world) })
		}
		var result expr.Result
		tr.in("expr."+e.ID, root, unit, func() { result = e.Run(world) })
		tr.in("report.render", root, unit, func() { render(out, digest, e, result) })
		if result.Artifact != "" {
			res.artifacts++
		}
	}
	tr.end(root)
	res.digest = hex.EncodeToString(digest.Sum(nil))
	res.bytes = out.n
	return res
}

// render prints one experiment as openhire-report does and feeds the digest
// with the artifact and the comparison values.
func render(out io.Writer, digest hash.Hash, e expr.Experiment, res expr.Result) {
	fmt.Fprintf(out, "\n================ %s — %s ================\n\n", e.ID, e.Title)
	fmt.Fprintln(out, res.Artifact)
	if len(res.Comparisons) > 0 {
		_ = report.RenderComparisons(out, "paper vs measured", res.Comparisons)
	}
	fmt.Fprintf(digest, "%s\n%s\n%v\n", e.ID, res.Artifact, res.Comparisons)
}

func runReport(r *run) error {
	var cold time.Duration
	first, err := setUp(r, func(unit int) (passResult, func(), error) {
		start := time.Now()
		res := reportPass(r, unit)
		if cold == 0 {
			cold = time.Since(start)
		}
		return res, func() {}, nil
	})
	if err != nil {
		return err
	}
	r.set("report.cold_pass_s", cold.Seconds())

	w := r.openWindow()
	var (
		ops  []sample
		last = first
	)
	for {
		start := time.Now()
		last = reportPass(r, len(ops))
		ops = append(ops, w.sample(time.Since(start)))
		r.check(last.digest == first.digest, "pass %d digest %s differs from the first pass's %s", len(ops), last.digest, first.digest)
		r.check(last.artifacts == reportExperiments, "pass %d produced %d non-empty artifacts, want %d", len(ops), last.artifacts, reportExperiments)
		checkScanConservation(r, last.world)
		w.endBlock()
		if stop, err := w.done(len(ops), true); err != nil {
			return err
		} else if stop {
			break
		}
	}
	w.close(ops, ops, float64(len(ops)*reportExperiments), liveHeapMB())
	runtime.KeepAlive(last.world)
	r.info["report_sha256"] = last.digest

	if r.tr != nil {
		reportLayers(r, last, len(ops))
	}
	return nil
}

// checkScanConservation asserts every transmission landed in exactly one
// outcome, per protocol.
func checkScanConservation(r *run, w *expr.World) {
	_, stats := w.RunScan() // cached
	for proto, st := range stats {
		r.check(st.Probed == st.Responded+st.Timeouts+st.Resets+st.Partials+st.Negatives,
			"scan %s: probed %d is not the sum of its outcomes", proto, st.Probed)
	}
}

// reportLayers turns the timed passes' spans into per-pass means.
func reportLayers(r *run, last passResult, passes int) {
	n := float64(passes)
	tot := r.tr.totalsFrom(0)
	per := func(name string) float64 { return ms(tot[name]) / n }

	_, stats := last.world.RunScan()
	var probes, responded uint64
	for _, st := range stats {
		probes += st.Probed
		responded += st.Responded
	}
	r.set("scan.run_ms", per("scan.run"))
	r.set("scan.probes", float64(probes))
	r.set("scan.responded", float64(responded))
	r.set("scan.probe_ns", ratio(per("scan.run")*1e6, float64(probes)))
	r.set("scan.useful_ratio", ratio(float64(responded), float64(probes)))
	r.set("expr.table6_ms", per("expr.table6"))
	r.set("report.scan_share", ratio(per("scan.run")+per("expr.table6"), per("report.pass")))

	r.set("expr.build_world_ms", per("expr.build_world"))
	r.set("fingerprint.filter_ms", per("fingerprint.filter"))
	_, dets := last.world.FilterHoneypots()
	r.set("fingerprint.detections", float64(len(dets)))
	r.set("classify.run_ms", per("classify.run"))
	findings, _ := last.world.Classify()
	r.set("classify.findings", float64(len(findings)))
	r.set("datasets.sonar_ms", per("datasets.sonar"))
	r.set("datasets.shodan_ms", per("datasets.shodan"))
	r.set("datasets.censys_ms", per("datasets.censys"))
	r.set("attack.month_ms", per("attack.month"))
	attackStats := last.world.RunAttackMonth()
	r.set("attack.events_run", float64(attackStats.EventsRun))
	r.set("attack.conversation_us", ratio(per("attack.month")*1e3, float64(attackStats.EventsRun)))
	r.set("report.telescope_ms", per("report.telescope"))
	r.set("expr.headline_ms", per("expr.headline"))
	other := 0.0
	for _, e := range expr.All() {
		if e.ID != "table6" && e.ID != "headline" {
			other += per("expr." + e.ID)
		}
	}
	r.set("expr.other_ms", other)
	r.set("report.render_ms", per("report.render"))
	r.set("report.bytes", float64(last.bytes))

	var unattributed int64
	for id, s := range r.tr.spans {
		if s.Name == "report.pass" && s.Unit >= 0 {
			unattributed += r.tr.selfTime(id)
		}
	}
	r.set("report.unattributed_ms", ms(unattributed)/n)

	synNS, queryNS := netsimLookups(last.world, r.cfg.seed)
	r.set("netsim.synprobe_ns", synNS)
	r.set("netsim.query_ns", queryNS)
}

// netsimLookups times the two stateless probe primitives the scanner's fast
// path is made of, on the built world: addresses alternate between the
// universe (mostly empty, some hosts) and dark space no provider covers.
func netsimLookups(w *expr.World, seed uint64) (synNS, queryNS float64) {
	src := netsim.Endpoint{IP: w.Cfg.ScannerSource, Port: 40000}
	base, size := uint32(w.Cfg.UniversePrefix.First()), uint32(w.Cfg.UniversePrefix.Size())
	dark := uint32(netsim.MustParseIPv4("198.18.0.0"))
	addr := func(i int, x uint32) netsim.IPv4 {
		if i%2 == 0 {
			return netsim.IPv4(base + x%size)
		}
		return netsim.IPv4(dark + x%size)
	}
	// A 32-bit LCG is enough to spread the addresses; the seed only offsets it.
	x := uint32(seed)*2654435761 + 1
	open := 0
	start := time.Now()
	for i := 0; i < netsimCalls; i++ {
		x = x*1664525 + 1013904223
		if w.Network.SynProbe(src, netsim.Endpoint{IP: addr(i, x), Port: 23}, netsim.ProbeOptions{}) {
			open++
		}
	}
	synNS = float64(time.Since(start).Nanoseconds()) / netsimCalls

	coapGet := []byte{0x40, 0x01, 0x00, 0x01} // CON GET, message id 1
	start = time.Now()
	for i := 0; i < netsimCalls; i++ {
		x = x*1664525 + 1013904223
		if w.Network.Query(src.IP, netsim.Endpoint{IP: addr(i, x), Port: 5683}, coapGet, netsim.ProbeOptions{}) != nil {
			open++
		}
	}
	queryNS = float64(time.Since(start).Nanoseconds()) / netsimCalls
	sink = open
	return synNS, queryNS
}

// sink keeps the lookups' results alive.
var sink int
