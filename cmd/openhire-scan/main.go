// Command openhire-scan runs the paper's Internet-wide measurement pipeline
// against the simulated universe: six-protocol scan, honeypot fingerprint
// filtering, misconfiguration classification and device typing, printing the
// Table 4/5 style summaries.
//
// Usage:
//
//	openhire-scan [-prefix CIDR] [-boost F] [-workers N] [-protocol P]
//	              [-rate N] [-extended] [-show-honeypots] [-verify-honeypots]
//	              [-out FILE] [-in FILE] [-checkpoint-every N]
//	              [-faults PROFILE] [-max-attempts N] [-probe-timeout D]
//	              [-target-budget D] [-breaker-threshold N]
//	              [common and instrument flags: see internal/cli]
//
// Every run goes through the scanner's one driver, scan.Scanner.Run: the
// modules are swept in sequence, each with the whole -workers budget.
// -checkpoint only adds a commit hook to that call, which saves the resumable
// scan state (permutation cursor, breaker hits, per-module stats and results)
// at every segment of -checkpoint-every targets; without it each module is
// one segment, and the final artifacts are byte-identical either way. -rate
// throttles every transmission on either path.
//
// The robustness knobs (-max-attempts, -probe-timeout, -target-budget,
// -breaker-threshold) only engage on a faulted fabric: without -faults the
// scanner probes every target exactly once and the knobs are inert, so
// setting one without -faults prints a warning on stderr.
//
// -trace records sent/answered/timeout/retransmit/abandoned/classified per
// hash-sampled target address.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"

	"openhire/internal/checkpoint"
	"openhire/internal/checkpoint/crashpoint"
	"openhire/internal/cli"
	"openhire/internal/core/classify"
	"openhire/internal/core/fingerprint"
	"openhire/internal/core/report"
	"openhire/internal/core/scan"
	"openhire/internal/geo"
	"openhire/internal/iot"
	"openhire/internal/netsim"
	"openhire/internal/netsim/faults"
	"openhire/internal/obs"
	"openhire/internal/obs/trace"
)

var (
	run           = cli.New("openhire-scan", cli.Common|cli.Instruments)
	prefixStr     = flag.String("prefix", "100.0.0.0/14", "universe prefix to scan")
	boost         = flag.Float64("boost", 16, "population density boost")
	workers       = flag.Int("workers", 128, "probe concurrency")
	protocol      = flag.String("protocol", "", "scan a single protocol (telnet|mqtt|coap|amqp|xmpp|upnp)")
	rate          = flag.Int("rate", 0, "probes per second (0 = unthrottled)")
	showHoneypots = flag.Bool("show-honeypots", false, "list detected honeypot instances")
	extended      = flag.Bool("extended", false, "also scan the future-work protocols (tr069, smb)")
	verifyPots    = flag.Bool("verify-honeypots", false, "confirm banner detections with the active deviation probe")
	out           = flag.String("out", "", "save raw scan results as JSON Lines")
	in            = flag.String("in", "", "skip scanning; analyze a previously saved result file")
	faultSpec     = flag.String("faults", "", "network fault profile: zero|calibrated|harsh plus key=value overrides (e.g. calibrated,synloss=0.05)")
	maxAttempts   = flag.Int("max-attempts", 0, "probe transmissions per target (requires -faults; 0 = default 3)")
	probeTimeout  = flag.Duration("probe-timeout", 0, "per-attempt simulated patience (requires -faults; 0 = default 500ms)")
	targetBudget  = flag.Duration("target-budget", 0, "simulated spend cap per target across attempts (requires -faults; 0 = default 4s)")
	breakerThresh = flag.Int("breaker-threshold", 0, "admin-prohibited hits per /24 before the breaker skips it (requires -faults; 0 = default 8)")
	ckptEvery     = flag.Int("checkpoint-every", scan.DefaultSegmentTargets, "targets per segment between checkpoint commits (with -checkpoint)")
)

// scanCheckpoint is the scan leg's durable state: the segmented scanner's
// position and outputs, then the chain.
type scanCheckpoint struct {
	Scan *scan.SegmentedState `json:"scan"`
	checkpoint.Chain
}

func main() {
	run.Parse()
	prefix, err := netsim.ParsePrefix(*prefixStr)
	cli.Usage(err)
	profile, err := faults.Parse(*faultSpec)
	cli.Usage(err)
	modules := scan.AllModules()
	if *extended {
		modules = append(modules, scan.ExtendedModules()...)
	}
	if *protocol != "" {
		m, ok := scan.ModuleFor(iot.Protocol(*protocol))
		if !ok {
			cli.Usage(fmt.Errorf("unknown protocol %q", *protocol))
		}
		modules = []scan.ProbeModule{m}
	}

	universe := iot.NewUniverse(iot.UniverseConfig{
		Seed: run.Seed, Prefix: prefix, DensityBoost: *boost,
	})
	network := netsim.NewNetwork(netsim.NewSimClock(netsim.ExperimentStart))
	network.AddProvider(prefix, universe)
	// New returns nil for a disabled profile; installing nothing keeps the
	// no-fault fast path and its byte-identical output.
	if model := faults.New(profile); model != nil {
		network.SetFaults(model)
		fmt.Printf("fault profile: %s\n", *faultSpec)
	} else if *maxAttempts != 0 || *probeTimeout != 0 || *targetBudget != 0 || *breakerThresh != 0 {
		fmt.Fprintln(os.Stderr, "warning: robustness knobs (-max-attempts, -probe-timeout,"+
			" -target-budget, -breaker-threshold) have no effect without -faults:"+
			" on a perfect fabric every target is probed exactly once")
	}

	run.Start(nil, "scan", "seg%04d") // the scan does not advance simulated time
	reg := run.Reg

	scanCfg := scan.Config{
		Network:          network,
		Source:           netsim.MustParseIPv4("130.226.0.1"),
		Prefix:           prefix,
		Seed:             run.Seed,
		Workers:          *workers,
		RatePerSec:       *rate,
		MaxAttempts:      *maxAttempts,
		ProbeTimeout:     *probeTimeout,
		TargetBudget:     *targetBudget,
		BreakerThreshold: *breakerThresh,
	}
	var progress *obs.Progress
	if reg != nil {
		// The hook rides the feed goroutine: one registry add and one
		// throttled stderr line per target batch (256 targets at most), off
		// the probe path.
		var ports uint64
		for _, m := range modules {
			ports += uint64(len(m.Ports()))
		}
		progress = obs.NewProgress(os.Stderr, "scan targets", prefix.Size()*ports)
		scanCfg.Progress = func(targets uint64) {
			reg.Add("scan.targets_fed", targets)
			progress.Add(targets)
		}
	}
	// The probe hook records lifecycle events for hash-sampled targets into
	// the recorder's shards; nil recorder means nil hook and the scanner's
	// documented no-hook path.
	scanCfg.OnProbe = trace.ScanProbeHook(run.Rec, network, scanCfg.Source)
	scanner := scan.NewScanner(scanCfg)

	var results map[iot.Protocol][]*scan.Result
	if *in != "" {
		f, err := os.Open(*in)
		cli.Check(err)
		var n int
		results, n, err = readResults(f)
		f.Close()
		cli.Check(err)
		fmt.Printf("loaded %s records from %s\n", report.Comma(n), *in)
	} else {
		fmt.Printf("scanning %s (%s addresses, boost %.0fx, scale 1/%.0f)\n",
			prefix, report.Comma(int(prefix.Size())), *boost, universe.ScaleFactor())
		span := run.Tracer.Start("scan")
		ckptState := &scanCheckpoint{}
		var resumeState *scan.SegmentedState
		if run.Resume(ckptState) {
			resumeState = ckptState.Scan
			// Seed only when the killed run actually fed targets: Progress
			// never fires for empty segments, so an unconditional Add would
			// mint a counter key the uninterrupted run does not have.
			if reg != nil && resumeState.TargetsFed > 0 {
				reg.Add("scan.targets_fed", resumeState.TargetsFed)
				progress.Add(resumeState.TargetsFed)
			}
			fmt.Fprintf(os.Stderr, "resumed at module %d (%s targets done)\n",
				resumeState.Module, report.Comma(int(resumeState.TargetsFed)))
		}
		// One driver either way: without -checkpoint there is no commit hook
		// and each module is swept as a single segment; with it the hook
		// saves the state every -checkpoint-every targets. Results are
		// byte-identical (probes are pure per-target, breaker decisions ride
		// the single-threaded feed, results sort by (IP, Port)).
		var onCommit func(*scan.SegmentedState) error
		if run.Checkpointing() {
			lastModule := 0
			if resumeState != nil {
				lastModule = resumeState.Module
			}
			onCommit = func(st *scan.SegmentedState) error {
				ckptState.Scan = st
				stop := run.Stopped(run.Commit(ckptState))
				crashpoint.Here(crashpoint.SiteScanSegmentCommit)
				if st.Module > lastModule {
					lastModule = st.Module
					crashpoint.Here(crashpoint.SiteScanModuleDone)
				}
				if stop {
					return checkpoint.ErrInterrupted
				}
				return nil
			}
		}
		var stats map[iot.Protocol]scan.Stats
		results, stats, err = scanner.Run(run.Context(), modules, resumeState, *ckptEvery, onCommit)
		// A graceful interrupt is not a failure: the hook stops a
		// checkpointed run at a commit, the cancelled context stops a plain
		// one, and both hand back what was gathered for the partial flush.
		run.Stopped(err)
		span.End()
		progress.Done()
		for _, m := range modules {
			reg.AddAll("scan."+string(m.Protocol()), stats[m.Protocol()].Counters())
		}

		// Table 4 style exposure summary.
		expo := report.NewTable("\nExposed systems by protocol", "Protocol", "Probed", "Blocked", "Responded", "Elapsed")
		for _, m := range modules {
			p := m.Protocol()
			st := stats[p]
			expo.AddRow(string(p), int(st.Probed), int(st.Blocked), len(results[p]), st.Elapsed.Round(1000000).String())
		}
		_ = expo.Render(os.Stdout)

		// Degradation accounting, only on a faulted fabric so zero-fault
		// output stays byte-identical to a run without the fault layer.
		if network.Faults() != nil {
			deg := report.NewTable("\nGraceful degradation under faults",
				"Protocol", "Timeouts", "Retransmits", "Resets", "Partials", "Skipped")
			for _, m := range modules {
				st := stats[m.Protocol()]
				deg.AddRow(string(m.Protocol()), int(st.Timeouts), int(st.Retransmits),
					int(st.Resets), int(st.Partials), int(st.BreakerSkipped))
			}
			_ = deg.Render(os.Stdout)
		}
	}

	if *out != "" {
		var n int
		_, err = run.WriteArtifact(*out, func(w io.Writer) (err error) {
			n, err = writeResults(w, results)
			return err
		})
		cli.Check(err)
		crashpoint.Here(crashpoint.SiteScanResultsWritten)
		fmt.Printf("saved %s records to %s\n", report.Comma(n), *out)
	}

	// Honeypot filtering (Table 6).
	span := run.Tracer.Start("analyze")
	var allFindings []classify.Finding
	var detections []fingerprint.Detection
	for _, m := range modules {
		genuine, dets := fingerprint.Filter(results[m.Protocol()])
		detections = append(detections, dets...)
		allFindings = append(allFindings, classify.ClassifyAll(genuine)...)
	}
	if len(detections) > 0 {
		pot := report.NewTable("\nDetected honeypots (filtered from results)", "Family", "Instances")
		for _, fc := range fingerprint.CountByFamily(detections) {
			pot.AddRow(fc.Family, fc.Count)
		}
		_ = pot.Render(os.Stdout)
		if *showHoneypots {
			for _, d := range detections {
				fmt.Printf("  %s  %s\n", d.IP, d.Family)
			}
		}
		if *verifyPots {
			confirmed, disputed := fingerprint.VerifyDetections(run.Context(),
				network, scanCfg.Source, detections, 0)
			fmt.Printf("active verification: %d confirmed, %d disputed\n",
				len(confirmed), len(disputed))
		}
	}

	// Table 5 style misconfiguration summary.
	summary := classify.Summarize(allFindings)
	mis := report.NewTable("\nMisconfigured devices", "Protocol", "Vulnerability", "Count")
	type row struct {
		cls iot.Misconfig
		n   int
	}
	rows := make([]row, 0, len(summary.MisconfigByClass))
	for cls, n := range summary.MisconfigByClass {
		rows = append(rows, row{cls, n})
	}
	// Tie-break on (protocol, class): the rows come from a map, so a
	// count-only comparator let equal-count rows land in a different order
	// every run.
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].n != rows[j].n {
			return rows[i].n < rows[j].n
		}
		if pi, pj := rows[i].cls.Protocol(), rows[j].cls.Protocol(); pi != pj {
			return pi < pj
		}
		return rows[i].cls.String() < rows[j].cls.String()
	})
	for _, r := range rows {
		mis.AddRow(string(r.cls.Protocol()), r.cls.String(), r.n)
	}
	mis.AddRow("", "Total", summary.TotalMisconfigured)
	_ = mis.Render(os.Stdout)

	// Country distribution (Table 10).
	geodb := geo.NewDB(run.Seed, nil)
	var misIPs []netsim.IPv4
	for _, f := range allFindings {
		if f.Misconfigured() {
			misIPs = append(misIPs, f.Result.IP)
		}
	}
	if len(misIPs) > 0 {
		ct := report.NewTable("\nMisconfigured devices by country", "Country", "Count")
		for i, cc := range geodb.CountryCounts(misIPs) {
			if i >= 10 {
				break
			}
			ct.AddRow(string(cc.Country), cc.Count)
		}
		_ = ct.Render(os.Stdout)
	}
	span.End()

	// Classification closes the scan leg's lifecycle in the trace.
	trace.ClassifiedEvents(run.Rec, allFindings)
	reg.Add("classify.findings", uint64(len(allFindings)))
	reg.Add("classify.misconfigured", uint64(summary.TotalMisconfigured))
	reg.Add("fingerprint.honeypots", uint64(len(detections)))
	run.Finish(crashpoint.SiteScanTraceWritten, crashpoint.SiteScanManifestWritten)
}
