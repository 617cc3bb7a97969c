// Command openhire-report runs the full experiment suite — every table and
// figure in the paper's evaluation — against one simulated world and prints
// each artifact with its paper-vs-measured comparison.
//
// Usage:
//
//	openhire-report [-quick] [-only ID[,ID...]]
//	                [common and instrument flags: see internal/cli]
//
// The commit point is the end of an experiment: -checkpoint appends the
// finished experiment's result to the leg's log and saves the phase list,
// -resume reprints the logged results verbatim and runs only the remaining
// experiments, and a signal stops before the next one. An
// instrumented resume also re-forces the world phases the cached experiments
// had forced, in their original order, so the trace and manifest match an
// uninterrupted run's — whether or not the killed run was instrumented: the
// checkpoint's phase list comes from the world, not from the tracer.
//
// -trace covers whichever phases the selected experiments forced: probe
// lifecycles for the scan leg (live, via the world's OnProbe hook),
// classification outcomes, honeypot sessions and telescope flow ingests
// (derived from the quiesced logs), for hash-sampled addresses.
package main

import (
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"

	"openhire/internal/checkpoint/crashpoint"
	"openhire/internal/checkpoint/wire"
	"openhire/internal/cli"
	"openhire/internal/core/report"
	"openhire/internal/expr"
	"openhire/internal/honeypot"
	"openhire/internal/obs"
	"openhire/internal/obs/trace"
)

var (
	run   = cli.New("openhire-report", cli.Common|cli.Instruments|cli.Profiles)
	quick = flag.Bool("quick", false, "use the small fast world")
	only  = flag.String("only", "", "comma-separated experiment ids (default: all)")
)

// appendResult writes a finished experiment: one log frame.
func appendResult(b []byte, res *expr.Result) []byte {
	for _, f := range [...]string{res.ID, res.Title, res.Artifact} {
		b = wire.AppendString(b, f)
	}
	return wire.AppendSlice(b, res.Comparisons, func(b []byte, c report.Comparison) []byte {
		for _, v := range [...]float64{c.Paper, c.Measured, c.Scaled} {
			b = wire.AppendFloat(b, v)
		}
		return wire.AppendString(wire.AppendString(b, c.Metric), c.Note)
	})
}

// phases maps a world phase name to the method that forces it.
var phases = map[string]func(*expr.World){
	"scan":             func(w *expr.World) { w.RunScan() },
	"filter_honeypots": func(w *expr.World) { w.FilterHoneypots() },
	"classify":         func(w *expr.World) { w.Classify() },
	"attack_month":     func(w *expr.World) { w.RunAttackMonth() },
	"telescope":        func(w *expr.World) { w.RunTelescope() },
}

// mergePhases returns the restored checkpoint's phase list followed by the
// phases this process was the first to run. An instrumented resume re-forces
// the restored ones first, so there the result is just the world's list; a
// bare resume forces only what its remaining experiments need, and the
// restored names must survive into the next checkpoint all the same.
func mergePhases(restored, ran []string) []string {
	out := append([]string(nil), restored...)
	for _, name := range ran {
		if !slices.Contains(out, name) {
			out = append(out, name)
		}
	}
	return out
}

func main() {
	run.Parse()
	var selected []expr.Experiment
	if *only == "" {
		selected = expr.All()
	} else {
		for _, id := range strings.Split(*only, ",") {
			e, ok := expr.Find(strings.TrimSpace(id))
			if !ok {
				known := make([]string, 0, len(expr.All()))
				for _, e := range expr.All() {
					known = append(known, e.ID)
				}
				cli.Usage(fmt.Errorf("unknown experiment %q; known: %s", id, strings.Join(known, " ")))
			}
			selected = append(selected, e)
		}
	}

	cfg := expr.DefaultConfig()
	if *quick {
		cfg = expr.QuickConfig()
	}
	cfg.Seed = run.Seed
	world := expr.BuildWorld(cfg)

	// The world's phase methods call only nil-safe tracer methods and a nil
	// recorder yields a nil probe hook, so a bare run does the same work as
	// before the instrumentation existed.
	run.Start(world.Clock, "report", "exp%02d")
	world.Trace = run.Tracer
	world.OnProbe = trace.ScanProbeHook(run.Rec, world.Network, cfg.ScannerSource)

	fmt.Printf("world: universe %s boost %.0fx (scale 1/%.0f), attack intensity %.4f, telescope scale %.2g\n",
		cfg.UniversePrefix, cfg.DensityBoost, world.ScaleFactor(),
		cfg.AttackIntensity, cfg.TelescopeScale)

	var done []expr.Result
	var restored []string
	readFrame := func(frame []byte) error { // what appendResult wrote
		r := wire.NewReader(frame)
		res := expr.Result{ID: r.Str(), Title: r.Str(), Artifact: r.Str()}
		res.Comparisons = wire.ReadSlice(r, 3*8+2, func(r *wire.Reader) report.Comparison {
			return report.Comparison{Paper: r.Float(), Measured: r.Float(), Scaled: r.Float(), Metric: r.Str(), Note: r.Str()}
		})
		done = append(done, res)
		return r.Close()
	}
	// The position is the world phases that ran before the commit (in this
	// process or the ones it resumed from), in completion order — the order
	// a resumed run re-forces them in.
	readPos := func(r *wire.Reader) { restored = strings.Fields(r.Str()) }
	if run.Resume(readPos, readFrame) {
		fmt.Fprintf(os.Stderr, "resumed with %d experiment(s) cached\n", len(done))
		if run.Reg != nil {
			// A killed run that traced left its probe events in the restored
			// recorder (a scan completes inside one experiment), so a
			// re-forced scan must not record them again; one that did not
			// trace left none, and the re-forced scan records them now.
			hook := world.OnProbe
			restoredProbes := run.Rec.Len() > 0
			for _, name := range restored {
				if name == "scan" && restoredProbes {
					world.OnProbe = nil
				}
				if force := phases[name]; force != nil {
					force(world)
				}
			}
			world.OnProbe = hook
		}
	}
	cached := make(map[string]*expr.Result, len(done))
	for i := range done {
		cached[done[i].ID] = &done[i]
	}

	for _, e := range selected {
		if run.Interrupted() {
			break
		}
		fmt.Printf("\n================ %s — %s ================\n\n", e.ID, e.Title)
		var res expr.Result
		if c, ok := cached[e.ID]; ok {
			res = *c
		} else {
			res = e.Run(world)
		}
		fmt.Println(res.Artifact)
		if len(res.Comparisons) > 0 {
			_ = report.RenderComparisons(os.Stdout, "paper vs measured", res.Comparisons)
		}
		run.AddOutput("artifact:"+e.ID, obs.Digest([]byte(res.Artifact)))
		if run.Checkpointing() && cached[e.ID] == nil {
			pos := wire.AppendString(nil, strings.Join(mergePhases(restored, world.Phases()), " "))
			run.Stopped(run.Commit(pos, appendResult(nil, &res))) // the loop head honours the interrupt
			crashpoint.Here(crashpoint.SiteReportExperimentCommit)
		}
	}

	// Profiles cover exactly the pass: the CPU capture stops (and the live
	// heap is written) before the counter and trace tail.
	run.StopProfiles()

	// The world caches each phase and names the ones that actually ran in
	// this process — on an instrumented resume that includes the re-forced
	// ones — so counters and derived trace events cover exactly the phases
	// the experiments forced: the reads below are free, and phases that
	// never ran stay out of the artifacts.
	ran := world.Phases()
	if slices.Contains(ran, "scan") {
		_, stats := world.RunScan()
		for proto, st := range stats {
			run.Reg.AddAll("scan."+string(proto), st.Counters())
		}
	}
	if slices.Contains(ran, "classify") {
		findings, _ := world.Classify()
		trace.ClassifiedEvents(run.Rec, findings)
	}
	if slices.Contains(ran, "attack_month") {
		trace.SessionEvents(run.Rec, world.Events())
		run.Reg.AddAll("campaign", world.RunAttackMonth().Counters())
		run.Reg.AddAll("honeypot", honeypot.EventCounters(world.Events()))
	}
	if slices.Contains(ran, "telescope") {
		trace.FlowEvents(run.Rec, world.Flows())
		run.Reg.AddAll("telescope", world.Telescope.Stats().Counters())
	}
	run.Finish(crashpoint.SiteReportTraceWritten, crashpoint.SiteReportManifestWritten)
}
