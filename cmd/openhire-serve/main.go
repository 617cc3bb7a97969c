// Command openhire-serve is the continuous-measurement daemon: it drives the
// paper's three legs — segmented scanner sweeps, daily darknet generation
// into the telescope, and the honeypot attack campaign — cycle after cycle
// over simulated time, folding their outputs into incremental aggregates and
// answering a live HTTP/JSON query API from copy-on-write snapshots.
//
// Usage:
//
//	openhire-serve [-prefix CIDR] [-boost F] [-workers N] [-intensity F] [-scale F]
//	               [-cycles N] [-segments-per-cycle N] [-segment-targets N]
//	               [-addr HOST:PORT]
//	               [-telescope-dir DIR] [-tsdb-retention N] [-no-tsdb]
//	               [-out FILE] [-tsdb-out FILE]
//	               [-cpuprofile FILE] [-memprofile FILE]
//	               [common flags: see internal/cli]
//
// One cycle is one simulated day; every 30 cycles close an attack month and
// reseed it. -cycles bounds the TOTAL completed-cycle count (0 = run until
// signalled); a resumed run continues toward the same target. -addr serves
// /api/exposure, /api/trends, /api/correlate, /api/status, /api/timeseries,
// /metrics and /debug/pprof while the daemon runs — handlers read immutable
// published snapshots, so scrape load cannot perturb the measurement.
//
// The commit point is the cycle boundary: the Loop commits every cycle to
// -checkpoint itself, and a signal stops at the next boundary.
// -telescope-dir persists each cycle's telescope capture as rotated hourly
// binary FlowTuple files (dayNNNN-hourHH.ft, readable by openhire-telescope
// -parse); -tsdb-out writes the observatory's sim-deterministic time-series
// state on exit (readable by openhire-inspect timeline); -no-tsdb disables
// the observatory entirely. -cpuprofile and -memprofile capture the cycles
// and stop before the artifacts are written. For a given (seed, config,
// watermark), API responses, the -out aggregates, the -tsdb-out state and the
// hourly capture files are byte-identical across runs, worker counts and
// kill/resume.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"openhire/internal/attack"
	"openhire/internal/checkpoint/crashpoint"
	"openhire/internal/cli"
	"openhire/internal/netsim"
	"openhire/internal/obs"
	"openhire/internal/serve"
)

var (
	run       = cli.New("openhire-serve", cli.Common|cli.Profiles)
	prefixStr = flag.String("prefix", "100.0.0.0/14", "prefix to scan and source attacks from")
	boost     = flag.Float64("boost", 16, "universe density boost")
	workers   = flag.Int("workers", 64, "per-leg concurrency")
	intensity = flag.Float64("intensity", 1.0/16, "fraction of the paper's attack events per month")
	scale     = flag.Float64("scale", 1.0/8192, "telescope volume scale")
	cycles    = flag.Int("cycles", 0, "stop after this many total completed cycles (0 = run until signalled)")
	segsPer   = flag.Int("segments-per-cycle", serve.DefaultSegmentsPerCycle, "scan segment commits drained per cycle")
	segTgts   = flag.Int("segment-targets", 0, "scan targets per segment (0 = scanner default)")
	addr      = flag.String("addr", "", "serve the query API on this address (\"\" = no listener)")
	telDir    = flag.String("telescope-dir", "", "persist each cycle's telescope capture as hourly binary FlowTuple files under this directory")
	tsdbKeep  = flag.Int("tsdb-retention", 0, "time-series raw retention window in cycles (0 = default)")
	noTSDB    = flag.Bool("no-tsdb", false, "disable the time-series observatory")
	outPath   = flag.String("out", "", "write the final aggregates JSON to this file on exit")
	tsdbOut   = flag.String("tsdb-out", "", "write the sim time-series state JSON to this file on exit")
)

func main() {
	run.Parse()
	prefix, err := netsim.ParsePrefix(*prefixStr)
	cli.Usage(err)
	cli.Usage(attack.CheckScale(*scale))

	// No leg: the Loop owns the serve checkpoint chain, so the first signal
	// cancels the context and Run returns at the next cycle boundary (the
	// in-flight cycle always commits, so checkpoint and API stay coherent).
	run.Start(nil, "", "")
	if *addr != "" && run.Reg == nil {
		run.Reg = obs.NewRegistry()
	}
	loop := serve.New(serve.Config{
		Seed:             run.Seed,
		Prefix:           prefix,
		Boost:            *boost,
		Workers:          *workers,
		Intensity:        *intensity,
		Scale:            *scale,
		SegmentsPerCycle: *segsPer,
		SegmentTargets:   *segTgts,
		CheckpointDir:    run.CheckpointDir,
		Resume:           run.Resuming,
		TelescopeDir:     *telDir,
		TSDBDisabled:     *noTSDB,
		TSDBRetention:    *tsdbKeep,
		Registry:         run.Reg,
		OnPublish: func(s *serve.Published) {
			fmt.Fprintf(os.Stderr, "cycle %d committed: sweep %d (%d complete), %d attack events, %d telescope flows\n",
				s.Watermark.Cycle, s.Watermark.Sweep, s.Watermark.SweepsComplete,
				s.Watermark.AttackEvents, s.Watermark.TelescopeFlows)
		},
	})

	if run.Resuming {
		found, err := loop.Restore()
		cli.Check(err)
		if found {
			fmt.Fprintf(os.Stderr, "resumed at cycle %d\n", loop.Cycle())
		}
	}

	if *addr != "" {
		bound, closer, err := obs.StartServer(*addr, serve.NewMux(loop.Publisher(), run.Reg, loop.Observatory()))
		cli.Check(err)
		defer func() { _ = closer() }()
		fmt.Fprintf(os.Stderr, "query API on http://%s/\n", bound)
	}

	cli.Check(loop.Run(run.Context(), *cycles))
	// Profiles cover exactly the cycles: the CPU capture stops (and the live
	// heap is written) before the artifacts below.
	run.StopProfiles()

	if *outPath != "" {
		data, err := loop.AggregatesJSON()
		cli.Check(err)
		cli.Check(writeBytes(*outPath, data))
		crashpoint.Here(crashpoint.SiteServeAggregatesWritten)
		fmt.Fprintf(os.Stderr, "aggregates written to %s\n", *outPath)
	}
	if *tsdbOut != "" && loop.Observatory() != nil {
		data, err := loop.Observatory().Sim.MarshalState()
		cli.Check(err)
		cli.Check(writeBytes(*tsdbOut, data))
		crashpoint.Here(crashpoint.SiteServeTimeseriesWritten)
		fmt.Fprintf(os.Stderr, "time series written to %s\n", *tsdbOut)
	}
	run.Checkpoints = loop.Checkpoints()
	for name, digest := range loop.TelescopeFiles() {
		run.AddOutput("telescope/"+name, digest)
	}
	run.Finish("", crashpoint.SiteServeManifestWritten)
	fmt.Printf("stopped after %d cycles\n", loop.Cycle())
}

// writeBytes writes one already-rendered artifact through the harness.
func writeBytes(path string, data []byte) error {
	_, err := run.WriteArtifact(path, func(w io.Writer) error {
		_, err := w.Write(data)
		return err
	})
	return err
}
