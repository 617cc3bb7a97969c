// Command openhire-telescope generates calibrated darknet traffic into the
// /8 network telescope, writes FlowTuple files (binary or CSV), and prints
// the Table 8 aggregation. It can also parse previously written files.
//
// Usage:
//
//	openhire-telescope [-scale F] [-days N] [-workers N] [-out FILE] [-format csv|bin]
//	                   [common, instrument and profile flags: see internal/cli]
//	openhire-telescope -rotate [-days N] [-out FILE]
//	openhire-telescope -parse FILE
//
// With -rotate the capture is cut per day, the way the CAIDA pipeline rotates
// files: each day is generated with RunDay, drained with Telescope.Drain (the
// buffer is handed over and cleared, no copy), and written to FILE.dayNN.
//
// Generation proceeds day by day (each day's unit streams and ordinals are
// identical to the all-at-once fan-out, so the capture is byte-identical);
// the day boundary is the commit point -checkpoint saves at and a signal
// drains to. The checkpoint is the next day plus the digests of the -rotate
// day files written so far: every generation unit derives its own stream
// per (protocol, day), so a resume re-runs the committed days — about 10 ms
// a day at the default 1/8192 scale — and their registry, progress and
// trace effects come from that re-run. It does not rewrite the day files.
//
// -trace records one darknet.unit event per finished (protocol, day)
// generation unit, one flow.rotate per -rotate day cut, and flow.ingest for
// hash-sampled sources, derived from the finished capture.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"openhire/internal/attack"
	"openhire/internal/checkpoint/crashpoint"
	"openhire/internal/checkpoint/wire"
	"openhire/internal/cli"
	"openhire/internal/core/report"
	"openhire/internal/geo"
	"openhire/internal/iot"
	"openhire/internal/netsim"
	"openhire/internal/obs"
	"openhire/internal/obs/trace"
	"openhire/internal/telescope"
)

var (
	run     = cli.New("openhire-telescope", cli.Common|cli.Instruments|cli.Profiles)
	scale   = flag.Float64("scale", 1.0/8192, "fraction of the paper's telescope volume")
	days    = flag.Int("days", 1, "days of traffic to generate")
	workers = flag.Int("workers", 0, "generation workers (0 = all CPUs)")
	out     = flag.String("out", "", "write FlowTuple records to this file")
	format  = flag.String("format", "csv", "output format: csv or bin")
	parse   = flag.String("parse", "", "parse a FlowTuple file (CSV, or binary records detected by their FT04 magic) instead of generating")
	rotate  = flag.Bool("rotate", false, "cut the capture per day (drain + per-day files)")
)

// dayFile names a -rotate day file.
func dayFile(day int) string { return fmt.Sprintf("%s.day%02d", *out, day) }

// checkFormat rejects a -format value no writer exists for.
func checkFormat(format string) error {
	if format != "csv" && format != "bin" {
		return fmt.Errorf("unknown format %q (want csv or bin)", format)
	}
	return nil
}

func main() {
	run.Parse()
	cli.Usage(checkFormat(*format))
	if *parse != "" {
		parseFile(*parse)
		return
	}
	run.Start(nil, "telescope", "day%02d") // flow timestamps are synthetic, no sim clock
	reg, rec := run.Reg, run.Rec
	var progress *obs.Progress
	if reg != nil {
		progress = obs.NewProgress(os.Stderr, "generation units", 0)
	}

	prefix := netsim.MustParsePrefix("44.0.0.0/8")
	geodb := geo.NewDB(run.Seed, nil)
	tel := telescope.New(prefix, geodb)
	cfg := attack.DarknetConfig{
		Seed:      run.Seed,
		Telescope: tel,
		GeoDB:     geodb,
		Scale:     *scale,
		Days:      *days,
		Workers:   *workers,
	}
	if reg != nil {
		// Reported once per finished (protocol, day) unit after the worker
		// pool joins — never from inside the generation hot path. Registry,
		// reporter and recorder are all nil-safe.
		cfg.OnUnit = func(proto iot.Protocol, day, flows int) {
			reg.Add("darknet."+string(proto)+".flows", uint64(flows))
			reg.Add("darknet.units", 1)
			trace.DarknetUnitEvent(rec, proto, day, flows)
			progress.Add(1)
		}
	}
	gen := attack.NewDarknetGenerator(cfg)
	fmt.Printf("generating %d day(s) of telescope traffic at scale %.2g ...\n", *days, *scale)

	// Resume: reload the position — the first day to generate afresh and
	// the digests of the -rotate day files written so far. The committed
	// days are generated again below, so nothing else is logged.
	run.Rederive()
	var committed int
	var digests []string
	readPos := func(r *wire.Reader) {
		committed, digests = r.Int(), wire.ReadSlice(r, wire.DigestLen, (*wire.Reader).Digest)
	}
	if run.Resume(readPos, func([]byte) error { return nil }) {
		for day, digest := range digests {
			run.AddOutput(dayFile(day), digest)
		}
		fmt.Fprintf(os.Stderr, "resumed at day %02d\n", committed)
	}

	// commitDay is the day boundary: a day the checkpoint already holds is
	// not committed again; a new one is saved (with -checkpoint), and a
	// pending interrupt honoured once it is durable.
	commitDay := func(day int) (stop bool) {
		if day < committed {
			return false
		}
		pos := wire.AppendSlice(wire.AppendInt(nil, day+1), digests, wire.AppendDigest)
		stop = run.Stopped(run.Commit(pos, nil))
		if run.Checkpointing() {
			crashpoint.Here(crashpoint.SiteTelescopeDayCommit)
		}
		return stop
	}

	// Day-by-day generation: RunDay(0..Days-1) emits exactly Run's flow set
	// (same unit streams and ordinals), and unit completion order per
	// protocol is ascending days either way, so the capture, registry and
	// trace are byte-identical to the all-at-once fan-out — with a drain
	// point per day for checkpoints and signals. With -rotate every day is
	// its own span and is drained into its own file.
	var all []*telescope.FlowTuple
	span, endDay := run.Tracer.Start("generate"), 0 // a span is recorded when it ends
	for day := 0; day < *days; day++ {
		if *rotate {
			span = run.Tracer.Start(fmt.Sprintf("generate.day%02d", day))
		}
		gen.RunDay(day)
		if *rotate {
			span.End()
			all = append(all, rotateDay(day, tel, &digests)...)
		}
		if endDay = day + 1; commitDay(day) {
			break
		}
	}
	if *rotate {
		fmt.Printf("captured %s aggregated flows across %d day(s)\n", report.Comma(len(all)), endDay)
	} else {
		span.End()
		fmt.Printf("captured %s aggregated flows\n", report.Comma(tel.Len()))
		all = tel.Flows()
	}
	// Profiles cover exactly the generation: the CPU capture stops (and the
	// live heap is written) before the aggregation and dump tail.
	run.StopProfiles()

	observeFlows(reg, all)
	trace.FlowEvents(rec, all)
	t8 := report.NewTable("\nTelescope traffic by protocol", "Protocol", "Packets", "Flows", "Unique IPs")
	for _, s := range telescope.AggregateByProtocol(all) {
		t8.AddRow(string(s.Protocol), s.Packets, s.Flows, s.UniqueIPs)
	}
	_ = t8.Render(os.Stdout)

	if *out != "" && !*rotate {
		_, err := writeFlowFile(*out, all)
		cli.Check(err)
		crashpoint.Here(crashpoint.SiteTelescopeFileWritten)
		fmt.Printf("\nwrote %s records to %s (%s)\n", report.Comma(len(all)), *out, *format)
	}
	run.Finish(crashpoint.SiteTelescopeTraceWritten, crashpoint.SiteTelescopeManifestWritten)
	progress.Done()
}

// observeFlows folds the finished capture into the registry: flow/packet
// totals (computed from the records, so the rotate path's drained telescope
// counts too) plus a histogram of flow time-of-day offsets. Flow timestamps
// are synthetic simulated time, so the histogram is deterministic and
// belongs in the manifest.
func observeFlows(reg *obs.Registry, flows []*telescope.FlowTuple) {
	if reg == nil {
		return
	}
	st := telescope.Stats{Flows: len(flows)}
	day := 24 * time.Hour
	for _, ft := range flows {
		st.Packets += uint64(ft.PacketCnt)
		reg.Observe("telescope.flow_time_of_day", ft.Time.Sub(netsim.ExperimentStart)%day)
	}
	reg.AddAll("telescope", st.Counters())
}

// rotateDay cuts the capture at a day boundary: Drain hands the live
// records over and clears the table — the rotation contract — so nothing is
// copied on the way to disk and the table never grows past one day. A day
// file whose digest the position holds is not written again.
func rotateDay(day int, tel *telescope.Telescope, digests *[]string) []*telescope.FlowTuple {
	flows := tel.Drain()
	trace.RotateEvent(run.Rec, day, len(flows))
	fmt.Printf("day %02d: %s aggregated flows\n", day, report.Comma(len(flows)))
	if *out != "" && day == len(*digests) {
		digest, err := writeFlowFile(dayFile(day), flows)
		cli.Check(err)
		*digests = append(*digests, digest)
		crashpoint.Here(crashpoint.SiteTelescopeFileWritten)
		fmt.Printf("  wrote %s records to %s (%s)\n", report.Comma(len(flows)), dayFile(day), *format)
	}
	return flows
}

// writeFlowFile writes one FlowTuple artifact in -format and returns its
// content digest.
func writeFlowFile(path string, flows []*telescope.FlowTuple) (string, error) {
	return run.WriteArtifact(path, func(w io.Writer) error {
		if *format == "bin" {
			return telescope.WriteFlowsBinary(w, flows)
		}
		return telescope.WriteFlowsCSV(w, flows)
	})
}

func parseFile(path string) {
	f, err := os.Open(path)
	cli.Check(err)
	defer f.Close()

	// Auto-detect: binary records start with the FT04 magic.
	br := bufio.NewReader(f)
	head, _ := br.Peek(4)
	var flows []*telescope.FlowTuple
	if string(head) == "FT04" {
		for {
			ft, err := telescope.ReadBinary(br)
			if err == io.EOF {
				break
			}
			cli.Check(err)
			flows = append(flows, ft)
		}
	} else {
		flows, err = telescope.ReadCSV(br)
		cli.Check(err)
	}
	fmt.Printf("parsed %s records from %s\n", report.Comma(len(flows)), path)
	t := report.NewTable("", "Protocol", "Packets", "Flows", "Unique IPs")
	for _, s := range telescope.AggregateByProtocol(flows) {
		t.AddRow(string(s.Protocol), s.Packets, s.Flows, s.UniqueIPs)
	}
	_ = t.Render(os.Stdout)
}
