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
// drains to.
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
	"openhire/internal/checkpoint"
	"openhire/internal/checkpoint/crashpoint"
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

// telescopeCheckpoint is the telescope leg's durable state, committed at
// each day boundary once the generator's workers have joined. The generator
// itself is stateless between days (every unit derives its own stream), so
// the state is the day cursor plus the capture accumulated so far.
type telescopeCheckpoint struct {
	// NextDay is the first day the resumed run generates.
	NextDay int `json:"next_day"`
	// Table is the full flow-table dump (accumulating mode; nil in -rotate,
	// where the table is drained empty at every boundary).
	Table *telescope.TableState `json:"table,omitempty"`
	// Drained accumulates the per-day drains in order (-rotate mode).
	Drained []telescope.FlowTuple `json:"drained,omitempty"`
	// Units replays the registry/progress effects of completed generation
	// units, in OnUnit order.
	Units []unitRecord `json:"units,omitempty"`
	// DayDigests carries the already-written -rotate day files' digests.
	DayDigests map[string]string `json:"day_digests,omitempty"`
	checkpoint.Chain
}

// unitRecord is one completed (protocol, day) generation unit.
type unitRecord struct {
	Proto string `json:"proto"`
	Day   int    `json:"day"`
	Flows int    `json:"flows"`
}

func main() {
	run.Parse()
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
	st := &telescopeCheckpoint{}
	cfg := attack.DarknetConfig{
		Seed:      run.Seed,
		Telescope: tel,
		GeoDB:     geodb,
		Scale:     *scale,
		Days:      *days,
		Workers:   *workers,
	}
	if reg != nil || run.Checkpointing() {
		// Reported once per finished (protocol, day) unit after the worker
		// pool joins — never from inside the generation hot path. Registry,
		// reporter and recorder are all nil-safe.
		cfg.OnUnit = func(proto iot.Protocol, day, flows int) {
			reg.Add("darknet."+string(proto)+".flows", uint64(flows))
			reg.Add("darknet.units", 1)
			trace.DarknetUnitEvent(rec, proto, day, flows)
			progress.Add(1)
			if run.Checkpointing() {
				st.Units = append(st.Units, unitRecord{Proto: string(proto), Day: day, Flows: flows})
			}
		}
	}
	gen := attack.NewDarknetGenerator(cfg)
	fmt.Printf("generating %d day(s) of telescope traffic at scale %.2g ...\n", *days, *scale)

	// Resume: reload the capture and replay the completed units' registry
	// and progress effects. The generator needs nothing — unit streams are
	// derived per (protocol, day).
	if run.Resume(st) {
		if st.Table != nil {
			tel.Restore(*st.Table)
			st.Table = nil
		}
		for _, u := range st.Units {
			reg.Add("darknet."+u.Proto+".flows", uint64(u.Flows))
			reg.Add("darknet.units", 1)
			progress.Add(1)
		}
		for path, digest := range st.DayDigests {
			run.AddOutput(path, digest)
		}
		fmt.Fprintf(os.Stderr, "resumed at day %02d\n", st.NextDay)
	}

	// commitDay is the day boundary: the state is saved (with -checkpoint)
	// and a pending interrupt honoured once it is durable.
	commitDay := func(nextDay int) (stop bool) {
		st.NextDay = nextDay
		if run.Checkpointing() && !*rotate {
			dump := tel.Dump()
			st.Table = &dump
		}
		stop = run.Stopped(run.Commit(st))
		st.Table = nil
		if run.Checkpointing() {
			crashpoint.Here(crashpoint.SiteTelescopeDayCommit)
		}
		return stop
	}

	var all []*telescope.FlowTuple
	if *rotate {
		all = runRotated(gen, tel, st, commitDay)
	} else {
		// Day-by-day generation inside one span: RunDay(0..Days-1) emits
		// exactly Run's flow set (same unit streams and ordinals), and unit
		// completion order per protocol is ascending days either way, so the
		// capture, registry and trace are byte-identical to the all-at-once
		// fan-out — with a drain point per day for checkpoints and signals.
		span := run.Tracer.Start("generate")
		for day := st.NextDay; day < *days; day++ {
			gen.RunDay(day)
			if commitDay(day + 1) {
				break
			}
		}
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

// runRotated generates one day at a time, draining the telescope between
// days so each capture file holds exactly one day and the flow table never
// grows past a single day's footprint. Drain hands over the live records —
// the rotation contract — so nothing is copied on the way to disk. Resumed
// runs replay the completed days' spans (zero simulated duration, like every
// span under the nil clock) and re-aggregate from the checkpointed drains.
// Returns every day's flows in order.
func runRotated(gen *attack.DarknetGenerator, tel *telescope.Telescope,
	st *telescopeCheckpoint, commitDay func(int) bool) []*telescope.FlowTuple {
	for day := 0; day < st.NextDay; day++ {
		run.Tracer.Start(fmt.Sprintf("generate.day%02d", day)).End()
	}
	endDay := st.NextDay
	for day := st.NextDay; day < *days; day++ {
		span := run.Tracer.Start(fmt.Sprintf("generate.day%02d", day))
		gen.RunDay(day)
		span.End()
		flows := tel.Drain()
		trace.RotateEvent(run.Rec, day, len(flows))
		fmt.Printf("day %02d: %s aggregated flows\n", day, report.Comma(len(flows)))
		if *out != "" {
			path := fmt.Sprintf("%s.day%02d", *out, day)
			digest, err := writeFlowFile(path, flows)
			cli.Check(err)
			if st.DayDigests == nil {
				st.DayDigests = make(map[string]string)
			}
			st.DayDigests[path] = digest
			crashpoint.Here(crashpoint.SiteTelescopeFileWritten)
			fmt.Printf("  wrote %s records to %s (%s)\n", report.Comma(len(flows)), path, *format)
		}
		for _, ft := range flows {
			st.Drained = append(st.Drained, *ft)
		}
		endDay = day + 1
		if commitDay(day + 1) {
			break
		}
	}
	all := make([]*telescope.FlowTuple, len(st.Drained))
	for i := range st.Drained {
		all[i] = &st.Drained[i]
	}
	fmt.Printf("captured %s aggregated flows across %d day(s)\n", report.Comma(len(all)), endDay)
	return all
}

// writeFlowFile writes one FlowTuple artifact in -format and returns its
// content digest.
func writeFlowFile(path string, flows []*telescope.FlowTuple) (string, error) {
	return run.WriteArtifact(path, func(w io.Writer) error {
		switch *format {
		case "csv":
			return telescope.WriteFlowsCSV(w, flows)
		case "bin":
			return telescope.WriteFlowsBinary(w, flows)
		}
		return fmt.Errorf("unknown format %q", *format)
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
