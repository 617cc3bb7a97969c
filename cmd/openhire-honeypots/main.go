// Command openhire-honeypots deploys the paper's six honeypots on the
// simulated network and replays the calibrated attack month against them,
// printing the Table 7/12 and Figure 4/8/9 summaries.
//
// Usage:
//
//	openhire-honeypots [-intensity F] [-workers N] [-csv] [-export DIR]
//	                   [common, instrument and profile flags: see internal/cli]
//
// The commit point -checkpoint saves at and a signal drains to is the
// campaign's OnDay barrier, once the day's lanes have joined: the day's
// events, drained from the honeypot log in its canonical order and written
// in the -export wire format, are appended to the leg's log, and the
// checkpoint saves the scheduler's position. Every table, file and trace
// below reads the month in that one order: the committed days followed by
// the log's final drain.
//
// -trace records campaign day boundaries plus session open/command/close
// lifecycles derived per (source, honeypot, protocol, day) from the month
// after the replay quiesces, for hash-sampled sources.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"openhire/internal/attack"
	"openhire/internal/attack/malware"
	"openhire/internal/checkpoint"
	"openhire/internal/checkpoint/crashpoint"
	"openhire/internal/checkpoint/wire"
	"openhire/internal/cli"
	"openhire/internal/core/report"
	"openhire/internal/geo"
	"openhire/internal/honeypot"
	"openhire/internal/intel"
	"openhire/internal/iot"
	"openhire/internal/netsim"
	"openhire/internal/obs"
	"openhire/internal/obs/trace"
)

var (
	run       = cli.New("openhire-honeypots", cli.Common|cli.Instruments|cli.Profiles)
	intensity = flag.Float64("intensity", 1.0/16, "fraction of the paper's 200k events to replay")
	workers   = flag.Int("workers", 128, "attack concurrency")
	csvOut    = flag.Bool("csv", false, "emit the daily series as CSV")
	export    = flag.String("export", "", "directory for daily JSONL event exports")
)

func main() {
	run.Parse()

	clock := netsim.NewSimClock(netsim.ExperimentStart)
	network := netsim.NewNetwork(clock)
	pots, log := honeypot.DeployAll(network, netsim.MustParseIPv4("130.226.56.10"))

	fmt.Println("deployed honeypots:")
	for _, hp := range pots {
		fmt.Printf("  %-9s %-36s %s\n", hp.Name, hp.Profile, hp.IP)
	}

	run.Start(clock, "honeypots", "day%02d") // the campaign advances simulated time day by day
	reg, rec := run.Reg, run.Rec
	var progress *obs.Progress
	if reg != nil {
		progress = obs.NewProgress(os.Stderr, "attack days", uint64(attack.ExperimentDays))
	}

	rdns := geo.NewRDNS(run.Seed)
	gn := intel.NewGreyNoise(run.Seed, 0.81)
	vt := intel.NewVirusTotal()
	sources := attack.NewSources(run.Seed, nil, rdns, gn)

	// Resume: reload the scheduler position, the committed days' events and
	// the day gauges. A checkpointed run drains each day from the log as it
	// commits it; the month's events are committed plus what the log still
	// holds when the month ends.
	var resumeState *attack.CampaignResume
	var committed []honeypot.Event
	readDay := func(frame []byte) error {
		evs, err := honeypot.ImportJSONL(bytes.NewReader(frame))
		committed = append(committed, evs...)
		return err
	}
	if run.Resume(func(r *wire.Reader) { resumeState = attack.ReadResume(r) }, readDay) {
		if resumeState == nil {
			cli.Check(fmt.Errorf("%s: %w: no campaign position", checkpoint.FileName(run.CheckpointDir, "honeypots"), checkpoint.ErrCorruptCheckpoint))
		}
		if d := resumeState.NextDay; d > 0 {
			reg.SetGauge("campaign.day", float64(d-1))
			reg.SetGauge("campaign.events_planned", float64(resumeState.EventsPlanned))
			reg.SetGauge("campaign.events_run", float64(resumeState.EventsRun))
			progress.Add(uint64(d))
		}
		fmt.Fprintf(os.Stderr, "resumed at day %02d with %s events\n",
			resumeState.NextDay, report.Comma(len(committed)))
	}

	// The day-boundary hook: live gauges, a progress tick and a trace record
	// on an instrumented run, then the commit on a checkpointed one. A bare
	// run passes nil and keeps the campaign on its documented no-hook path.
	var campaign *attack.Campaign
	var onDay func(day, planned, done int)
	if reg != nil || run.Checkpointing() {
		onDay = func(day, planned, done int) {
			reg.SetGauge("campaign.day", float64(day))
			reg.SetGauge("campaign.events_planned", float64(planned))
			reg.SetGauge("campaign.events_run", float64(done))
			trace.CampaignDayEvent(rec, day, planned, done)
			progress.Add(1)
			if !run.Checkpointing() {
				return
			}
			// The scheduler is single-threaded here and the day's lanes have
			// joined with every conversation ended, so the scheduler position
			// plus the day's events is what the day committed.
			pos := campaign.SchedulerState(day, planned, done)
			evs := log.Drain()
			var buf bytes.Buffer
			cli.Check(honeypot.ExportJSONL(&buf, evs))
			committed = append(committed, evs...)
			run.Stopped(run.Commit(attack.AppendResume(nil, &pos), buf.Bytes())) // an interrupted commit cancels the run context
			crashpoint.Here(crashpoint.SiteCampaignDayCommit)
		}
	}

	campaign = attack.NewCampaign(attack.CampaignConfig{
		Seed:       run.Seed,
		Network:    network,
		Honeypots:  pots,
		Sources:    sources,
		Corpus:     malware.NewCorpus(run.Seed, nil),
		Intensity:  *intensity,
		Workers:    *workers,
		Clock:      clock,
		GreyNoise:  gn,
		VirusTotal: vt,
		RDNS:       rdns,
		OnDay:      onDay,
	})
	fmt.Printf("\nreplaying attack month at intensity %.4f ...\n", *intensity)
	span := run.Tracer.Start("attack_month")
	stats := campaign.Run(run.Context(), resumeState)
	span.End()
	progress.Done()
	// The month in the log's canonical order: the committed days were
	// drained in day order and every event of a day carries that day's
	// clock, so appending what the log still holds keeps the order.
	events := append(committed, log.Drain()...)
	campaign.RegisterIntel(events)
	reg.AddAll("campaign", stats.Counters())
	fmt.Printf("replayed %s attack conversations in %s\n",
		report.Comma(stats.EventsRun), stats.Elapsed.Round(1000000))
	// Profiles cover exactly the replay: the CPU capture stops (and the live
	// heap is written) before the reporting tail below.
	run.StopProfiles()

	// Sessions are derived from the quiesced month — the replay's own hot
	// path never sees the recorder.
	trace.SessionEvents(rec, events)
	reg.AddAll("honeypot", honeypot.EventCounters(events))
	for _, ev := range events {
		// Simulated timestamps: the distribution is deterministic and goes
		// in the manifest alongside the counters.
		reg.Observe("honeypot.event_time_of_day", ev.Time.Sub(netsim.ExperimentStart)%(24*time.Hour))
	}
	if *export != "" {
		cli.Check(exportDaily(*export, events))
	} else if reg != nil {
		// No files requested: digest the canonical JSONL stream anyway so
		// two manifests can still be compared on event content.
		var buf bytes.Buffer
		cli.Check(honeypot.ExportJSONL(&buf, events))
		run.AddOutput("events.jsonl", obs.Digest(buf.Bytes()))
	}
	counts := honeypot.CountByHoneypotProtocol(events)
	uniq := honeypot.UniqueSourcesByHoneypot(events)

	t7 := report.NewTable("\nAttack events by honeypot and protocol",
		"Honeypot", "Protocol", "#Events", "Unique sources")
	for _, target := range attack.PaperTargets {
		t7.AddRow(target.Honeypot, string(target.Protocol),
			counts[target.Honeypot][target.Protocol], len(uniq[target.Honeypot]))
	}
	t7.AddRow("Total", "", len(events), 0)
	_ = t7.Render(os.Stdout)

	// Figure 4: attack types.
	types := honeypot.TypeShares(events)
	t4 := report.NewTable("\nAttack types by honeypot (%)", "Honeypot", "Type", "Share")
	for _, pot := range report.SortedKeys(types) {
		for _, typ := range report.SortedKeys(types[pot]) {
			t4.AddRow(pot, string(typ), report.Percent(types[pot][typ]))
		}
	}
	_ = t4.Render(os.Stdout)

	// Table 12: top credentials.
	t12 := report.NewTable("\nTop credentials", "Protocol", "Username", "Password", "Count")
	for _, p := range []iot.Protocol{iot.ProtoTelnet, iot.ProtoSSH} {
		for _, c := range honeypot.TopCredentials(events, p, 8) {
			t12.AddRow(string(p), c.Username, c.Password, c.Count)
		}
	}
	_ = t12.Render(os.Stdout)

	// Figure 8: daily series.
	daily := honeypot.DailyCounts(events, netsim.ExperimentStart, attack.ExperimentDays)
	if *csvOut {
		labels := make([]string, len(daily))
		values := make([]float64, len(daily))
		for i, n := range daily {
			labels[i] = fmt.Sprintf("2021-04-%02d", i+1)
			values[i] = float64(n)
		}
		_ = report.WriteCSV(os.Stdout, labels, report.Series{Name: "attacks", Values: values})
	} else {
		fmt.Println("\nTotal attacks by day:")
		maxN := 1
		for _, n := range daily {
			if n > maxN {
				maxN = n
			}
		}
		for d, n := range daily {
			fmt.Printf("Apr %02d  %6d  %s\n", d+1, n, report.Bar(float64(n)/float64(maxN), 40))
		}
	}

	// Figure 9: multistage.
	exclude := make(map[netsim.IPv4]bool)
	for ip := range sources.ScanningServiceIPs() {
		exclude[ip] = true
	}
	ms := honeypot.DetectMultistage(events, exclude)
	fmt.Printf("\nmultistage attacks detected: %d\n", len(ms))
	printStages(ms)
	reg.Add("honeypot.multistage", uint64(len(ms)))

	run.Finish(crashpoint.SiteHoneypotTraceWritten, crashpoint.SiteHoneypotManifestWritten)
}

// exportDaily writes one JSONL file per simulated day, the paper's daily
// export-and-import workflow (Section 3.3.2), from events in canonical
// order.
func exportDaily(dir string, events []honeypot.Event) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("export: %w", err)
	}
	keys, days := honeypot.PartitionByDay(events)
	for i, day := range keys {
		path := filepath.Join(dir, "attacks-"+day+".jsonl")
		_, err := run.WriteArtifact(path, func(w io.Writer) error {
			return honeypot.ExportJSONL(w, days[i])
		})
		if err != nil {
			return fmt.Errorf("export: %w", err)
		}
		crashpoint.Here(crashpoint.SiteHoneypotExportWritten)
	}
	fmt.Printf("exported %d day files to %s\n", len(keys), dir)
	return nil
}

func printStages(ms []honeypot.MultistageAttack) {
	for i, stage := range honeypot.StageCounts(ms) {
		fmt.Printf("  stage %d:", i+1)
		for _, p := range iot.ScannedProtocols {
			if n := stage[p]; n > 0 {
				fmt.Printf(" %s=%d", p, n)
			}
		}
		for _, p := range []iot.Protocol{iot.ProtoSSH, iot.ProtoHTTP, iot.ProtoSMB, iot.ProtoS7} {
			if n := stage[p]; n > 0 {
				fmt.Printf(" %s=%d", p, n)
			}
		}
		fmt.Println()
	}
}
