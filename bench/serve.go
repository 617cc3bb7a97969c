package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"openhire/internal/attack"
	"openhire/internal/attack/malware"
	"openhire/internal/checkpoint"
	"openhire/internal/geo"
	"openhire/internal/honeypot"
	"openhire/internal/intel"
	"openhire/internal/iot"
	"openhire/internal/netsim"
	"openhire/internal/obs"
	"openhire/internal/prng"
	"openhire/internal/serve"
)

// serveMode selects which of the three daemon workloads runs.
type serveMode int

const (
	serveMonth serveMode = iota
	serveDurable
	serveScrape
)

// monthDays is the daemon's month length in cycles.
const monthDays = attack.ExperimentDays

// paperEventsPerSecond is the paper's honeypot event rate: 200,209 events in
// the 30-day month.
const paperEventsPerSecond = 200209.0 / (monthDays * 86400)

// daemon is one built serve loop with what the workload attached to it.
type daemon struct {
	cfg     serve.Config
	loop    *serve.Loop
	addr    string
	closeFn func() error
}

func (d *daemon) stop() {
	if d != nil && d.closeFn != nil {
		_ = d.closeFn()
		d.closeFn = nil
	}
}

// startDaemon builds the loop as cmd/openhire-serve does with its default
// flags, attaches the checkpoint directories or the API listener the mode
// asks for, and runs the first cycle as warm-up.
func startDaemon(r *run, mode serveMode) (*daemon, error) {
	d := &daemon{cfg: serve.Config{Seed: r.cfg.seed, Prefix: r.cfg.prefix}}
	if mode == serveDurable {
		dir, err := r.tempDir("serve-durable-")
		if err != nil {
			return nil, err
		}
		d.cfg.CheckpointDir = filepath.Join(dir, "ckpt")
		d.cfg.TelescopeDir = filepath.Join(dir, "telescope")
	}
	d.loop = serve.New(d.cfg)
	if mode == serveScrape {
		mux := serve.NewMux(d.loop.Publisher(), obs.NewRegistry(), d.loop.Observatory())
		addr, closeFn, err := obs.StartServer("127.0.0.1:0", mux)
		if err != nil {
			return nil, err
		}
		d.addr, d.closeFn = addr, closeFn
	}
	if err := d.loop.Run(context.Background(), 1); err != nil {
		d.stop()
		return nil, err
	}
	return d, nil
}

// cycleSample is what the harness records around one Loop.Run call.
type cycleSample struct {
	day  int // day of month, 0-based
	wall sample
	legs map[string]float64 // ms by leg name
	// Deltas of the published watermark across the cycle.
	events, flows int
	targets       uint64
	// Checkpoint directory after the commit (serve_durable).
	ckptBytes, tsdbBytes int64
}

// blockCycles is how many cycles share one reading of the host clocks
// (host.go): short enough that what the host withheld is spread evenly over
// the block, long enough (~0.25 s) for the 10 ms steal ticks to resolve it.
const blockCycles = 5

func runServe(r *run, mode serveMode) error {
	d, err := setUp(r, func(int) (*daemon, func(), error) {
		d, err := startDaemon(r, mode)
		if err != nil {
			return nil, nil, err
		}
		return d, func() {
			d.stop()
			if d.cfg.CheckpointDir != "" {
				_ = os.RemoveAll(filepath.Dir(d.cfg.CheckpointDir))
			}
		}, nil
	})
	if err != nil {
		return err
	}
	defer d.stop()
	loop := d.loop

	// The window ends on a month boundary so every run times whole months;
	// serve_durable ends one day earlier, on the month's largest checkpoint,
	// and keeps a copy of the checkpoint directory as it was after day 1.
	endDay, day01Dir := 0, ""
	if mode == serveDurable {
		endDay = monthDays - 1
		if day01Dir, err = r.tempDir("serve-day01-"); err != nil {
			return err
		}
	}

	var (
		samples     []cycleSample
		monthEvents = loop.Publisher().Snapshot().Watermark.AttackEvents
		firstCycle  = loop.Cycle()
		ctx         = context.Background()
		heapLiveMB  float64
	)
	w := r.openWindow()
	var scr *scraper
	if mode == serveScrape {
		scr = startScraper("http://"+d.addr, r.cfg.seed, w.sample)
		defer scr.stop()
	}
	for {
		unit := len(samples)
		before := loop.Publisher().Snapshot().Watermark
		root := r.tr.begin("serve.cycle", -1, unit)
		start := time.Now()
		if err := loop.Run(ctx, loop.Cycle()+1); err != nil {
			return err
		}
		wall := time.Since(start)
		r.tr.end(root)

		after := loop.Publisher().Snapshot().Watermark
		s := cycleSample{
			day:     (loop.Cycle() - 1) % monthDays,
			wall:    w.sample(wall),
			legs:    make(map[string]float64, 5),
			events:  after.AttackEvents - before.AttackEvents,
			flows:   after.TelescopeFlows - before.TelescopeFlows,
			targets: after.TargetsFed - before.TargetsFed,
		}
		// The daemon's own CycleSpan gives the legs' durations; they become
		// back-to-back child spans of the cycle.
		legs, _ := loop.Observatory().LastCycleWall()
		at := int64(0)
		for _, leg := range legs {
			s.legs[leg.Name] = ms(leg.WallNS)
			r.tr.addChild("serve.leg."+leg.Name, root, at, leg.WallNS)
			at += leg.WallNS
		}
		if mode == serveDurable {
			s.ckptBytes, s.tsdbBytes = checkpointBytes(d.cfg.CheckpointDir)
			if s.day == 0 {
				if err := copyDir(d.cfg.CheckpointDir, day01Dir); err != nil {
					return err
				}
			}
		}
		samples = append(samples, s)

		if loop.Cycle() == monthDays {
			digest, err := aggregatesDigest(loop)
			if err != nil {
				return err
			}
			r.info["aggregates_sha256_cycle30"] = digest
		}
		// The daemon holds the most on the last day before a month's world
		// is discarded; the first month's is the same point in every run.
		if loop.Cycle() == monthDays-1 {
			heapLiveMB = liveHeapMB()
		}
		if loop.Cycle()%monthDays == 0 {
			r.check(after.AttackEvents > monthEvents, "month ending at cycle %d folded no attack events", loop.Cycle())
			monthEvents = after.AttackEvents
		}
		if len(samples)%blockCycles == 0 {
			w.endBlock()
		}
		if stop, err := w.done(len(samples), loop.Cycle()%monthDays == endDay); err != nil {
			return err
		} else if stop {
			break
		}
	}
	cycles := make([]sample, len(samples))
	for i, s := range samples {
		cycles[i] = s.wall
	}
	ops := cycles
	if scr != nil {
		scr.stop()
		ops = scr.rounds
		scr.checks(r)
	}
	if heapLiveMB == 0 { // a window too short to reach day 29 (tests)
		heapLiveMB = liveHeapMB()
	}
	w.close(ops, cycles, float64(len(samples)), heapLiveMB)
	runtime.KeepAlive(loop)
	r.check(loop.Cycle() == firstCycle+len(samples), "loop is at cycle %d after %d timed cycles from %d", loop.Cycle(), len(samples), firstCycle)

	serveLayers(r, samples)
	if scr != nil {
		scr.layers(r, loop)
	}
	if mode == serveDurable {
		if err := durableLayers(r, d, samples, day01Dir); err != nil {
			return err
		}
	}
	if r.tr != nil {
		r.set("attack.world_rebuild_ms", worldRebuildMS(r.cfg))
	}
	return nil
}

// aggregatesDigest is the sha256 of the daemon's -out artifact.
func aggregatesDigest(l *serve.Loop) (string, error) {
	data, err := l.AggregatesJSON()
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:]), nil
}

// serveLayers derives the per-cycle breakdown every serve workload shares.
func serveLayers(r *run, samples []cycleSample) {
	var (
		wall, early, late      []float64
		events, flows, targets float64
		unattributed           float64
		legAll                 = make(map[string][]float64)
		legEarly, legLate      = make(map[string][]float64), make(map[string][]float64)
	)
	for _, s := range samples {
		wall = append(wall, s.wall.ms)
		// The first and the last five days of a month show how a cycle grows.
		var cycleBucket *[]float64
		var legBucket map[string][]float64
		switch {
		case s.day < 5:
			cycleBucket, legBucket = &early, legEarly
		case s.day >= monthDays-5:
			cycleBucket, legBucket = &late, legLate
		}
		if cycleBucket != nil {
			*cycleBucket = append(*cycleBucket, s.wall.ms)
		}
		attributed := 0.0
		for name, v := range s.legs {
			legAll[name] = append(legAll[name], v)
			attributed += v
			if legBucket != nil {
				legBucket[name] = append(legBucket[name], v)
			}
		}
		unattributed += s.wall.ms - attributed
		events += float64(s.events)
		flows += float64(s.flows)
		targets += float64(s.targets)
	}
	n := float64(len(samples))
	r.set("serve.cycle_ms_p50", median(wall))
	r.set("serve.cycle_ms_p90", percentile(wall, 90))
	for _, leg := range []string{"campaign", "telescope", "honeypots", "scan", "commit"} {
		r.set("serve.leg."+leg+"_ms", mean(legAll[leg]))
	}
	r.set("serve.leg.honeypots_growth", ratio(mean(legLate["honeypots"]), mean(legEarly["honeypots"])))
	r.set("serve.leg.commit_growth", ratio(mean(legLate["commit"]), mean(legEarly["commit"])))
	r.set("serve.cycle_ms.day01_05", mean(early))
	r.set("serve.cycle_ms.day26_30", mean(late))
	r.set("serve.cycle_growth", ratio(mean(late), mean(early)))
	r.set("serve.commit_share", ratio(sum(legAll["commit"]), sum(wall)))
	r.set("serve.unattributed_ms", unattributed/n)
	r.set("serve.attack_events_per_cycle", events/n)
	r.set("serve.telescope_flows_per_cycle", flows/n)
	r.set("serve.scan_targets_per_cycle", targets/n)
	perSecond := ratio(events, sum(wall)/1e3)
	r.set("honeypot.events_per_s", perSecond)
	r.set("honeypot.paper_rate_multiple", perSecond/paperEventsPerSecond)
}

// durableLayers reports what the checkpoint directory cost and times cold
// restores: of the final state, the month's largest checkpoint, and of the
// copy taken after the last month's first day, its smallest.
func durableLayers(r *run, d *daemon, samples []cycleSample, day01Dir string) error {
	var total, tsdbDup, day01, day29, commitMS []float64
	for _, s := range samples {
		total = append(total, float64(s.ckptBytes))
		tsdbDup = append(tsdbDup, float64(s.tsdbBytes))
		commitMS = append(commitMS, s.legs["commit"])
		switch s.day {
		case 0:
			day01 = append(day01, float64(s.ckptBytes))
		case monthDays - 2:
			day29 = append(day29, float64(s.ckptBytes))
		}
	}
	r.set("checkpoint.bytes_per_cycle", mean(total))
	r.set("checkpoint.bytes_day01", mean(day01))
	r.set("checkpoint.bytes_day29", mean(day29))
	r.set("checkpoint.bytes_growth", ratio(mean(day29), mean(day01)))
	r.set("checkpoint.tsdb_dup_bytes", mean(tsdbDup))
	r.set("checkpoint.write_mb_per_s", ratio(sum(total)/1e6, sum(commitMS)/1e3))
	hourBytes, _ := dirBytes(d.cfg.TelescopeDir)
	// The warm-up cycle wrote its hour files too.
	r.set("serve.hourfile_bytes_per_cycle", float64(hourBytes)/float64(len(samples)+1))
	r.info["ckpt_fs"] = fsName(d.cfg.CheckpointDir)

	live, err := d.loop.AggregatesJSON()
	if err != nil {
		return err
	}
	restore := func(dir string, unit int) (float64, *serve.Loop, error) {
		cfg := d.cfg
		cfg.CheckpointDir, cfg.Resume = dir, true
		var (
			l     *serve.Loop
			found bool
			err   error
		)
		start := time.Now()
		r.tr.in("serve.restore", -1, unit, func() {
			l = serve.New(cfg)
			found, err = l.Restore()
		})
		took := ms(time.Since(start).Nanoseconds())
		if err == nil && !found {
			err = fmt.Errorf("no checkpoint found in %s", dir)
		}
		return took, l, err
	}
	var final, first []float64
	for i := 0; i < r.cfg.restores; i++ {
		took, l, err := restore(d.cfg.CheckpointDir, len(samples)+i)
		if err != nil {
			return err
		}
		final = append(final, took)
		restored, err := l.AggregatesJSON()
		if err != nil {
			return err
		}
		r.check(l.Cycle() == d.loop.Cycle(), "restored loop is at cycle %d, the live one at %d", l.Cycle(), d.loop.Cycle())
		r.check(bytes.Equal(restored, live), "restored aggregates differ from the live loop's")

		if _, err := os.Stat(checkpoint.FileName(day01Dir, "serve")); err != nil {
			continue // the window was too short to reach a month's first day
		}
		took, l, err = restore(day01Dir, len(samples)+i)
		if err != nil {
			return err
		}
		first = append(first, took)
		r.check(l.Cycle()%monthDays == 1, "day-1 copy restored at cycle %d", l.Cycle())
	}
	r.set("serve.resume_ms", median(final))
	r.set("serve.resume_ms.day01", median(first))
	return nil
}

// checkpointBytes sizes the checkpoint directory: all files, and the
// standalone tsdb file whose state serve.ckpt also embeds.
func checkpointBytes(dir string) (total, tsdbFile int64) {
	total, _ = dirBytes(dir)
	if info, err := os.Stat(checkpoint.FileName(dir, "serve-tsdb")); err == nil {
		tsdbFile = info.Size()
	}
	return total, tsdbFile
}

func dirBytes(dir string) (int64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var total int64
	for _, e := range entries {
		if info, err := e.Info(); err == nil && info.Mode().IsRegular() {
			total += info.Size()
		}
	}
	return total, nil
}

// copyDir copies dir's regular files into dst, replacing what is there.
func copyDir(dir, dst string) error {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if !e.Type().IsRegular() {
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			return err
		}
	}
	return nil
}

// worldRebuildMS times what every cycle's attack leg does before it replays
// a single event: rebuild the month's seeded world (reverse DNS, intel
// services, source pools, corpus, campaign plan) the way Loop.runCycle does.
// Median of five; the first also fills the universe's lazy caches.
func worldRebuildMS(cfg config) float64 {
	universe := iot.NewUniverse(iot.UniverseConfig{Seed: cfg.seed, Prefix: cfg.prefix, DensityBoost: 16})
	clock := netsim.NewSimClock(netsim.ExperimentStart)
	network := netsim.NewNetwork(clock)
	network.AddProvider(cfg.prefix, universe)
	pots, _ := honeypot.DeployAll(network, netsim.MustParseIPv4("130.226.56.10"))
	monthSeed := prng.New(cfg.seed).Hash64(prng.HashString("serve-month"), 0)

	var durs []float64
	for i := 0; i < 5; i++ {
		start := time.Now()
		rdns := geo.NewRDNS(monthSeed)
		gn := intel.NewGreyNoise(monthSeed, 0.81)
		campaign := attack.NewCampaign(attack.CampaignConfig{
			Seed:       monthSeed,
			Network:    network,
			Honeypots:  pots,
			Universe:   universe,
			Sources:    attack.NewSources(monthSeed, universe, rdns, gn),
			Corpus:     malware.NewCorpus(monthSeed, nil),
			Intensity:  1.0 / 16,
			Workers:    64,
			Clock:      clock,
			GreyNoise:  gn,
			VirusTotal: intel.NewVirusTotal(),
			RDNS:       rdns,
			Days:       1,
		})
		durs = append(durs, ms(time.Since(start).Nanoseconds()))
		runtime.KeepAlive(campaign)
	}
	return median(durs)
}
