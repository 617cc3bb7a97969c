package serve

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"openhire/internal/attack"
	"openhire/internal/attack/malware"
	"openhire/internal/checkpoint"
	"openhire/internal/checkpoint/atomicio"
	"openhire/internal/checkpoint/crashpoint"
	"openhire/internal/core/scan"
	"openhire/internal/geo"
	"openhire/internal/honeypot"
	"openhire/internal/iot"
	"openhire/internal/netsim"
	"openhire/internal/obs"
	"openhire/internal/obs/tsdb"
	"openhire/internal/prng"
	"openhire/internal/telescope"
)

// monthDays is the length of one attack month in cycles: the daemon replays
// the paper's calibrated month over and over, reseeding per month.
const monthDays = attack.ExperimentDays

// DefaultSegmentsPerCycle is how many scan segment commits one cycle drains.
const DefaultSegmentsPerCycle = 4

// errPause is the onCommit sentinel that stops the segmented scanner after
// this cycle's segment allowance; the committed state resumes next cycle.
var errPause = errors.New("serve: pause sweep until next cycle")

// Config parameterizes the daemon.
type Config struct {
	// Seed drives every leg. Month m reseeds the campaign and darknet with
	// Hash64("serve-month", m); sweep s reseeds the scan permutation with
	// Hash64("serve-sweep", s) — so cycles far apart stay decorrelated while
	// remaining pure functions of (Seed, Config).
	Seed uint64
	// Prefix is the scanned (and attack-sourced) IoT population range.
	Prefix netsim.Prefix
	// Boost is the universe density boost (0 = 16).
	Boost float64
	// Workers is per-leg concurrency (0 = 64).
	Workers int
	// Intensity scales the attack month's event volume (0 = 1/16).
	Intensity float64
	// Scale divides the telescope's paper volumes (0 = 1/8192).
	Scale float64
	// SegmentsPerCycle is the scan segment commits drained per cycle
	// (0 = DefaultSegmentsPerCycle).
	SegmentsPerCycle int
	// SegmentTargets sizes each scan segment (0 = scan default).
	SegmentTargets int
	// CheckpointDir, when set, commits durable state every cycle; Resume
	// continues from the checkpoint found there (fresh start if none).
	CheckpointDir string
	Resume        bool
	// TelescopeDir, when set, persists each cycle's drained telescope
	// capture as rotated hourly binary FlowTuple files under this directory.
	TelescopeDir string
	// TSDBDisabled turns the time-series observatory off entirely. The
	// zero-perturbation gate compares runs with it on and off.
	TSDBDisabled bool
	// TSDBRetention overrides the observatory's raw retention window in
	// cycles (0 = tsdb default).
	TSDBRetention int
	// Registry, when set, receives watermark gauges at each cycle commit.
	Registry *obs.Registry
	// OnPublish, when set, is called with each published snapshot after the
	// cycle's checkpoint (if any) is durable. It runs on the single-threaded
	// cycle driver; tests hang determinism probes here.
	OnPublish func(*Published)
}

// withDefaults resolves the zero values.
func (c Config) withDefaults() Config {
	if c.Boost == 0 {
		c.Boost = 16
	}
	if c.Workers == 0 {
		c.Workers = 64
	}
	if c.Intensity == 0 {
		c.Intensity = 1.0 / 16
	}
	if c.Scale == 0 {
		c.Scale = 1.0 / 8192
	}
	if c.SegmentsPerCycle <= 0 {
		c.SegmentsPerCycle = DefaultSegmentsPerCycle
	}
	return c
}

// monthState is the attack month's live world: the honeypots' log, the
// darknet generator and the month's campaign (which holds the fabric and its
// clock), all seeded for the current month and discarded at the month
// boundary. Rebuilt after a restore by replaying construction, which gives
// the generator a fresh source bitset.
type monthState struct {
	log      *honeypot.Log
	gen      *attack.DarknetGenerator
	campaign *attack.Campaign
}

// cycleName formats the serve chain's record names by chain index.
const cycleName = "cycle%04d"

// Loop is the cycle driver. All fields are owned by the single goroutine
// calling Run; concurrent readers only ever see the Publisher's snapshots.
type Loop struct {
	cfg Config
	pub *Publisher
	agg *Aggregates

	// Shared across months and sweeps: the scanned population and the geo
	// database are seed-global, like the batch binaries'.
	universe *iot.Universe
	geodb    *geo.DB
	scanNet  *netsim.Network
	modules  []scan.ProbeModule

	cycle          int
	month          *monthState
	campaignResume *attack.CampaignResume
	scanner        *scan.Scanner
	scanState      *scan.SegmentedState
	ckpts          []obs.CheckpointRecord

	// obsv is the time-series observatory (nil when disabled). telFiles
	// accumulates persisted hourly telescope file digests; lastCkptCycle
	// backs the /api/status checkpoint-lag gauge.
	obsv          *Observatory
	telFiles      map[string]string
	lastCkptCycle int
}

// New builds a Loop (fresh, cycle 0). Call Restore before Run to continue
// from a checkpoint.
func New(cfg Config) *Loop {
	cfg = cfg.withDefaults()
	universe := iot.NewUniverse(iot.UniverseConfig{
		Seed: cfg.Seed, Prefix: cfg.Prefix, DensityBoost: cfg.Boost,
	})
	scanNet := netsim.NewNetwork(netsim.NewSimClock(netsim.ExperimentStart))
	scanNet.AddProvider(cfg.Prefix, universe)
	return &Loop{
		cfg:      cfg,
		pub:      &Publisher{},
		agg:      &Aggregates{},
		universe: universe,
		geodb:    geo.NewDB(cfg.Seed, nil),
		scanNet:  scanNet,
		modules:  scan.AllModules(),
		obsv:     newObservatory(cfg),
	}
}

// Publisher returns the snapshot publisher the API handlers read.
func (l *Loop) Publisher() *Publisher { return l.pub }

// Observatory returns the time-series observatory (nil when disabled).
func (l *Loop) Observatory() *Observatory { return l.obsv }

// Cycle returns the number of completed cycles.
func (l *Loop) Cycle() int { return l.cycle }

// Checkpoints returns the records committed so far (for the manifest).
func (l *Loop) Checkpoints() []obs.CheckpointRecord { return l.ckpts }

// TelescopeFiles returns the persisted hourly capture digests (for the
// manifest); nil when TelescopeDir is unset.
func (l *Loop) TelescopeFiles() map[string]string { return l.telFiles }

// monthSeed derives month m's campaign/darknet seed.
func (l *Loop) monthSeed(m int) uint64 {
	return prng.New(l.cfg.Seed).Hash64(prng.HashString("serve-month"), uint64(m))
}

// sweepSeed derives sweep s's scan permutation seed.
func (l *Loop) sweepSeed(s int) uint64 {
	return prng.New(l.cfg.Seed).Hash64(prng.HashString("serve-sweep"), uint64(s))
}

// buildMonth replays month m's world construction: a fresh clock and fabric,
// the six honeypots, the month's infected-device set — the one universe walk
// of the month —, a darknet generator and the month's campaign,
// each over a Sources of its own that uses that set, so the generator's
// infected Telnet scanners are the same devices the campaign infects and the
// Section 5.3 cross-dataset joins stay faithful. The campaign — source pools,
// multistage actors, malware corpus — is built here once; every cycle steps
// it one day, and its OnDay hands the scheduler position to the next cycle.
func (l *Loop) buildMonth(m int) *monthState {
	ms := l.monthSeed(m)
	clock := netsim.NewSimClock(netsim.ExperimentStart)
	network := netsim.NewNetwork(clock)
	network.AddProvider(l.cfg.Prefix, l.universe)
	pots, log := honeypot.DeployAll(network, netsim.MustParseIPv4("130.226.56.10"))
	infected := attack.DeriveInfected(ms, l.universe)
	gen := attack.NewDarknetGenerator(l.darknetConfig(ms, infected))
	var campaign *attack.Campaign
	campaign = attack.NewCampaign(attack.CampaignConfig{
		Seed:      ms,
		Network:   network,
		Honeypots: pots,
		Universe:  l.universe,
		Sources:   l.monthSources(ms, infected),
		Corpus:    malware.NewCorpus(ms, nil),
		Intensity: l.cfg.Intensity,
		Workers:   l.cfg.Workers,
		Clock:     clock,
		Days:      1,
		OnDay: func(day, planned, run int) {
			pos := campaign.SchedulerState(day, planned, run)
			l.campaignResume = &pos
		},
	})
	return &monthState{log: log, gen: gen, campaign: campaign}
}

// monthSources is a Sources of its own for one of month seed ms's
// generators, over the month's infected set.
func (l *Loop) monthSources(ms uint64, infected *attack.Infected) *attack.Sources {
	s := attack.NewSources(ms, l.universe, nil, nil)
	s.UseInfected(infected)
	return s
}

// darknetConfig configures month seed ms's darknet generator, with a
// telescope of its own whose prefix the generator draws destinations from.
func (l *Loop) darknetConfig(ms uint64, infected *attack.Infected) attack.DarknetConfig {
	return attack.DarknetConfig{
		Seed:      ms,
		Telescope: telescope.New(netsim.MustParsePrefix("44.0.0.0/8"), nil),
		Sources:   l.monthSources(ms, infected),
		GeoDB:     l.geodb,
		Scale:     l.cfg.Scale,
		Days:      monthDays,
		Workers:   l.cfg.Workers,
	}
}

// Restore loads the checkpoint from cfg.CheckpointDir, if one exists: leg
// positions and aggregates only. The next cycle rebuilds the month world, whose
// log starts empty — every committed day was drained and folded into Agg
// before its commit — and a restored sweep's scanner starts with no results,
// which were folded into Agg as their segments drained. Returns whether a
// checkpoint was found. A serve.ckpt in another payload format (a JSON one
// from an older build) is refused with checkpoint.ErrPayloadFormat; the state
// is derivable, so a fresh run replaces it.
func (l *Loop) Restore() (bool, error) {
	dir := l.cfg.CheckpointDir
	payload, rec, err := checkpoint.LoadPayload(dir, "serve", l.cfg.Seed)
	if errors.Is(err, os.ErrNotExist) {
		return false, nil
	}
	if err != nil {
		return false, err
	}
	st, _, err := DecodeCheckpoint(payload)
	if err != nil {
		return false, fmt.Errorf("%s: %w: %w", checkpoint.FileName(dir, "serve"), checkpoint.ErrCorruptCheckpoint, err)
	}
	// The loaded file's own record joins the chain under the name its index
	// gives it, so the chain is independent of kill history.
	rec.Name = fmt.Sprintf(cycleName, len(st.Checkpoints))
	l.cycle = st.Cycle
	l.agg = st.Agg
	l.campaignResume = st.Campaign
	l.scanState = st.Scan
	l.ckpts = append(st.Checkpoints, rec)
	l.telFiles = st.TelescopeFiles
	l.lastCkptCycle = st.Cycle
	if l.obsv != nil && st.TSDB != nil {
		// The embedded state is the source of truth; the standalone file is
		// rewritten when its digest disagrees (the kill landed between the
		// two renames of the commit group), so the file converges on the
		// uninterrupted run's bytes regardless of kill history.
		if err := l.obsv.Sim.LoadState(st.TSDB); err != nil {
			return false, fmt.Errorf("checkpoint tsdb: %w", err)
		}
		path := checkpoint.FileName(dir, "serve-tsdb")
		data, err := os.ReadFile(path)
		if err != nil || obs.Digest(data) != st.TSDBDigest {
			if err := atomicio.WriteFileBytes(path, l.tsdbFile("serve-tsdb", st.TSDB)); err != nil {
				return false, err
			}
		}
	}
	if l.obsv != nil {
		// Wall stream: best effort. Profiling history survives restarts when
		// the file is readable; otherwise the stream just starts fresh.
		if payload, _, err := checkpoint.LoadPayload(dir, "serve-tsdb-wall", l.cfg.Seed); err == nil {
			if wallSt, err := tsdb.DecodeState(payload); err == nil {
				if err := l.obsv.Wall.LoadState(wallSt); err != nil {
					l.obsv.Wall = tsdb.New(l.obsv.Sim.Options())
				}
			}
		}
	}
	// Publish the restored position immediately: the API answers from the
	// committed watermark while the next cycle runs.
	snap, err := render(l.agg, l.cycle)
	if err != nil {
		return false, err
	}
	return true, l.publish(snap)
}

// tsdbFile encodes a time-series state as the leg's standalone checkpoint.
func (l *Loop) tsdbFile(leg string, st *tsdb.State) []byte {
	return checkpoint.Encode(leg, l.cfg.Seed, st.AppendBinary(nil))
}

// Run drives cycles until ctx is cancelled or, when cycles > 0, the total
// completed-cycle count reaches cycles (a resumed run continues toward the
// same target). Cancellation is honored at cycle boundaries only — a cycle's
// legs always run to their commit barrier, so determinism never depends on
// when the signal lands.
func (l *Loop) Run(ctx context.Context, cycles int) error {
	for cycles <= 0 || l.cycle < cycles {
		if ctx.Err() != nil {
			return nil
		}
		if err := l.runCycle(); err != nil {
			return err
		}
	}
	return nil
}

// runCycle executes one simulated day across all three legs and commits.
func (l *Loop) runCycle() error {
	m, d := l.cycle/monthDays, l.cycle%monthDays
	// The cycle span attributes wall time across the legs — from the month
	// build to the rendered bodies — for the tsdb wall stream and
	// /api/status; it never touches sim state.
	var span *obs.CycleSpan
	if l.obsv != nil {
		span = obs.StartCycleSpan()
	}
	if l.month == nil {
		l.month = l.buildMonth(m)
		span.Mark("month")
	}

	// Attack leg: the month's campaign runs one day from the position the
	// last cycle — or the checkpoint — left (nil on the month's first day);
	// its OnDay moves l.campaignResume to the next day.
	// context.Background() deliberately: a mid-day cancel would tear the
	// fabric mid-flight and break byte-identity. Run's boundary check is the
	// only cancellation point.
	l.month.campaign.Run(context.Background(), l.campaignResume)
	span.Mark("campaign")

	// Telescope leg: fold the darknet day as it is generated — volume,
	// rotation buckets and fresh sources into the day's trend row; when
	// TelescopeDir is set, the units also encode their records per hour and
	// the day is persisted as rotated hourly capture files.
	units := l.month.gen.FoldDay(d, l.cfg.TelescopeDir != "")
	l.agg.FoldDarknetDay(l.cycle, units)
	if l.cfg.TelescopeDir != "" {
		if l.telFiles == nil {
			l.telFiles = make(map[string]string)
		}
		if err := writeHourFiles(l.cfg.TelescopeDir, l.cycle, units, l.telFiles); err != nil {
			return err
		}
	}
	span.Mark("telescope")

	// Honeypot trends: drain the events the campaign day logged and fold
	// them into the day's row, like the telescope day above.
	l.agg.FoldAttackDay(l.cycle, l.month.log.Drain())
	span.Mark("honeypots")

	// Scan leg: drain this cycle's segment allowance.
	if err := l.stepScan(); err != nil {
		return err
	}
	span.Mark("scan")

	if d == monthDays-1 {
		// Month complete: the world is discarded; next cycle reseeds.
		l.month = nil
		l.campaignResume = nil
	}
	l.cycle++
	return l.commit(span)
}

// stepScan advances the in-flight sweep by up to SegmentsPerCycle segment
// commits, folding each drained segment into the exposure tables. A sweep
// that finishes inside the allowance closes out; the next cycle starts the
// next sweep with a fresh permutation seed.
func (l *Loop) stepScan() error {
	if l.scanner == nil {
		l.scanner = scan.NewScanner(scan.Config{
			Network:   l.scanNet,
			Source:    netsim.MustParseIPv4("130.226.0.1"),
			Prefix:    l.cfg.Prefix,
			Seed:      l.sweepSeed(l.agg.Exposure.Sweep),
			Workers:   l.cfg.Workers,
			OnSegment: l.agg.FoldSegment,
		})
	}
	segs := 0
	onCommit := func(st *scan.SegmentedState) error {
		l.scanState = st
		segs++
		if segs >= l.cfg.SegmentsPerCycle {
			return errPause
		}
		return nil
	}
	_, stats, err := l.scanner.Run(context.Background(), l.modules, l.scanState, l.cfg.SegmentTargets, onCommit)
	switch {
	case err == nil:
		l.agg.FoldSweepStats(stats)
		l.agg.FinishSweep()
		l.scanner = nil
		l.scanState = nil
	case errors.Is(err, errPause):
		// Sweep paused mid-prefix; l.scanState resumes it next cycle.
	default:
		return err
	}
	return nil
}

// commit makes the finished cycle durable (when checkpointing) and publishes
// the snapshot — in that order, so a published watermark is always backed by
// a checkpoint at least as new. The aggregate bodies are rendered inside the
// cycle span, as its publish leg; the status body, which reports the
// finished span, after it. The observatory samples happen at the same
// barrier: the sim stream before the checkpoint (its state rides inside it),
// the wall stream after (it is excluded from every durability guarantee).
func (l *Loop) commit(span *obs.CycleSpan) error {
	cyc := int64(l.cycle - 1)
	l.obsv.appendSim(cyc, l.agg, inflightScanStats(l.scanState))
	if l.cfg.CheckpointDir != "" {
		if err := l.writeCheckpoint(); err != nil {
			return err
		}
		crashpoint.Here(crashpoint.SiteServeCycleCommit)
	}
	span.Mark("commit")
	snap, err := render(l.agg, l.cycle)
	if err != nil {
		return err
	}
	span.Mark("publish")
	legs, total := span.Finish()
	l.obsv.appendWall(cyc, legs, total)
	l.obsv.publish()
	if l.cfg.CheckpointDir != "" && l.obsv != nil {
		// The wall file is profiling history only: no crashpoint, no digest,
		// no determinism claim — Restore loads it leniently.
		path := checkpoint.FileName(l.cfg.CheckpointDir, "serve-tsdb-wall")
		if err := atomicio.WriteFileBytes(path, l.tsdbFile("serve-tsdb-wall", l.obsv.Wall.State())); err != nil {
			return err
		}
	}
	return l.publish(snap)
}

// writeCheckpoint commits serve.ckpt — and, with the observatory on, the
// standalone serve-tsdb.ckpt whose digest it records — as one durable group:
// both files staged and fsynced together, renamed tsdb first, then one
// directory sync. A kill between the renames leaves a new tsdb file beside
// the previous serve.ckpt, which Restore rewrites from the embedded state.
func (l *Loop) writeCheckpoint() error {
	dir := l.cfg.CheckpointDir
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	st := Checkpoint{
		Cycle:          l.cycle,
		Campaign:       l.campaignResume,
		Scan:           l.scanState,
		Agg:            l.agg,
		TelescopeFiles: l.telFiles,
		Checkpoints:    l.ckpts,
	}
	var legs []string
	var files [][]byte
	if l.obsv != nil {
		st.TSDB = l.obsv.Sim.State()
		tsFile := l.tsdbFile("serve-tsdb", st.TSDB)
		st.TSDBDigest = obs.Digest(tsFile)
		legs, files = append(legs, "serve-tsdb"), append(files, tsFile)
	}
	data := checkpoint.Encode("serve", l.cfg.Seed, st.AppendBinary(nil))
	legs, files = append(legs, "serve"), append(files, data)
	names := make([]string, len(legs))
	for i, leg := range legs {
		names[i] = filepath.Base(checkpoint.FileName(dir, leg))
	}
	err := atomicio.WriteGroup(dir, names, func(i int, w io.Writer) error {
		_, err := w.Write(files[i])
		return err
	})
	if err != nil {
		return err
	}
	l.ckpts = append(l.ckpts, obs.CheckpointRecord{
		Name: fmt.Sprintf(cycleName, len(l.ckpts)), Bytes: int64(len(data)), Digest: obs.Digest(data),
	})
	l.lastCkptCycle = l.cycle
	return nil
}

// publish completes snap, the bodies render made for the current position,
// with the status body, and swaps it in.
func (l *Loop) publish(snap *Published) error {
	st := statusBody{
		Watermark:        snap.Watermark,
		Seed:             l.cfg.Seed,
		Prefix:           l.cfg.Prefix.String(),
		Intensity:        l.cfg.Intensity,
		Scale:            l.cfg.Scale,
		SegmentsPerCycle: l.cfg.SegmentsPerCycle,
		SegmentTargets:   l.cfg.SegmentTargets,
	}
	if l.obsv != nil {
		legs, total := l.obsv.LastCycleWall()
		ops := &OpsStatus{
			CyclesCompleted:     l.cycle,
			LastCycleWallNS:     total.Nanoseconds(),
			CheckpointLag:       l.cycle - l.lastCkptCycle,
			TSDBRetentionCycles: l.obsv.Retention(),
			TSDBSeries:          l.obsv.SeriesCount(),
		}
		for _, leg := range legs {
			if ops.LegWallNS == nil {
				ops.LegWallNS = make(map[string]int64, len(legs))
			}
			ops.LegWallNS[leg.Name] = leg.WallNS
		}
		st.Ops = ops
	}
	var err error
	if snap.Status, err = marshalBody(st); err != nil {
		return err
	}
	l.pub.Publish(snap)
	if reg := l.cfg.Registry; reg != nil {
		w := snap.Watermark
		reg.SetGauge("serve.cycle", float64(w.Cycle))
		reg.SetGauge("serve.sweeps_complete", float64(w.SweepsComplete))
		reg.SetGauge("serve.targets_fed", float64(w.TargetsFed))
		reg.SetGauge("serve.attack_events", float64(w.AttackEvents))
		reg.SetGauge("serve.telescope_flows", float64(w.TelescopeFlows))
	}
	if l.cfg.OnPublish != nil {
		l.cfg.OnPublish(snap)
	}
	return nil
}

// AggregatesJSON renders the -out artifact: watermark, full aggregate state
// and the correlation joins, newline-terminated. Byte-identical for a given
// (seed, config, cycle) across runs, worker counts and kill/resume.
func (l *Loop) AggregatesJSON() ([]byte, error) {
	return marshalBody(struct {
		Watermark   Watermark   `json:"watermark"`
		Aggregates  *Aggregates `json:"aggregates"`
		Correlation Correlation `json:"correlation"`
	}{l.agg.Watermark(l.cycle), l.agg, l.agg.Correlation()})
}
