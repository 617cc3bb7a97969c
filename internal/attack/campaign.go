package attack

import (
	"context"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"openhire/internal/attack/malware"
	"openhire/internal/checkpoint/wire"
	"openhire/internal/geo"
	"openhire/internal/honeypot"
	"openhire/internal/intel"
	"openhire/internal/iot"
	"openhire/internal/netsim"
	"openhire/internal/prng"
)

// CampaignConfig parameterizes the attack-month replay.
type CampaignConfig struct {
	// Seed drives every stochastic choice.
	Seed uint64
	// Network is the fabric carrying the attacks.
	Network *netsim.Network
	// Honeypots are the deployed targets (from honeypot.DeployAll).
	Honeypots []*honeypot.Honeypot
	// Universe provides infected misconfigured devices (may be nil).
	Universe *iot.Universe
	// Sources manages address pools. Required. NewCampaign builds its pools
	// and multistage actors from it and keeps no reference to it.
	Sources *Sources
	// Corpus is the malware sample set. Required for malware attacks.
	Corpus *malware.Corpus
	// Intensity scales the Table 7 event volumes (1.0 replays all 200,209
	// events; tests use small fractions). Must be > 0.
	Intensity float64
	// Workers is attack concurrency (0 = 64).
	Workers int
	// Clock must be the network's SimClock so honeypot logs carry April
	// 2021 timestamps.
	Clock *netsim.SimClock
	// GreyNoise and VirusTotal, when set, receive source registrations for
	// the classification experiments.
	GreyNoise  *intel.GreyNoise
	VirusTotal *intel.VirusTotal
	// RDNS, when set, is used for scanning-service reverse registration.
	RDNS *geo.RDNS
	// OnDay, when set, is called at each day boundary after the day's jobs
	// have drained and the fabric has quiesced, with the day index and the
	// cumulative planned/run event counts. It runs on the single-threaded
	// scheduler between days — never inside the worker hot path — so wiring
	// a progress reporter or span tracer here cannot perturb the replay;
	// leaving it nil (the default) is byte-identical to not having the hook.
	OnDay func(day, planned, run int)
	// Days, when > 0, bounds how many days each Run call executes before
	// returning (counted from the start day; 0 = the rest of the month).
	// Capturing SchedulerState in the final OnDay and passing it to the next
	// Run steps the month day-by-day — the serve daemon's cadence — with the
	// concatenated runs byte-identical to one uninterrupted Run. When the
	// bound stops short of day 30 the end-of-month clock jump is skipped,
	// leaving the shared SimClock where the next day's Set expects it.
	Days int
}

// CampaignResume is the campaign scheduler's resumable position, captured at
// a day boundary — inside OnDay, after the day's jobs drained and the fabric
// quiesced, where the scheduler is single-threaded and every stochastic
// consumer of the scheduler stream is at rest.
type CampaignResume struct {
	// NextDay is the first day the resumed Run executes.
	NextDay int
	// SrcState is the scheduler PRNG stream position (prng.Source.State).
	SrcState uint64
	// EventsPlanned and EventsRun seed the cumulative counters.
	EventsPlanned int
	EventsRun     int
}

// AppendResume writes a scheduler position; nil writes one byte.
func AppendResume(b []byte, cr *CampaignResume) []byte {
	b = wire.AppendBool(b, cr != nil)
	if cr == nil {
		return b
	}
	b = wire.AppendInt(b, cr.NextDay)
	b = wire.AppendUint(b, cr.SrcState)
	b = wire.AppendInt(b, cr.EventsPlanned)
	return wire.AppendInt(b, cr.EventsRun)
}

// ReadResume decodes what AppendResume wrote.
func ReadResume(r *wire.Reader) *CampaignResume {
	if !r.Bool() {
		return nil
	}
	return &CampaignResume{NextDay: r.Int(), SrcState: r.Uint(), EventsPlanned: r.Int(), EventsRun: r.Int()}
}

// Campaign replays the paper's attack month. It is a value of the month:
// NewCampaign builds the source pools and multistage actors once, and every
// Run replays days of the month from a given scheduler position, so one
// campaign serves the whole month however many calls step it.
type Campaign struct {
	cfg        CampaignConfig
	exec       *Executor
	src        *prng.Source
	pools      map[string]*honeypotPools
	multistage []multistagePlan
	// infected is the Sources' infected set, which RegisterIntel flags.
	infected *Infected
	byName   map[string]*honeypot.Honeypot
	weights  []float64
}

// honeypotPools holds the per-honeypot source pools sized per Table 7.
type honeypotPools struct {
	scanning  []netsim.IPv4
	malicious []netsim.IPv4
	unknown   []netsim.IPv4
}

// campaignBuilds counts NewCampaign calls, for the tests that pin how often
// the serve daemon builds a campaign.
var campaignBuilds atomic.Int64

// NewCampaign validates config, provisions the source pools and plans the
// multistage actors. Both draw from cfg.Sources' stateful pool builder, in
// that order; the campaign keeps what they produced, not the Sources.
func NewCampaign(cfg CampaignConfig) *Campaign {
	campaignBuilds.Add(1)
	if cfg.Intensity <= 0 {
		cfg.Intensity = 1.0
	}
	if cfg.Workers == 0 {
		cfg.Workers = 64
	}
	c := &Campaign{
		cfg:     cfg,
		exec:    NewExecutor(cfg.Network, cfg.Corpus),
		src:     prng.New(cfg.Seed),
		pools:   make(map[string]*honeypotPools),
		byName:  make(map[string]*honeypot.Honeypot),
		weights: DayWeights(),
	}
	for _, hp := range cfg.Honeypots {
		c.byName[hp.Name] = hp
	}

	// Infected devices that target honeypots join the malicious pools.
	c.infected = cfg.Sources.infectedSet()
	var infectedForPots []netsim.IPv4
	if cfg.Universe != nil {
		for i, ip := range c.infected.ips {
			if c.infected.targets[i].Honeypots {
				infectedForPots = append(infectedForPots, ip)
			}
		}
	}

	// Pool sizes follow Table 7's unique-source columns, scaled. The pool
	// builds consume one shared PRNG stream, so honeypots must be visited in
	// a fixed order: ranging over the map here handed each honeypot a
	// different slice of the stream every run (map iteration order is
	// randomized), making the replay's source assignment — and every log
	// derived from it — differ run to run.
	names := make([]string, 0, len(PaperSourcePools))
	for name := range PaperSourcePools {
		names = append(names, name)
	}
	sort.Strings(names)
	idx := 0
	for _, name := range names {
		targets := PaperSourcePools[name]
		if _, deployed := c.byName[name]; !deployed {
			continue
		}
		p := &honeypotPools{
			scanning: cfg.Sources.BuildScanningPool(scaleCount(targets.Scanning, cfg.Intensity)),
			unknown:  cfg.Sources.BuildUnknownPool(scaleCount(targets.Unknown, cfg.Intensity)),
		}
		// Spread infected devices across honeypot pools round-robin, then
		// fill with ordinary malicious hosts.
		var infectedSlice []netsim.IPv4
		for i := idx; i < len(infectedForPots); i += len(PaperSourcePools) {
			infectedSlice = append(infectedSlice, infectedForPots[i])
		}
		idx++
		p.malicious = cfg.Sources.BuildMaliciousPool(
			scaleCount(targets.Malicious, cfg.Intensity), infectedSlice)
		c.pools[name] = p
	}
	c.multistage = c.planMultistage()
	c.cfg.Sources = nil
	return c
}

func scaleCount(n int, intensity float64) int {
	v := int(float64(n) * intensity)
	if v < 1 {
		v = 1
	}
	return v
}

// Stats summarizes a replay.
type Stats struct {
	EventsPlanned int
	EventsRun     int
	Elapsed       time.Duration
}

// Counters flattens the deterministic stat fields for the metrics registry
// and run manifest (Elapsed is wall-clock and excluded).
func (st Stats) Counters() map[string]uint64 {
	return map[string]uint64{
		"events_planned": uint64(st.EventsPlanned),
		"events_run":     uint64(st.EventsRun),
	}
}

// genPool recycles per-job PRNG sources; every job reseeds its source from
// the plan, so recycling cannot leak state between jobs.
var genPool = sync.Pool{New: func() any { return prng.New(0) }}

// Run replays the month: for each day, each (honeypot, protocol) target
// receives its scaled share of events with the calibrated type mix and
// source classes. Events within a day run concurrently; days advance the
// simulation clock sequentially so Figure 8's series is faithful.
//
// With a nil resume Run starts at day 0 from the seed's scheduler stream,
// whatever earlier calls consumed. A resume — what SchedulerState captured
// at a day boundary, in this process or a checkpointed one — restarts at
// resume.NextDay with the stream repositioned and the cumulative counters
// seeded, so the remaining days replay exactly the schedule an uninterrupted
// run would have produced. The caller restores the honeypot logs separately
// (honeypot.Log appends are arrival-order insensitive once
// SortEventsCanonical is applied). CampaignConfig.Days bounds each call.
func (c *Campaign) Run(ctx context.Context, resume *CampaignResume) Stats {
	start := time.Now()
	var stats Stats

	type job struct {
		typ   honeypot.AttackType
		proto iot.Protocol
		src   netsim.IPv4
		dst   netsim.IPv4
		seed  uint64
	}
	// Jobs run on the netsim conversation engine: hash-of-(src,dst) shards,
	// each a single-threaded FIFO lane. The honeypot flood heuristic's
	// counter key (honeypot instance = dst, protocol, source, day) is strictly
	// finer than the (src, dst) routing key, so all events of one counter key
	// execute on one shard, in schedule order. The logs' *content* (including
	// which events the heuristic upgrades to DoS) is therefore a pure
	// function of the plan, independent of shard count; only arrival order
	// varies, which honeypot.SortEventsCanonical factors out. Dials made
	// inside a job also land on the shard's conversation arena, so the whole
	// dialogue recycles shard-local state instead of allocating.
	engine := netsim.NewConvEngine(c.cfg.Workers)
	// dayWG drains in-flight jobs at day boundaries so every event is
	// stamped with the day it was scheduled for — Figure 8's daily series
	// and the multistage stage ordering depend on it.
	var dayWG sync.WaitGroup
	var runCount atomic.Int64
	dispatch := func(j job) {
		dayWG.Add(1)
		accepted := engine.Submit(ctx, j.src, j.dst, func(jctx context.Context) {
			gen := genPool.Get().(*prng.Source)
			gen.Reseed(j.seed)
			_ = c.exec.Execute(jctx, j.typ, j.proto, j.src, j.dst, gen)
			genPool.Put(gen)
			runCount.Add(1)
			dayWG.Done()
		})
		if !accepted { // context cancelled before the shard took the job
			dayWG.Done()
		}
	}

	// A position is only the scheduler stream and counters: the pools and
	// multistage plans are the month's, built once by NewCampaign.
	startDay := 0
	c.src.Reseed(c.cfg.Seed)
	if r := resume; r != nil {
		startDay = r.NextDay
		c.src.SetState(r.SrcState)
		stats.EventsPlanned = r.EventsPlanned
		runCount.Store(int64(r.EventsRun))
	}
	endDay := ExperimentDays
	if c.cfg.Days > 0 && startDay+c.cfg.Days < endDay {
		endDay = startDay + c.cfg.Days
	}

	for day := startDay; day < endDay; day++ {
		if ctx.Err() != nil {
			break
		}
		// The day schedule is monotonic by construction (each day's stamp is
		// past the previous day's), so a refused Set is a driver bug; fail
		// loudly rather than logging events into a silently skewed timeline.
		if err := c.cfg.Clock.Set(DayStart(day).Add(time.Duration(day%7) * time.Minute)); err != nil {
			panic("attack: campaign day schedule not monotonic: " + err.Error())
		}
		for _, target := range PaperTargets {
			hp, ok := c.byName[target.Honeypot]
			if !ok {
				continue
			}
			pools := c.pools[target.Honeypot]
			quota := float64(target.Events) * c.cfg.Intensity * c.weights[day] /
				LogAmplificationFor(target.Honeypot, target.Protocol)
			dayEvents := int(quota)
			if dayEvents == 0 && c.src.Bool(quota) {
				dayEvents = 1
			}
			mix, hasMix := ProtocolTypeMix[target.Protocol]
			for i := 0; i < dayEvents; i++ {
				typ := honeypot.AttackScan
				if hasMix {
					typ = sampleType(c.src, mix)
				}
				// DoS spike days skew toward floods.
				if isDoSSpike(day) && c.src.Bool(0.5) {
					if target.Protocol == iot.ProtoCoAP || target.Protocol == iot.ProtoUPnP ||
						target.Protocol == iot.ProtoHTTP || target.Protocol == iot.ProtoS7 {
						typ = honeypot.AttackDoS
					}
				}
				src := c.pickSource(pools, target.Protocol, typ)
				stats.EventsPlanned++
				dispatch(job{typ: typ, proto: target.Protocol, src: src, dst: hp.IP,
					seed: c.src.Uint64()})
			}
		}
		// Multistage actors run one stage per day: the paper notes follow-up
		// attacks from the same adversary arrive days apart (Section 5.4),
		// and consecutive days give the stages unambiguous time order.
		for _, m := range c.multistage {
			stageIdx := day - m.day
			if stageIdx < 0 || stageIdx >= len(m.steps) {
				continue
			}
			step := m.steps[stageIdx]
			hp, ok := c.byName[step.pot]
			if !ok {
				continue
			}
			stats.EventsPlanned++
			dispatch(job{typ: step.typ, proto: step.proto, src: m.src, dst: hp.IP,
				seed: c.src.Uint64()})
		}
		// Drain before the clock moves to the next day: first the job queues
		// (clients returned), then the fabric's server handlers — a returned
		// client does not mean the honeypot finished logging the
		// conversation, and a handler outliving the day boundary would stamp
		// its tail events into the wrong Figure 8 bucket.
		dayWG.Wait()
		c.cfg.Network.Quiesce()
		if c.cfg.OnDay != nil {
			c.cfg.OnDay(day, stats.EventsPlanned, int(runCount.Load()))
		}
	}
	engine.Close()
	c.cfg.Network.Quiesce() // the log is complete once Run returns
	// Leave the clock at the end of the month — but only when the month
	// actually ended. A Days-bounded call stopping mid-month must leave the
	// clock inside the month, or the next call's first day Set would move
	// backwards and panic.
	if endDay == ExperimentDays {
		if err := c.cfg.Clock.Set(DayStart(ExperimentDays)); err != nil {
			panic("attack: end-of-month clock set not monotonic: " + err.Error())
		}
	}
	stats.EventsRun = int(runCount.Load())
	stats.Elapsed = time.Since(start)
	return stats
}

// SchedulerState captures the scheduler's position for checkpointing. Call
// it from inside OnDay(day, planned, run): the returned state resumes the
// month at day+1. Calling it anywhere else races the worker pool.
func (c *Campaign) SchedulerState(day, planned, run int) CampaignResume {
	return CampaignResume{
		NextDay:       day + 1,
		SrcState:      c.src.State(),
		EventsPlanned: planned,
		EventsRun:     run,
	}
}

func isDoSSpike(day int) bool {
	for _, d := range DoSSpikeDays {
		if d == day {
			return true
		}
	}
	return false
}

// sampleTypeOrder fixes the iteration order for determinism.
var sampleTypeOrder = [...]honeypot.AttackType{
	honeypot.AttackScan, honeypot.AttackBruteForce, honeypot.AttackDictionary,
	honeypot.AttackMalware, honeypot.AttackPoisoning, honeypot.AttackDoS,
	honeypot.AttackReflection, honeypot.AttackExploit, honeypot.AttackWebScrape,
}

// sampleType draws an attack type from a mix.
func sampleType(src *prng.Source, mix TypeMix) honeypot.AttackType {
	var weights [len(sampleTypeOrder)]float64
	for i, t := range sampleTypeOrder {
		weights[i] = mix[t]
	}
	return sampleTypeOrder[src.WeightedChoice(weights[:])]
}

// pickSource draws a source address appropriate for the attack type:
// scanning events come mostly from scanning services, everything else from
// the malicious or unknown pools. Malicious sources are sharded per
// protocol — real botnets specialize (a Telnet worm does not also poke
// Modbus) — which keeps organic cross-protocol reuse rare so the deliberate
// multistage actors (Section 5.4) dominate the multistage analysis.
func (c *Campaign) pickSource(p *honeypotPools, proto iot.Protocol, typ honeypot.AttackType) netsim.IPv4 {
	switch typ {
	case honeypot.AttackScan, honeypot.AttackWebScrape:
		roll := c.src.Float64()
		switch {
		case roll < 0.5 && len(p.scanning) > 0:
			return p.scanning[c.src.Intn(len(p.scanning))]
		case roll < 0.8 && len(p.unknown) > 0:
			return c.shardPick(p.unknown, proto)
		default:
			return c.shardPick(p.malicious, proto)
		}
	default:
		if len(p.malicious) == 0 {
			return c.shardPick(p.unknown, proto)
		}
		return c.shardPick(p.malicious, proto)
	}
}

// protocolShard maps each honeypot-exposed protocol to a distinct pool
// shard; the assignment must be collision-free or two protocols would share
// sources and register as phantom multistage attacks.
var protocolShard = map[iot.Protocol]int{
	iot.ProtoTelnet: 0, iot.ProtoSSH: 1, iot.ProtoMQTT: 2, iot.ProtoAMQP: 3,
	iot.ProtoXMPP: 4, iot.ProtoCoAP: 5, iot.ProtoUPnP: 6, iot.ProtoHTTP: 7,
	iot.ProtoSMB: 8, iot.ProtoS7: 9, iot.ProtoModbus: 10, iot.ProtoFTP: 11,
}

// shardPick selects from the protocol's shard of a pool.
func (c *Campaign) shardPick(pool []netsim.IPv4, proto iot.Protocol) netsim.IPv4 {
	n := len(pool)
	shards := len(protocolShard)
	shardSize := n / shards
	if shardSize == 0 {
		return pool[c.src.Intn(n)]
	}
	base := protocolShard[proto] * shardSize
	return pool[base+c.src.Intn(shardSize)]
}

// multistagePlan is one deliberate multi-protocol adversary (Section 5.4).
type multistagePlan struct {
	src   netsim.IPv4
	day   int
	steps []multistageStep
}

type multistageStep struct {
	pot   string
	proto iot.Protocol
	typ   honeypot.AttackType
}

// planMultistage builds the Figure 9 adversaries: sequences starting with
// Telnet/SSH, hitting SMB heavily at stage two and S7 at stage three. Each
// actor's address comes from cfg.Sources' pool builder, so it runs once,
// right after the pools, in NewCampaign.
func (c *Campaign) planMultistage() []multistagePlan {
	// Keep enough actors for the Figure 9 stage distribution to be visible
	// even in heavily scaled-down replays.
	count := max(scaleCount(PaperMultistageCount, c.cfg.Intensity), 10)
	gen := c.src.Derive(prng.HashString("multistage"))
	var plans []multistagePlan
	for i := 0; i < count; i++ {
		src := c.cfg.Sources.BuildMaliciousPool(1, nil)[0]
		// Start early enough that a three-stage sequence fits the month.
		plan := multistagePlan{src: src, day: gen.Intn(ExperimentDays - 3)}
		// Stage 1: Telnet or SSH (the majority per Figure 9).
		if gen.Bool(0.6) {
			plan.steps = append(plan.steps, multistageStep{"Cowrie", iot.ProtoTelnet, honeypot.AttackBruteForce})
		} else {
			plan.steps = append(plan.steps, multistageStep{"Cowrie", iot.ProtoSSH, honeypot.AttackBruteForce})
		}
		// Stage 2: SMB receives most second-step attacks.
		if gen.Bool(0.75) {
			plan.steps = append(plan.steps, multistageStep{"HosTaGe", iot.ProtoSMB, honeypot.AttackExploit})
		} else {
			plan.steps = append(plan.steps, multistageStep{"HosTaGe", iot.ProtoHTTP, honeypot.AttackWebScrape})
		}
		// Stage 3 (some actors): S7.
		if gen.Bool(0.5) {
			plan.steps = append(plan.steps, multistageStep{"Conpot", iot.ProtoS7, honeypot.AttackPoisoning})
		}
		plans = append(plans, plan)
	}
	return plans
}

// RegisterIntel populates GreyNoise/VirusTotal from the replayed events —
// the honeypot log's, which the caller has gathered anyway: vendor flag
// probability follows the worst behaviour a source exhibited, so
// exploit/malware actors (SMB's EternalBlue droppers) are flagged most
// often — the Figure 6 shape where SMB sources lead the malicious share.
func (c *Campaign) RegisterIntel(events []honeypot.Event) {
	if c.cfg.VirusTotal == nil {
		return
	}
	gen := c.src.Derive(prng.HashString("vt"))
	flagProb := map[honeypot.AttackType]float64{
		honeypot.AttackExploit:    0.97,
		honeypot.AttackMalware:    0.95,
		honeypot.AttackDoS:        0.72,
		honeypot.AttackPoisoning:  0.68,
		honeypot.AttackDictionary: 0.66,
		honeypot.AttackBruteForce: 0.60,
		honeypot.AttackReflection: 0.50,
		honeypot.AttackWebScrape:  0.30,
		honeypot.AttackScan:       0.22,
	}
	// The campaign's sources are its pools and multistage actors, so its
	// scanning-service sources are exactly its scanning pools.
	scanning := make(map[netsim.IPv4]bool)
	for _, p := range c.pools {
		for _, ip := range p.scanning {
			scanning[ip] = true
		}
	}
	// Worst observed behaviour per source.
	worst := make(map[netsim.IPv4]float64)
	for _, ev := range events {
		if scanning[ev.Src] {
			continue // benign infrastructure is not VT-flagged
		}
		if p := flagProb[ev.Type]; p > worst[ev.Src] {
			worst[ev.Src] = p
		}
	}
	// Iterate in address order: map range order is randomized, and the
	// flag draws below consume a shared stream, so an unsorted walk would
	// flag a different subset of sources every run.
	ips := make([]netsim.IPv4, 0, len(worst))
	for ip := range worst {
		ips = append(ips, ip)
	}
	sort.Slice(ips, func(i, j int) bool { return ips[i] < ips[j] })
	for _, ip := range ips {
		p := worst[ip]
		if gen.Bool(p) {
			c.cfg.VirusTotal.FlagIP(ip, 1+gen.Zipf(20, 1.3))
		}
		if c.cfg.GreyNoise != nil && p >= 0.6 && gen.Bool(0.6) {
			c.cfg.GreyNoise.RegisterMalicious(ip)
		}
	}
	// Every infected misconfigured device is VT-flagged: the paper reports
	// all 11,118 were flagged by at least one vendor (Section 5.3).
	for _, ip := range c.infected.IPs() {
		c.cfg.VirusTotal.FlagIP(ip, 1+gen.Zipf(10, 1.5))
	}
}
