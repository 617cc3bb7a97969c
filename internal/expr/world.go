// Package expr is the experiment harness: it assembles the full simulated
// world (universe, network, honeypots, telescope, adversaries, intel) and
// exposes one experiment per table and figure in the paper's evaluation,
// each producing a rendered artifact plus paper-vs-measured comparisons.
package expr

import (
	"context"
	"sort"
	"sync"

	"openhire/internal/attack"
	"openhire/internal/attack/malware"
	"openhire/internal/core/classify"
	"openhire/internal/core/fingerprint"
	"openhire/internal/core/scan"
	"openhire/internal/datasets"
	"openhire/internal/geo"
	"openhire/internal/honeypot"
	"openhire/internal/intel"
	"openhire/internal/iot"
	"openhire/internal/netsim"
	"openhire/internal/obs"
	"openhire/internal/telescope"
)

// WorldConfig sizes the simulated world. The default reproduces the paper at
// 1/1024 of IPv4: a /14 universe with 16× density boost, so every expected
// count is paper_count/1024.
type WorldConfig struct {
	Seed uint64
	// UniversePrefix is the scanned population range.
	UniversePrefix netsim.Prefix
	// DensityBoost multiplies device densities (see iot.UniverseConfig).
	DensityBoost float64
	// HoneypotBoost oversamples wild honeypots (0 = DensityBoost).
	HoneypotBoost float64
	// AttackIntensity scales Table 7 event volumes.
	AttackIntensity float64
	// TelescopeScale scales Table 8 volumes.
	TelescopeScale float64
	// ScannerSource is the research scanner's address.
	ScannerSource netsim.IPv4
	// Workers bounds concurrency in scans and attack replay.
	Workers int
}

// telescopePrefix is the darknet range.
var telescopePrefix = netsim.MustParsePrefix("44.0.0.0/8")

// DefaultConfig is the standard experiment world: 1/1024 of the paper's
// dimensions throughout.
func DefaultConfig() WorldConfig {
	return WorldConfig{
		Seed:            2021,
		UniversePrefix:  netsim.MustParsePrefix("100.0.0.0/14"),
		DensityBoost:    16,
		AttackIntensity: 1.0 / 16, // ~12.5k replayed protocol conversations
		TelescopeScale:  1.0 / 8192,
		ScannerSource:   netsim.MustParseIPv4("130.226.0.1"),
		Workers:         128,
	}
}

// QuickConfig is a fast world for unit tests: smaller universe, lighter
// attack month.
func QuickConfig() WorldConfig {
	cfg := DefaultConfig()
	cfg.UniversePrefix = netsim.MustParsePrefix("100.0.0.0/16")
	cfg.DensityBoost = 32
	cfg.AttackIntensity = 1.0 / 128
	cfg.TelescopeScale = 1.0 / 100000
	return cfg
}

// World is the assembled simulation with lazily executed measurement
// phases. All phase methods are safe for concurrent use and cache their
// results.
type World struct {
	Cfg        WorldConfig
	Clock      *netsim.SimClock
	Network    *netsim.Network
	Universe   *iot.Universe
	GeoDB      *geo.DB
	RDNS       *geo.RDNS
	GreyNoise  *intel.GreyNoise
	VirusTotal *intel.VirusTotal
	Censys     *intel.Censys
	Telescope  *telescope.Telescope
	Honeypots  []*honeypot.Honeypot
	Log        *honeypot.Log
	Sources    *attack.Sources
	Corpus     *malware.Corpus

	// Trace, when non-nil, records one span per lazily executed phase
	// (simulated durations read from the tracer's clock). Leaving it nil is
	// byte-identical to a traced run: phases only ever call the tracer's
	// nil-safe methods and never branch on it.
	Trace *obs.Tracer

	// OnProbe, when non-nil, is threaded into the scan phase's
	// scan.Config.OnProbe (same zero-perturbation contract: observation
	// only, the probe stream is unchanged). Set it before RunScan.
	OnProbe func(scan.ProbeEvent)

	scanOnce    sync.Once
	scanResults map[iot.Protocol][]*scan.Result
	scanStats   map[iot.Protocol]scan.Stats

	filterOnce sync.Once
	genuine    map[iot.Protocol][]*scan.Result
	honeypots  []fingerprint.Detection

	classifyOnce sync.Once
	findings     []classify.Finding
	summary      classify.Summary

	attackOnce  sync.Once
	attackStats attack.Stats
	events      []honeypot.Event

	darknetOnce sync.Once
	darknetLen  int
	flows       []*telescope.FlowTuple

	phaseMu sync.Mutex
	phases  []string

	sonarOnce  sync.Once
	sonar      *datasets.Dataset
	shodanOnce sync.Once
	shodan     *datasets.Dataset
	censysOnce sync.Once
}

// BuildWorld assembles a world from cfg.
func BuildWorld(cfg WorldConfig) *World {
	clock := netsim.NewSimClock(netsim.ExperimentStart)
	network := netsim.NewNetwork(clock)
	universe := iot.NewUniverse(iot.UniverseConfig{
		Seed:          cfg.Seed,
		Prefix:        cfg.UniversePrefix,
		DensityBoost:  cfg.DensityBoost,
		HoneypotBoost: cfg.HoneypotBoost,
	})
	network.AddProvider(cfg.UniversePrefix, universe)

	geodb := geo.NewDB(cfg.Seed, nil)
	rdns := geo.NewRDNS(cfg.Seed)
	gn := intel.NewGreyNoise(cfg.Seed, 0.81)
	vt := intel.NewVirusTotal()
	cs := intel.NewCensys()

	tel := telescope.New(telescopePrefix, nil)

	pots, log := honeypot.DeployAll(network, netsim.MustParseIPv4("130.226.56.10"))

	return &World{
		Cfg: cfg, Clock: clock, Network: network, Universe: universe,
		GeoDB: geodb, RDNS: rdns, GreyNoise: gn, VirusTotal: vt, Censys: cs,
		Telescope: tel, Honeypots: pots, Log: log,
		Sources: attack.NewSources(cfg.Seed, universe, rdns, gn),
		Corpus:  malware.NewCorpus(cfg.Seed, nil),
	}
}

// ScaleFactor converts simulated counts to paper-scale.
func (w *World) ScaleFactor() float64 { return w.Universe.ScaleFactor() }

// phase opens one lazily executed measurement phase: a tracer span of its
// name, closed — and the name recorded for Phases — by the returned func,
// which the phase defers.
func (w *World) phase(name string) (done func()) {
	span := w.Trace.Start(name)
	return func() {
		span.End()
		w.phaseMu.Lock()
		w.phases = append(w.phases, name)
		w.phaseMu.Unlock()
	}
}

// Phases returns the names of the phases that have run, in completion order
// — what the tracer's spans would list, but known to an untraced world too,
// so what a run's checkpoint says about its phases does not depend on
// whether anything was observing it.
func (w *World) Phases() []string {
	w.phaseMu.Lock()
	defer w.phaseMu.Unlock()
	return append([]string(nil), w.phases...)
}

// runScanner scans the universe prefix of network n with the given modules,
// from the world's scanner source with its seed and worker budget.
func (w *World) runScanner(n *netsim.Network, onProbe func(scan.ProbeEvent), modules ...scan.ProbeModule) (map[iot.Protocol][]*scan.Result, map[iot.Protocol]scan.Stats) {
	s := scan.NewScanner(scan.Config{
		Network: n,
		Source:  w.Cfg.ScannerSource,
		Prefix:  w.Cfg.UniversePrefix,
		Seed:    w.Cfg.Seed,
		Workers: w.Cfg.Workers,
		OnProbe: onProbe,
	})
	// No commit hook and a context that is never canceled: Run cannot fail.
	results, stats, _ := s.Run(context.Background(), modules, nil, 0, nil)
	return results, stats
}

// RunScan executes the six-protocol Internet-wide scan once.
func (w *World) RunScan() (map[iot.Protocol][]*scan.Result, map[iot.Protocol]scan.Stats) {
	w.scanOnce.Do(func() {
		defer w.phase("scan")()
		w.scanResults, w.scanStats = w.runScanner(w.Network, w.OnProbe, scan.AllModules()...)
	})
	return w.scanResults, w.scanStats
}

// table6Oversample is how much denser than devices Table 6 plants wild
// honeypots: the paper's 8,192 instances are ~8 in a 1/1024 world, too few
// to show nine families.
const table6Oversample = 64

// oversampledHoneypots fingerprints the wild honeypots of a copy of the
// world's universe with honeypots planted table6Oversample times denser,
// device densities as configured. The signatures are Telnet banners
// (fingerprint.MatchResult looks at no other protocol), so the copy is swept
// with the Telnet module alone, on a fabric that holds nothing else: the
// world's deployed honeypots, telescope and intel stores sit outside the
// universe prefix and never saw this sweep.
func (w *World) oversampledHoneypots() []fingerprint.Detection {
	ucfg := w.Universe.Config()
	ucfg.HoneypotBoost = ucfg.DensityBoost * table6Oversample
	n := netsim.NewNetwork(netsim.NewSimClock(netsim.ExperimentStart))
	n.AddProvider(ucfg.Prefix, iot.NewUniverse(ucfg))
	results, _ := w.runScanner(n, nil, scan.TelnetModule{})
	_, dets := fingerprint.Filter(results[iot.ProtoTelnet])
	return dets
}

// FilterHoneypots splits scan results into genuine hosts and detections.
func (w *World) FilterHoneypots() (map[iot.Protocol][]*scan.Result, []fingerprint.Detection) {
	w.filterOnce.Do(func() {
		defer w.phase("filter_honeypots")()
		results, _ := w.RunScan()
		w.genuine = make(map[iot.Protocol][]*scan.Result, len(results))
		// Filter in sorted protocol order so the detections slice (and
		// everything derived from it) is deterministic; map iteration
		// order would shuffle it run to run.
		protos := make([]iot.Protocol, 0, len(results))
		for proto := range results {
			protos = append(protos, proto)
		}
		sort.Slice(protos, func(i, j int) bool { return protos[i] < protos[j] })
		for _, proto := range protos {
			gen, dets := fingerprint.Filter(results[proto])
			w.genuine[proto] = gen
			w.honeypots = append(w.honeypots, dets...)
		}
	})
	return w.genuine, w.honeypots
}

// Classify runs misconfiguration classification over the honeypot-filtered
// results.
func (w *World) Classify() ([]classify.Finding, classify.Summary) {
	w.classifyOnce.Do(func() {
		defer w.phase("classify")()
		genuine, _ := w.FilterHoneypots()
		var all []*scan.Result
		for _, proto := range iot.ScannedProtocols {
			all = append(all, genuine[proto]...)
		}
		w.findings = classify.ClassifyAll(all)
		w.summary = classify.Summarize(w.findings)
	})
	return w.findings, w.summary
}

// RunAttackMonth replays the calibrated attack month once.
func (w *World) RunAttackMonth() attack.Stats {
	w.attackOnce.Do(func() {
		defer w.phase("attack_month")()
		campaign := attack.NewCampaign(attack.CampaignConfig{
			Seed:       w.Cfg.Seed,
			Network:    w.Network,
			Honeypots:  w.Honeypots,
			Universe:   w.Universe,
			Sources:    w.Sources,
			Corpus:     w.Corpus,
			Intensity:  w.Cfg.AttackIntensity,
			Workers:    w.Cfg.Workers,
			Clock:      w.Clock,
			GreyNoise:  w.GreyNoise,
			VirusTotal: w.VirusTotal,
			RDNS:       w.RDNS,
		})
		w.attackStats = campaign.Run(context.Background(), nil)
		w.events = w.Log.Drain()
		campaign.RegisterIntel(w.events)
	})
	return w.attackStats
}

// Events forces the attack month and returns its honeypot events in the
// log's canonical order. The month's events are taken over from the log
// once, when the month ends (Log.Drain: the world holds the only copy and
// w.Log is left empty), and every experiment reads this one slice, so it is
// read-only by contract.
func (w *World) Events() []honeypot.Event {
	w.RunAttackMonth()
	return w.events
}

// RunTelescope generates the calibrated darknet traffic once.
func (w *World) RunTelescope() int {
	w.darknetOnce.Do(func() {
		defer w.phase("telescope")()
		gen := attack.NewDarknetGenerator(attack.DarknetConfig{
			Seed:      w.Cfg.Seed,
			Telescope: w.Telescope,
			Sources:   w.Sources,
			GeoDB:     w.GeoDB,
			Scale:     w.Cfg.TelescopeScale,
			// One day, so Table 8's per-day volumes are the captured volumes.
			Days:    1,
			Workers: w.Cfg.Workers,
		})
		w.darknetLen = gen.Run()
		w.flows = w.Telescope.Flows()
	})
	return w.darknetLen
}

// Flows forces the telescope phase and returns its flows in capture order:
// one copy of the capture, made when the phase ends and shared by every
// experiment, read-only by the same contract as Events. The telescope keeps
// its records — Telescope.Stats() feeds the manifest's counters after the
// experiments ran — which is why this is a copy where Events is a hand-over.
func (w *World) Flows() []*telescope.FlowTuple {
	w.RunTelescope()
	return w.flows
}

// Sonar returns the simulated Project Sonar dataset.
func (w *World) Sonar() *datasets.Dataset {
	w.sonarOnce.Do(func() {
		w.sonar = datasets.ProjectSonar(w.Cfg.Seed+1, w.Universe)
	})
	return w.sonar
}

// Shodan returns the simulated Shodan dataset.
func (w *World) Shodan() *datasets.Dataset {
	w.shodanOnce.Do(func() {
		w.shodan = datasets.Shodan(w.Cfg.Seed+2, w.Universe)
	})
	return w.shodan
}

// PopulateCensys fills the Censys store once.
func (w *World) PopulateCensys() *intel.Censys {
	w.censysOnce.Do(func() {
		datasets.PopulateCensys(w.Cfg.Seed+3, w.Universe, w.Censys)
	})
	return w.Censys
}
