package attack

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"openhire/internal/geo"
	"openhire/internal/iot"
	"openhire/internal/netsim"
	"openhire/internal/prng"
	"openhire/internal/telescope"
)

// TelescopeCalibration is one Table 8 row: daily packet volume and monthly
// unique sources per protocol, plus how many sources belong to scanning
// services.
type TelescopeCalibration struct {
	Protocol   iot.Protocol
	DailyCount uint64
	UniqueIPs  int
	ScanSvcIPs int
}

// PaperTelescope reproduces Table 8.
var PaperTelescope = []TelescopeCalibration{
	{iot.ProtoTelnet, 2554585920, 85615200, 4142},
	{iot.ProtoUPnP, 131794560, 18633, 2279},
	{iot.ProtoCoAP, 68353920, 2342, 627},
	{iot.ProtoMQTT, 17072640, 5572, 1248},
	{iot.ProtoAMQP, 13907520, 7132, 2256},
	{iot.ProtoXMPP, 6429600, 4255, 1973},
}

// DarknetConfig parameterizes telescope traffic generation.
type DarknetConfig struct {
	Seed uint64
	// Telescope receives the generated flows.
	Telescope *telescope.Telescope
	// Sources provides scanning-service addresses and infected devices.
	Sources *Sources
	// GeoDB annotates flows.
	GeoDB *geo.DB
	// Scale divides the paper's volumes: unique sources and packet counts
	// are multiplied by Scale (e.g. 1/8192). Must be in (0, 1].
	Scale float64
	// Days of traffic to generate (default 1).
	Days int
	// Start is the first day's timestamp (default ExperimentStart).
	Start time.Time
	// Workers bounds generation concurrency (0 = GOMAXPROCS). Each
	// (protocol, day) unit owns a derived PRNG stream and records its flows
	// as one telescope batch under its unit index, so the captured flows are
	// byte-identical for any worker count.
	Workers int
	// OnUnit, when set, is called once per finished (protocol, day) unit —
	// after the worker pool has joined, in fixed unit order, never from the
	// generation hot path — with that unit's flow count. Progress reporting
	// and per-unit metrics hang here; nil (the default) is byte-identical
	// to not having the hook.
	OnUnit func(protocol iot.Protocol, day, flows int)
}

// DarknetGenerator produces Table 8-calibrated FlowTuple traffic. Volumes at
// paper scale (78 billion requests/day) are far beyond packet-level
// simulation, so flows are synthesized directly into the telescope with
// per-source packet counts; the *sources* are shared with the packet-level
// attack campaign, so cross-dataset correlation (Section 5.3) is faithful.
//
// Generation fans out over (protocol, day) units: unit (p, d) seeds its flow
// stream with Derive("darknet", protocol, day) and records its day as one
// telescope batch at ordinal p*Days+d, so scheduling never leaks into the
// output — 1 worker and GOMAXPROCS workers produce identical dumps.
type DarknetGenerator struct {
	cfg DarknetConfig
	src *prng.Source

	setup  sync.Once
	states []*protoState
}

// protoState is the per-protocol input shared by that protocol's day units.
// It is built once, before generation starts, and read-only afterwards.
type protoState struct {
	cal          TelescopeCalibration
	sources      []netsim.IPv4
	alias        *prng.Alias // Zipf(1.1) over sources, O(1) per sample
	dailyPackets uint64
	port         uint16
	transport    uint8
}

// geoAnn memoizes one source's geo annotation within a generation unit. The
// Zipf skew concentrates draws on a few head sources, so the hit rate is
// ~99% and the geo database drops out of the per-flow cost.
type geoAnn struct {
	cc  string
	asn uint32
	ok  bool
}

// NewDarknetGenerator validates cfg.
func NewDarknetGenerator(cfg DarknetConfig) *DarknetGenerator {
	if cfg.Scale <= 0 || cfg.Scale > 1 {
		cfg.Scale = 1.0 / 8192
	}
	if cfg.Days == 0 {
		cfg.Days = 1
	}
	if cfg.Start.IsZero() {
		cfg.Start = netsim.ExperimentStart
	}
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	return &DarknetGenerator{cfg: cfg, src: prng.New(cfg.Seed)}
}

// init derives the infected-device pool and per-protocol source pools once.
func (g *DarknetGenerator) init() {
	g.setup.Do(func() {
		prefix := g.cfg.Telescope.Prefix()
		// Infected devices that target the telescope participate as Telnet
		// scanners (Mirai-style worms dominate Table 8's Telnet volume).
		var infected []netsim.IPv4
		if g.cfg.Sources != nil {
			for _, ip := range g.cfg.Sources.DeriveInfected() {
				if t, _ := g.cfg.Sources.InfectedTargetsFor(ip); t.Telescope {
					infected = append(infected, ip)
				}
			}
		}
		for _, cal := range PaperTelescope {
			g.states = append(g.states, g.buildState(cal, prefix, infected))
		}
	})
}

// buildState provisions one protocol's source pool and samplers. The pool is
// seeded from Derive("darknet", protocol) — independent of day count and
// worker count.
func (g *DarknetGenerator) buildState(cal TelescopeCalibration,
	prefix netsim.Prefix, infected []netsim.IPv4) *protoState {
	gen := g.src.Derive(prng.HashString("darknet"), prng.HashString(string(cal.Protocol)))

	nSources := scaleCount(cal.UniqueIPs, g.cfg.Scale)
	nScanSvc := scaleCount(cal.ScanSvcIPs, g.cfg.Scale)

	// Source pool: scanning services first, then infected devices (Telnet
	// only), then random suspicious hosts. Scanning-service addresses come
	// sorted: ranging over the service map here made the pool — and every
	// dump derived from it — differ run to run.
	sources := make([]netsim.IPv4, 0, nSources)
	if g.cfg.Sources != nil {
		for _, ip := range g.cfg.Sources.ScanningServiceAddrs() {
			if len(sources) >= nScanSvc {
				break
			}
			sources = append(sources, ip)
		}
	}
	if cal.Protocol == iot.ProtoTelnet {
		for _, ip := range infected {
			if len(sources) >= nSources {
				break
			}
			sources = append(sources, ip)
		}
	}
	for len(sources) < nSources {
		ip := netsim.IPv4(gen.Uint32())
		o := ip.Octets()
		if o[0] == 0 || o[0] == 10 || o[0] == 127 || o[0] >= 224 || prefix.Contains(ip) {
			continue
		}
		sources = append(sources, ip)
	}

	st := &protoState{
		cal:     cal,
		sources: sources,
		// Packet volume per source is heavily skewed: a few infected hosts
		// scan constantly, most sources send a handful of probes.
		alias:        prng.NewZipfAlias(len(sources), 1.1),
		dailyPackets: uint64(float64(cal.DailyCount) * g.cfg.Scale),
		port:         cal.Protocol.DefaultPort(),
		transport:    telescope.ProtoTCP,
	}
	if cal.Protocol.Transport() == netsim.UDP {
		st.transport = telescope.ProtoUDP
	}
	return st
}

// Run generates the configured days of traffic across all protocols,
// fanning (protocol, day) units out over cfg.Workers goroutines. It returns
// the number of flows recorded.
func (g *DarknetGenerator) Run() int {
	g.init()
	units := make([]int, 0, len(g.states)*g.cfg.Days)
	for p := range g.states {
		for d := 0; d < g.cfg.Days; d++ {
			units = append(units, p*g.cfg.Days+d)
		}
	}
	return g.runUnits(units)
}

// RunDay generates one day's traffic for every protocol — the rotation path:
// callers interleave RunDay with Telescope.Drain to cut per-day capture
// files. day must be in [0, cfg.Days); unit streams and ordinals match the
// ones Run would use, so RunDay(0..Days-1) emits exactly Run's flow set.
func (g *DarknetGenerator) RunDay(day int) int {
	if day < 0 || day >= g.cfg.Days {
		panic(fmt.Sprintf("attack: RunDay(%d) outside configured %d days", day, g.cfg.Days))
	}
	g.init()
	units := make([]int, 0, len(g.states))
	for p := range g.states {
		units = append(units, p*g.cfg.Days+day)
	}
	return g.runUnits(units)
}

// runUnits executes the given (protocol, day) units on the worker pool.
func (g *DarknetGenerator) runUnits(units []int) int {
	workers := g.cfg.Workers
	if workers > len(units) {
		workers = len(units)
	}
	counts := make([]int, len(units))
	var wg sync.WaitGroup
	next := make(chan int, len(units))
	for i := range units {
		next <- i
	}
	close(next)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				unit := units[i]
				p, d := unit/g.cfg.Days, unit%g.cfg.Days
				counts[i] = g.generateUnit(g.states[p], d, unit)
			}
		}()
	}
	wg.Wait()
	total := 0
	for i, n := range counts {
		total += n
		if g.cfg.OnUnit != nil {
			unit := units[i]
			g.cfg.OnUnit(g.states[unit/g.cfg.Days].cal.Protocol, unit%g.cfg.Days, n)
		}
	}
	return total
}

// generateUnit emits one protocol-day of flows into one slab and records it
// as a single telescope batch. All randomness comes from the unit's derived
// stream; several fields are packed into each 64-bit draw (disjoint bit
// ranges; moduli either exact powers of two or large enough that the bias is
// far below measurement noise), which roughly halves the PRNG cost per flow.
func (g *DarknetGenerator) generateUnit(st *protoState, day, unit int) int {
	gen := g.src.Derive(prng.HashString("darknet"),
		prng.HashString(string(st.cal.Protocol)), uint64(day))
	prefix := g.cfg.Telescope.Prefix()
	prefixSize := prefix.Size()
	dayStart := g.cfg.Start.Add(time.Duration(day) * 24 * time.Hour)

	ann := make([]geoAnn, len(st.sources))
	// The slab is sized from the day's expected flow count (mean PacketCnt
	// 32.5, /28 leaves 16% slack), so a unit almost always allocates once;
	// append grows it if the estimate falls short.
	fts := make([]telescope.FlowTuple, 0, int(st.dailyPackets/28)+16)

	remaining := st.dailyPackets
	isTCP := st.transport == telescope.ProtoTCP
	// Each iteration emits one flow (source × dark destination) whose
	// PacketCnt share of the day's volume follows the skew.
	for remaining > 0 {
		srcIdx := st.alias.Sample(gen)
		srcIP := st.sources[srcIdx]
		u2 := gen.Uint64() // dst offset | source port | SYN window / datagram len
		u3 := gen.Uint64() // time-of-day | TTL | packets | spoofed | masscan

		pkts := 1 + (u3>>39)&63
		if pkts > remaining {
			pkts = remaining
		}
		remaining -= pkts

		fts = append(fts, telescope.FlowTuple{})
		ft := &fts[len(fts)-1]
		ft.Time = dayStart.Add(time.Duration((u3&0xffffffff)%86400) * time.Second)
		ft.SrcIP = srcIP
		ft.DstIP = prefix.Nth((u2 & 0xffffffff) % prefixSize)
		ft.SrcPort = uint16(32768 + (u2>>32&0xffff)%28232)
		ft.DstPort = st.port
		ft.Protocol = st.transport
		ft.TTL = uint8(32 + (u3>>32&0x7f)%96)
		ft.PacketCnt = uint32(pkts)
		ft.IsSpoofed = (u3>>45)&1023 < 31 // ≈3%
		ft.IsMasscan = (u3>>55)&511 < 41  // ≈8%
		if isTCP {
			ft.TCPFlags = telescope.FlagSYN
			ft.SynLen = 44
			ft.SynWinLen = uint16(8192 + (u2>>48)%57343)
			ft.IPLen = 40
		} else {
			ft.IPLen = uint16(28 + (u2>>48)&63)
		}
		if g.cfg.GeoDB != nil {
			a := &ann[srcIdx]
			if !a.ok {
				a.cc = string(g.cfg.GeoDB.Country(srcIP))
				a.asn = g.cfg.GeoDB.ASN(srcIP)
				a.ok = true
			}
			ft.CountryCC = a.cc
			ft.ASN = a.asn
		}
	}
	g.cfg.Telescope.RecordBatch(uint64(unit), fts)
	return len(fts)
}
