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
	// Telescope receives the flows Run and RunDay generate; FoldDay reads
	// only its prefix.
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
// output — 1 worker and GOMAXPROCS workers produce identical dumps. FoldDay
// draws the same units without recording them, for a consumer that needs
// only a day's sums, sources and encoded records.
type DarknetGenerator struct {
	cfg DarknetConfig
	src *prng.Source

	setup  sync.Once
	states []*protoState
	// seen is FoldDay's per-protocol bitset over the source pool: the
	// sources an earlier FoldDay already returned as Fresh.
	seen [][]uint64
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

// geoAnn memoizes one source's geo annotation within a generation unit, in 8
// bytes. The Zipf skew concentrates draws on a few head sources, so the hit
// rate is ~99% and the geo database drops out of the per-flow cost.
type geoAnn struct {
	asn uint32
	cc  geo.CountryID
	ok  bool
}

// CheckScale reports whether scale is a DarknetConfig.Scale the generator
// uses as given. A binary that reports its scale must refuse any other value:
// NewDarknetGenerator would replace it with the default.
func CheckScale(scale float64) error {
	if scale > 0 && scale <= 1 {
		return nil
	}
	return fmt.Errorf("telescope scale %v outside (0, 1]", scale)
}

// NewDarknetGenerator validates cfg. A Scale that CheckScale refuses — the
// zero value among them — becomes 1/8192.
func NewDarknetGenerator(cfg DarknetConfig) *DarknetGenerator {
	if CheckScale(cfg.Scale) != nil {
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
	return g.runUnits(units, g.generateUnit)
}

// RunDay generates one day's traffic for every protocol — the rotation path:
// callers interleave RunDay with Telescope.Drain to cut per-day capture
// files. day must be in [0, cfg.Days); unit streams and ordinals match the
// ones Run would use, so RunDay(0..Days-1) emits exactly Run's flow set.
// A drained day is the caller's for good: the next RunDay records into slabs
// of its own.
func (g *DarknetGenerator) RunDay(day int) int {
	g.init()
	return g.runUnits(g.dayUnits(day), g.generateUnit)
}

// UnitFold is one (protocol, day) unit of a folded darknet day: what the
// daemon reads of the flows that unit draws, without the flows.
type UnitFold struct {
	// Flows and Packets are the unit's volume; Hourly splits Packets by the
	// hour of the day each flow starts in.
	Flows   int
	Packets uint64
	Hourly  [24]uint64
	// Fresh lists, in draw order, the sources that no earlier FoldDay of
	// this generator returned for the protocol.
	Fresh []netsim.IPv4
	// Hours holds, when FoldDay was asked to encode, each hour's flows as
	// telescope binary records (FlowTuple.AppendBinary) in draw order.
	Hours [24][]byte
}

// FoldDay draws one day's traffic for every protocol exactly as RunDay does
// and folds each unit as its flows are drawn, never building a FlowTuple
// slab or touching the telescope: it returns the units' partials in unit
// (protocol) order. Concatenating every unit's Hours[h] in that order gives
// the hour's records in the order Telescope.Drain hands them out, and the
// union of every Fresh so far is the set of sources drawn so far. A
// generator tracks its Fresh sources in one bitset per protocol over the
// protocol's source pool; Run and RunDay never read it, and a new generator
// starts with every source unseen. Geo annotation is done only when encode
// is set, because only the records carry it. Calls must not overlap.
func (g *DarknetGenerator) FoldDay(day int, encode bool) []UnitFold {
	g.init()
	units := g.dayUnits(day)
	if g.seen == nil {
		g.seen = make([][]uint64, len(g.states))
		for p, st := range g.states {
			g.seen[p] = make([]uint64, (len(st.sources)+63)/64)
		}
	}
	out := make([]UnitFold, len(g.states))
	g.runUnits(units, func(p, d int) int {
		out[p] = g.foldUnit(p, d, encode)
		return out[p].Flows
	})
	return out
}

// dayUnits lists day's (protocol, day) units in protocol order.
func (g *DarknetGenerator) dayUnits(day int) []int {
	if day < 0 || day >= g.cfg.Days {
		panic(fmt.Sprintf("attack: day %d outside configured %d days", day, g.cfg.Days))
	}
	units := make([]int, 0, len(g.states))
	for p := range g.states {
		units = append(units, p*g.cfg.Days+day)
	}
	return units
}

// runUnits executes the given (protocol, day) units on the worker pool,
// running work(protocol, day) for each; work returns the unit's flow count.
func (g *DarknetGenerator) runUnits(units []int, work func(p, d int) int) int {
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
				counts[i] = work(units[i]/g.cfg.Days, units[i]%g.cfg.Days)
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

// unitDraws is one (protocol, day) unit's flow stream. Both consumers — the
// slab generateUnit records and the partial foldUnit keeps — pull their flows
// from next, so a folded day draws exactly the flows a recorded one holds.
// All randomness comes from the unit's derived stream; several fields are
// packed into each 64-bit draw (disjoint bit ranges; moduli either exact
// powers of two or large enough that the bias is far below measurement
// noise), which roughly halves the PRNG cost per flow.
type unitDraws struct {
	st         *protoState
	gen        *prng.Source
	prefix     netsim.Prefix
	prefixSize uint64
	dayStart   int64 // Unix nanoseconds
	isTCP      bool
	// remaining is the day's packet volume not yet drawn; the unit is done
	// when it reaches zero.
	remaining uint64
}

// draws starts protocol p's flow stream for day.
func (g *DarknetGenerator) draws(p, day int) unitDraws {
	st := g.states[p]
	prefix := g.cfg.Telescope.Prefix()
	return unitDraws{
		st: st,
		gen: g.src.Derive(prng.HashString("darknet"),
			prng.HashString(string(st.cal.Protocol)), uint64(day)),
		prefix:     prefix,
		prefixSize: prefix.Size(),
		dayStart:   g.cfg.Start.Add(time.Duration(day) * 24 * time.Hour).UnixNano(),
		isTCP:      st.transport == telescope.ProtoTCP,
		remaining:  st.dailyPackets,
	}
}

// next draws one flow (source × dark destination), whose PacketCnt share of
// the day's volume follows the skew, into ft — every field but the geo
// annotation — and returns the source's index in the protocol's pool and the
// hour of the day the flow starts in. Call it only while remaining > 0.
func (d *unitDraws) next(ft *telescope.FlowTuple) (src, hour int) {
	st := d.st
	src = st.alias.Sample(d.gen)
	u2 := d.gen.Uint64() // dst offset | source port | SYN window / datagram len
	u3 := d.gen.Uint64() // time-of-day | TTL | packets | spoofed | masscan

	pkts := 1 + (u3>>39)&63
	if pkts > d.remaining {
		pkts = d.remaining
	}
	d.remaining -= pkts

	sec := (u3 & 0xffffffff) % 86400
	*ft = telescope.FlowTuple{
		UnixNano:  d.dayStart + int64(sec)*int64(time.Second),
		SrcIP:     st.sources[src],
		DstIP:     d.prefix.Nth((u2 & 0xffffffff) % d.prefixSize),
		SrcPort:   uint16(32768 + (u2>>32&0xffff)%28232),
		DstPort:   st.port,
		Protocol:  st.transport,
		TTL:       uint8(32 + (u3>>32&0x7f)%96),
		PacketCnt: uint32(pkts),
		IsSpoofed: (u3>>45)&1023 < 31, // ≈3%
		IsMasscan: (u3>>55)&511 < 41,  // ≈8%
	}
	if d.isTCP {
		ft.TCPFlags = telescope.FlagSYN
		ft.SynLen = 44
		ft.SynWinLen = uint16(8192 + (u2>>48)%57343)
		ft.IPLen = 40
	} else {
		ft.IPLen = uint16(28 + (u2>>48)&63)
	}
	return src, int(sec / 3600)
}

// annotate stamps ft, drawn from source index src, with the source's geo
// annotation, looked up once per unit through ann.
func (g *DarknetGenerator) annotate(ft *telescope.FlowTuple, ann []geoAnn, src int) {
	if g.cfg.GeoDB == nil {
		return
	}
	a := &ann[src]
	if !a.ok {
		a.cc = g.cfg.GeoDB.CountryID(ft.SrcIP)
		a.asn = g.cfg.GeoDB.ASN(ft.SrcIP)
		a.ok = true
	}
	ft.CountryID = a.cc
	ft.ASN = a.asn
}

// generateUnit emits protocol p's day of flows into one slab and records it
// as a single telescope batch at the unit's ordinal.
func (g *DarknetGenerator) generateUnit(p, day int) int {
	d := g.draws(p, day)
	ann := make([]geoAnn, len(d.st.sources))
	// The slab is sized from the day's expected flow count (mean PacketCnt
	// 32.5, /28 leaves 16% slack), so a unit almost always allocates once;
	// append grows it if the estimate falls short.
	fts := make([]telescope.FlowTuple, 0, int(d.st.dailyPackets/28)+16)
	for d.remaining > 0 {
		fts = append(fts, telescope.FlowTuple{})
		ft := &fts[len(fts)-1]
		src, _ := d.next(ft)
		g.annotate(ft, ann, src)
	}
	g.cfg.Telescope.RecordBatch(uint64(p*g.cfg.Days+day), fts)
	return len(fts)
}

// recordBytes is the size foldUnit budgets per encoded record: the fixed
// part and a country label of up to eight bytes.
const recordBytes = 52

// foldUnit folds protocol p's day of flows into a UnitFold as they are
// drawn, one reused FlowTuple at a time, marking fresh sources in p's bitset.
// With encode, each flow's record goes to its hour's buffer; the 24 buffers
// are cut from one allocation sized like generateUnit's slab, and an hour
// that outgrows its share grows on its own.
func (g *DarknetGenerator) foldUnit(p, day int, encode bool) UnitFold {
	d := g.draws(p, day)
	seen := g.seen[p]
	var u UnitFold
	var ann []geoAnn
	if encode {
		ann = make([]geoAnn, len(d.st.sources))
		per := (int(d.st.dailyPackets/28)/24 + 4) * recordBytes
		buf := make([]byte, 24*per)
		for h := range u.Hours {
			u.Hours[h] = buf[h*per : h*per : (h+1)*per]
		}
	}
	var ft telescope.FlowTuple
	for d.remaining > 0 {
		src, hour := d.next(&ft)
		u.Flows++
		u.Packets += uint64(ft.PacketCnt)
		u.Hourly[hour] += uint64(ft.PacketCnt)
		if w, bit := src/64, uint64(1)<<(src%64); seen[w]&bit == 0 {
			seen[w] |= bit
			u.Fresh = append(u.Fresh, ft.SrcIP)
		}
		if encode {
			g.annotate(&ft, ann, src)
			u.Hours[hour] = ft.AppendBinary(u.Hours[hour])
		}
	}
	return u
}
