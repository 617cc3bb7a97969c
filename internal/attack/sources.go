package attack

import (
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"openhire/internal/geo"
	"openhire/internal/intel"
	"openhire/internal/iot"
	"openhire/internal/netsim"
	"openhire/internal/prng"
)

// SourceClass is where an attack source belongs in the paper's taxonomy.
type SourceClass uint8

// Source classes (Table 7 columns).
const (
	ClassScanningService SourceClass = iota
	ClassMalicious
	ClassUnknown
)

// String names the class.
func (c SourceClass) String() string {
	switch c {
	case ClassScanningService:
		return "scanning-service"
	case ClassMalicious:
		return "malicious"
	default:
		return "unknown"
	}
}

// ScanningService is one known Internet-scanning operator (Figure 3's
// legend: Stretchoid, Censys, Shodan, BitSight, BinaryEdge, Project Sonar,
// ShadowServer and the rest).
type ScanningService struct {
	Name string
	// Share is the service's fraction of total scanning-service traffic,
	// calibrated so Figure 3's ordering holds.
	Share float64
}

// KnownScanningServices lists the services the paper identifies in
// Section 4.3.1, most active first.
var KnownScanningServices = []ScanningService{
	{"stretchoid.com", 0.17},
	{"censys.io", 0.14},
	{"shodan.io", 0.13},
	{"bitsight.com", 0.09},
	{"binaryedge.io", 0.08},
	{"projectsonar.rapid7.com", 0.07},
	{"shadowserver.org", 0.06},
	{"internettl.org", 0.05},
	{"alphastrike.io", 0.04},
	{"sharashka.io", 0.03},
	{"comsys.rwth-aachen.de", 0.03},
	{"criminalip.com", 0.02},
	{"ipip.net", 0.02},
	{"netsystemsresearch.com", 0.02},
	{"leakix.net", 0.01},
	{"onyphe.io", 0.01},
	{"natlas.io", 0.01},
	{"quadmetrics.com", 0.01},
	{"arbor-observatory.com", 0.005},
	{"zoomeye.org", 0.005},
	{"fofa.so", 0.005},
}

// Sources manages the address pools adversaries and scanners draw from, and
// keeps the ground-truth class of every source for later validation.
type Sources struct {
	src      *prng.Source
	universe *iot.Universe
	rdns     *geo.RDNS
	gn       *intel.GreyNoise

	seed     uint64
	classes  map[netsim.IPv4]SourceClass
	services map[netsim.IPv4]string // scanning-service IP → service name

	infectedOnce sync.Once
	infected     *Infected
}

// InfectedTargets says where an infected device sends attacks (Section 5.3)
// and whether the device is exposed-but-configured (the Censys-extension
// population) rather than misconfigured.
type InfectedTargets struct {
	Honeypots  bool
	Telescope  bool
	Configured bool
}

// NewSources builds the pools. universe may be nil when no infected-device
// correlation is needed.
func NewSources(seed uint64, universe *iot.Universe, rdns *geo.RDNS, gn *intel.GreyNoise) *Sources {
	return &Sources{
		src:      prng.New(seed),
		universe: universe,
		rdns:     rdns,
		gn:       gn,
		seed:     seed,
		classes:  make(map[netsim.IPv4]SourceClass),
		services: make(map[netsim.IPv4]string),
	}
}

// randomPublicIP draws an address outside reserved space and outside the
// universe prefix (ordinary Internet hosts).
func (s *Sources) randomPublicIP(gen *prng.Source) netsim.IPv4 {
	for {
		ip := netsim.IPv4(gen.Uint32())
		o := ip.Octets()
		if o[0] == 0 || o[0] == 10 || o[0] == 127 || o[0] >= 224 {
			continue
		}
		if s.universe != nil && s.universe.Config().Prefix.Contains(ip) {
			continue
		}
		if _, taken := s.classes[ip]; taken {
			continue
		}
		return ip
	}
}

// BuildScanningPool provisions n scanning-service addresses distributed by
// service share, registering them in reverse DNS and GreyNoise.
func (s *Sources) BuildScanningPool(n int) []netsim.IPv4 {
	gen := s.src.Derive(prng.HashString("scan-pool"))
	weights := make([]float64, len(KnownScanningServices))
	for i, svc := range KnownScanningServices {
		weights[i] = svc.Share
	}
	out := make([]netsim.IPv4, 0, n)
	for i := 0; i < n; i++ {
		ip := s.randomPublicIP(gen)
		svc := KnownScanningServices[gen.WeightedChoice(weights)]
		s.classes[ip] = ClassScanningService
		s.services[ip] = svc.Name
		if s.rdns != nil {
			s.rdns.RegisterService(ip, svc.Name)
		}
		if s.gn != nil {
			s.gn.RegisterBenign(ip)
		}
		out = append(out, ip)
	}
	return out
}

// BuildMaliciousPool provisions n malicious addresses. A calibrated share
// are infected misconfigured devices drawn from the universe (the Section
// 5.3 correlation); the rest are ordinary compromised hosts.
func (s *Sources) BuildMaliciousPool(n int, infectedFromUniverse []netsim.IPv4) []netsim.IPv4 {
	gen := s.src.Derive(prng.HashString("mal-pool"))
	out := make([]netsim.IPv4, 0, n)
	for _, ip := range infectedFromUniverse {
		if len(out) >= n {
			break
		}
		s.classes[ip] = ClassMalicious
		out = append(out, ip)
	}
	for len(out) < n {
		ip := s.randomPublicIP(gen)
		s.classes[ip] = ClassMalicious
		out = append(out, ip)
	}
	return out
}

// BuildUnknownPool provisions n unclassifiable addresses (one-time scanners,
// suspicious sources).
func (s *Sources) BuildUnknownPool(n int) []netsim.IPv4 {
	gen := s.src.Derive(prng.HashString("unk-pool"))
	out := make([]netsim.IPv4, 0, n)
	for i := 0; i < n; i++ {
		ip := s.randomPublicIP(gen)
		s.classes[ip] = ClassUnknown
		out = append(out, ip)
	}
	return out
}

// Infected is the infected-device set of one (seed, universe): the devices
// the Section 5.3 calibration turns into attack sources, in address order,
// with each one's target mix. It is a value — read-only once DeriveInfected
// returns — so one derivation serves every Sources of the same seed and
// universe: the daemon derives it once per month and hands it to the
// month's campaign and darknet generator.
type Infected struct {
	seed     uint64
	universe *iot.Universe
	ips      []netsim.IPv4
	targets  []InfectedTargets // targets[i] belongs to ips[i]
}

// infectedWalks counts DeriveInfected calls that walked a universe. It exists
// for the tests that pin how often the daemon derives the set.
var infectedWalks atomic.Int64

// DeriveInfected walks the universe and selects the infected devices per
// the Section 5.3 calibration, assigning each its target mix. Misconfigured
// devices are infected at InfectedShare (the 11,118); exposed-but-configured
// devices at ConfiguredInfectedShare (the Censys-extension population of
// 1,671 additional IoT attackers). The walk is linear over the prefix and
// rolls infection first: one hash per address, and the exposure rolls only
// for the ~0.6 % of addresses whose infection roll could still pass. A nil
// universe has no infected devices. The walk reads no ExposedIndex.
func DeriveInfected(seed uint64, universe *iot.Universe) *Infected {
	in := &Infected{seed: seed, universe: universe}
	if universe == nil {
		return in
	}
	infectedWalks.Add(1)
	src := prng.New(seed)
	prefix := universe.Config().Prefix
	label := prng.HashString("infected")
	// No outcome admits an infection roll at or above both shares.
	maxShare := math.Max(InfectedShare, ConfiguredInfectedShare)

	// Every per-address decision is a pure function of (seed, ip), so the
	// walk parallelizes with bit-identical output: chunks are joined in
	// address order, exactly the sequence a serial loop produces.
	type pick struct {
		ip netsim.IPv4
		t  InfectedTargets
	}
	decide := func(ip netsim.IPv4) (InfectedTargets, bool) {
		h := src.Hash64(label, uint64(ip))
		u := float64(h>>11) / (1 << 53)
		if u >= maxShare {
			return InfectedTargets{}, false
		}
		exposed, misconfigured := universe.ExposureAny(ip)
		if !exposed {
			return InfectedTargets{}, false
		}
		roll2 := prng.New(src.Hash64(label, uint64(ip), 2)).Float64()
		switch {
		case misconfigured && u < InfectedShare:
			t := InfectedTargets{Honeypots: true, Telescope: true}
			switch {
			case roll2 < InfectedHoneypotOnly:
				t = InfectedTargets{Honeypots: true}
			case roll2 < InfectedHoneypotOnly+InfectedTelescopeOnly:
				t = InfectedTargets{Telescope: true}
			}
			return t, true
		case !misconfigured && u < ConfiguredInfectedShare:
			t := InfectedTargets{Honeypots: true, Telescope: true, Configured: true}
			switch {
			case roll2 < ConfiguredHoneypotOnly:
				t = InfectedTargets{Honeypots: true, Configured: true}
			case roll2 < ConfiguredHoneypotOnly+ConfiguredTelescopeOnly:
				t = InfectedTargets{Telescope: true, Configured: true}
			}
			return t, true
		}
		return InfectedTargets{}, false
	}

	size := prefix.Size()
	workers := uint64(runtime.GOMAXPROCS(0))
	if workers > size {
		workers = 1
	}
	chunk := (size + workers - 1) / workers
	results := make([][]pick, workers)
	var wg sync.WaitGroup
	for w := uint64(0); w < workers; w++ {
		lo, hi := w*chunk, (w+1)*chunk
		if hi > size {
			hi = size
		}
		if lo >= hi {
			continue
		}
		wg.Add(1)
		go func(w, lo, hi uint64) {
			defer wg.Done()
			var picks []pick
			for i := lo; i < hi; i++ {
				ip := prefix.Nth(i)
				if t, ok := decide(ip); ok {
					picks = append(picks, pick{ip: ip, t: t})
				}
			}
			results[w] = picks
		}(w, lo, hi)
	}
	wg.Wait()
	for _, picks := range results {
		for _, p := range picks {
			in.ips = append(in.ips, p.ip)
			in.targets = append(in.targets, p.t)
		}
	}
	return in
}

// IPs returns the infected devices in ascending address order. Callers must
// not modify the slice.
func (in *Infected) IPs() []netsim.IPv4 { return in.ips }

// TargetsFor returns where an infected device attacks.
func (in *Infected) TargetsFor(ip netsim.IPv4) (InfectedTargets, bool) {
	i := sort.Search(len(in.ips), func(i int) bool { return in.ips[i] >= ip })
	if i == len(in.ips) || in.ips[i] != ip {
		return InfectedTargets{}, false
	}
	return in.targets[i], true
}

// infectedSet returns the infected-device set of the Sources' seed and
// universe, derived on first use — or the set UseInfected handed in — and
// the same value on every later call. Safe for concurrent use: a World's
// campaign and darknet generator share one Sources.
func (s *Sources) infectedSet() *Infected {
	s.infectedOnce.Do(func() { s.infected = DeriveInfected(s.seed, s.universe) })
	return s.infected
}

// UseInfected hands the Sources an infected set already derived for its seed
// and universe, so a second Sources of the same month (the daemon's darknet
// generator and campaign each have one) does not walk the universe again. It must come before the first DeriveInfected or InfectedTargetsFor
// call, and in must match the Sources' seed and universe; it panics
// otherwise.
func (s *Sources) UseInfected(in *Infected) {
	if in.seed != s.seed || in.universe != s.universe {
		panic("attack: UseInfected with a set derived for another seed or universe")
	}
	s.infectedOnce.Do(func() { s.infected = in })
	if s.infected != in {
		panic("attack: UseInfected after the infected set was derived")
	}
}

// DeriveInfected returns the infected devices in ascending address order:
// the IPs of the Sources' infected set.
func (s *Sources) DeriveInfected() []netsim.IPv4 { return s.infectedSet().IPs() }

// InfectedTargetsFor returns where an infected source attacks.
func (s *Sources) InfectedTargetsFor(ip netsim.IPv4) (InfectedTargets, bool) {
	return s.infectedSet().TargetsFor(ip)
}

// Class returns the ground-truth class of a source.
func (s *Sources) Class(ip netsim.IPv4) (SourceClass, bool) {
	c, ok := s.classes[ip]
	return c, ok
}

// ScanningServiceIPs returns all provisioned scanning-service addresses.
// Map iteration order is randomized by the runtime; deterministic consumers
// (the darknet source pool) must use ScanningServiceAddrs instead.
func (s *Sources) ScanningServiceIPs() map[netsim.IPv4]string {
	out := make(map[netsim.IPv4]string, len(s.services))
	for ip, svc := range s.services {
		out[ip] = svc
	}
	return out
}

// ScanningServiceAddrs returns the provisioned scanning-service addresses in
// ascending order, so pools carved from a prefix of the list are identical
// run to run.
func (s *Sources) ScanningServiceAddrs() []netsim.IPv4 {
	out := make([]netsim.IPv4, 0, len(s.services))
	for ip := range s.services {
		out = append(out, ip)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
