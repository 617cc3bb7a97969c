// Package correlate implements the paper's cross-dataset analyses: joining
// the misconfigured-device scan results with honeypot attack sources and
// telescope traffic (Section 5.3's 11,118 attacking devices), the Censys
// IoT-tag extension, the GreyNoise/VirusTotal validation (Section 4.3.3,
// Figures 5/6) and the reverse-lookup study of attack domains.
package correlate

import (
	"slices"
	"sort"
	"strconv"

	"openhire/internal/checkpoint/wire"
	"openhire/internal/geo"
	"openhire/internal/honeypot"
	"openhire/internal/intel"
	"openhire/internal/iot"
	"openhire/internal/netsim"
	"openhire/internal/telescope"
)

// IPSet is a set of addresses that encodes deterministically: the JSON form
// is the sorted address array and the checkpoint form the sorted addresses
// as delta uvarints, so snapshot and checkpoint bytes are independent of
// insertion order. The zero value is empty; use Add (through a pointer
// field) to insert.
type IPSet map[netsim.IPv4]struct{}

// NewIPSet builds a set from a slice.
func NewIPSet(ips []netsim.IPv4) IPSet {
	s := make(IPSet, len(ips))
	for _, ip := range ips {
		s[ip] = struct{}{}
	}
	return s
}

// Add inserts ip, allocating the map on first use. Allocation on demand keeps
// the empty set nil, which omitempty elides — a freshly-started and a
// restored-empty daemon checkpoint identically.
func (s *IPSet) Add(ip netsim.IPv4) {
	if *s == nil {
		*s = make(IPSet)
	}
	(*s)[ip] = struct{}{}
}

// Contains reports membership.
func (s IPSet) Contains(ip netsim.IPv4) bool {
	_, ok := s[ip]
	return ok
}

// Sorted returns the members in ascending order.
func (s IPSet) Sorted() []netsim.IPv4 {
	out := make([]netsim.IPv4, 0, len(s))
	for ip := range s {
		out = append(out, ip)
	}
	slices.Sort(out)
	return out
}

// MarshalJSON renders the sorted address array, as json.Marshal renders a
// []uint32. The daemon runs it over all three correlation sets at every
// commit.
func (s IPSet) MarshalJSON() ([]byte, error) {
	out := make([]byte, 0, 2+11*len(s)) // ten digits and a comma at most
	out = append(out, '[')
	for i, ip := range s.Sorted() {
		if i > 0 {
			out = append(out, ',')
		}
		out = strconv.AppendUint(out, uint64(ip), 10)
	}
	return append(out, ']'), nil
}

// AppendBinary appends the set's checkpoint form: the member count, then
// the sorted addresses as deltas (the first from zero), each a uvarint.
func (s IPSet) AppendBinary(b []byte) []byte {
	b = wire.AppendInt(b, len(s))
	var prev netsim.IPv4
	for _, ip := range s.Sorted() {
		b = wire.AppendUint(b, uint64(ip-prev))
		prev = ip
	}
	return b
}

// ReadIPSet decodes a set AppendBinary wrote; an empty set decodes to nil.
// Deltas must be ascending and stay inside the address space.
func ReadIPSet(r *wire.Reader) IPSet {
	n := r.Count(1)
	if n == 0 {
		return nil
	}
	s := make(IPSet, n)
	var ip uint64
	for i := 0; i < n && r.Err() == nil; i++ {
		d := r.Uint()
		if i > 0 && d == 0 || d > 1<<32-1-ip {
			r.Fail("IP set delta %d after %d", d, ip)
			break
		}
		ip += d
		s[netsim.IPv4(ip)] = struct{}{}
	}
	if r.Err() != nil {
		return nil
	}
	return s
}

// Intersection is the Section 5.3 headline result: misconfigured devices
// observed attacking.
type Intersection struct {
	// HoneypotOnly attacked only the honeypots (paper: 1,147).
	HoneypotOnly []netsim.IPv4
	// TelescopeOnly appeared only at the telescope (paper: 1,274).
	TelescopeOnly []netsim.IPv4
	// Both attacked honeypots and the telescope (paper: 8,697).
	Both []netsim.IPv4
}

// Total is the headline count (paper: 11,118).
func (x Intersection) Total() int {
	return len(x.HoneypotOnly) + len(x.TelescopeOnly) + len(x.Both)
}

// All returns every intersecting address.
func (x Intersection) All() []netsim.IPv4 {
	out := slices.Concat(x.HoneypotOnly, x.TelescopeOnly, x.Both)
	slices.Sort(out)
	return out
}

// The join's subsets, in Intersection's field order.
const (
	honeypotOnly = iota
	telescopeOnly
	both
)

// join walks the misconfigured set once and hands every member seen
// attacking to add, with the subset it falls in. Intersect lists the subsets
// and Count sizes them, so the report and the daemon join in one place.
func join(misconfigured, honeypotSources, telescopeSources IPSet, add func(subset int, ip netsim.IPv4)) {
	for ip := range misconfigured {
		switch hp, tel := honeypotSources.Contains(ip), telescopeSources.Contains(ip); {
		case hp && tel:
			add(both, ip)
		case hp:
			add(honeypotOnly, ip)
		case tel:
			add(telescopeOnly, ip)
		}
	}
}

// Intersect computes which misconfigured devices appear as attack sources.
func Intersect(misconfigured IPSet, honeypotSources IPSet, telescopeSources IPSet) Intersection {
	var x Intersection
	subsets := [...]*[]netsim.IPv4{honeypotOnly: &x.HoneypotOnly, telescopeOnly: &x.TelescopeOnly, both: &x.Both}
	join(misconfigured, honeypotSources, telescopeSources, func(subset int, ip netsim.IPv4) {
		*subsets[subset] = append(*subsets[subset], ip)
	})
	for _, s := range subsets {
		slices.Sort(*s)
	}
	return x
}

// Counts sizes the join without listing it: Intersect's three subsets, plus
// the attack sources both datasets saw, misconfigured or not.
type Counts struct{ HoneypotOnly, TelescopeOnly, Both, SharedSources int }

// Count computes the join's sizes without allocating, for the daemon's
// every cycle.
func Count(misconfigured, honeypotSources, telescopeSources IPSet) Counts {
	var n [3]int
	join(misconfigured, honeypotSources, telescopeSources, func(subset int, _ netsim.IPv4) { n[subset]++ })
	small, large := honeypotSources, telescopeSources
	if len(large) < len(small) {
		small, large = large, small
	}
	shared := 0
	for ip := range small {
		if large.Contains(ip) {
			shared++
		}
	}
	return Counts{n[honeypotOnly], n[telescopeOnly], n[both], shared}
}

// HoneypotSources extracts unique attack sources from honeypot events.
func HoneypotSources(events []honeypot.Event) IPSet {
	s := make(IPSet)
	for _, ev := range events {
		s[ev.Src] = struct{}{}
	}
	return s
}

// TelescopeSources extracts unique sources from telescope flows.
func TelescopeSources(flows []*telescope.FlowTuple) IPSet {
	s := make(IPSet)
	for _, ft := range flows {
		s[ft.SrcIP] = struct{}{}
	}
	return s
}

// CensysExtension is the Section 5.3 extension: attack sources that are not
// in our misconfigured set but carry a Censys "iot" tag (paper: 1,671 more
// devices, mostly cameras, routers and IP phones).
type CensysExtension struct {
	HoneypotOnly  []netsim.IPv4
	TelescopeOnly []netsim.IPv4
	Both          []netsim.IPv4
	// TypeCounts tallies the tagged device types.
	TypeCounts map[string]int
}

// Total is the number of additionally identified IoT attackers.
func (c CensysExtension) Total() int {
	return len(c.HoneypotOnly) + len(c.TelescopeOnly) + len(c.Both)
}

// ExtendWithCensys checks remaining attack sources against the Censys IoT
// tags.
func ExtendWithCensys(store *intel.Censys, alreadyFound IPSet,
	honeypotSources, telescopeSources IPSet) CensysExtension {
	ext := CensysExtension{TypeCounts: make(map[string]int)}
	consider := func(ip netsim.IPv4, hp, tel bool) {
		if alreadyFound.Contains(ip) {
			return
		}
		tag, ok := store.IoTTag(ip)
		if !ok {
			return
		}
		ext.TypeCounts[tag]++
		switch {
		case hp && tel:
			ext.Both = append(ext.Both, ip)
		case hp:
			ext.HoneypotOnly = append(ext.HoneypotOnly, ip)
		default:
			ext.TelescopeOnly = append(ext.TelescopeOnly, ip)
		}
	}
	for ip := range honeypotSources {
		consider(ip, true, telescopeSources.Contains(ip))
	}
	for ip := range telescopeSources {
		if !honeypotSources.Contains(ip) {
			consider(ip, false, true)
		}
	}
	slices.Sort(ext.HoneypotOnly)
	slices.Sort(ext.TelescopeOnly)
	slices.Sort(ext.Both)
	return ext
}

// ScanningServiceComparison is the Figure 5 data: how many sources our
// method classifies as scanning services versus how many GreyNoise knows.
type ScanningServiceComparison struct {
	Ours         int
	GreyNoise    int
	MissedByGN   int // sources we identified that GreyNoise did not (paper: 2,023)
	AgreedBenign int
}

// CompareScanningServices joins our reverse-lookup classification with the
// GreyNoise store over the given sources.
func CompareScanningServices(sources []netsim.IPv4, rdns *geo.RDNS, gn *intel.GreyNoise) ScanningServiceComparison {
	var cmp ScanningServiceComparison
	for _, ip := range sources {
		_, kind := rdns.Lookup(ip)
		ours := kind == geo.RDNSScanerService
		theirs := gn.Lookup(ip) == intel.LabelBenign
		if ours {
			cmp.Ours++
			if theirs {
				cmp.AgreedBenign++
			} else {
				cmp.MissedByGN++
			}
		}
		if theirs {
			cmp.GreyNoise++
		}
	}
	return cmp
}

// MaliciousShare is one Figure 6 bar: the fraction of a protocol's sources
// VirusTotal flags as malicious, split by origin dataset (H = honeypot,
// T = telescope).
type MaliciousShare struct {
	Protocol iot.Protocol
	Origin   string // "H" or "T"
	Sources  int
	Flagged  int
}

// Share returns the flagged fraction.
func (m MaliciousShare) Share() float64 {
	if m.Sources == 0 {
		return 0
	}
	return float64(m.Flagged) / float64(m.Sources)
}

// VirusTotalShares computes Figure 6: per protocol and origin, the share of
// unique sources at least one vendor flags.
func VirusTotalShares(events []honeypot.Event, flows []*telescope.FlowTuple,
	vt *intel.VirusTotal) []MaliciousShare {
	type key struct {
		proto  iot.Protocol
		origin string
	}
	uniq := make(map[key]IPSet)
	add := func(k key, ip netsim.IPv4) {
		if uniq[k] == nil {
			uniq[k] = make(IPSet)
		}
		uniq[k][ip] = struct{}{}
	}
	for _, ev := range events {
		add(key{ev.Protocol, "H"}, ev.Src)
	}
	for _, ft := range flows {
		if proto, ok := telescope.ProtocolOfPort(ft.DstPort); ok {
			add(key{proto, "T"}, ft.SrcIP)
		}
	}
	out := make([]MaliciousShare, 0, len(uniq))
	for k, ips := range uniq {
		ms := MaliciousShare{Protocol: k.proto, Origin: k.origin, Sources: len(ips)}
		for ip := range ips {
			if vt.IsMalicious(ip) {
				ms.Flagged++
			}
		}
		out = append(out, ms)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Protocol != out[j].Protocol {
			return out[i].Protocol < out[j].Protocol
		}
		return out[i].Origin < out[j].Origin
	})
	return out
}

// DomainFindings is the Section 5.3 reverse-lookup study of attack sources.
type DomainFindings struct {
	RegisteredDomains int // paper: 797
	WithWebpage       int // paper: 427
}

// ReverseLookupStudy resolves every source and tallies domain findings.
func ReverseLookupStudy(sources []netsim.IPv4, rdns *geo.RDNS) DomainFindings {
	var f DomainFindings
	for _, ip := range sources {
		if _, kind := rdns.Lookup(ip); kind == geo.RDNSDomain {
			f.RegisteredDomains++
			if rdns.HasWebpage(ip) {
				f.WithWebpage++
			}
		}
	}
	return f
}
