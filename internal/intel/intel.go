// Package intel provides the local threat-intelligence substrate standing in
// for the external services the paper joins against: GreyNoise (benign /
// malicious / unknown source classification, Section 4.3.3), VirusTotal
// (per-IP and per-sample vendor verdicts, Figure 6 and Table 13) and the
// Censys IoT-tag dataset (Section 5.3).
//
// The stores are populated by the simulation itself: scanning-service actors
// register their ranges, the malware corpus registers sample hashes, and the
// attack layer reports sightings. Joins in the analysis pipeline therefore
// run the same logic as the paper against a consistent local ground truth,
// with the same imperfections — GreyNoise-like coverage gaps are modeled
// explicitly (the paper found 2,023 scanning-service IPs GreyNoise missed).
package intel

import (
	"sync"

	"openhire/internal/netsim"
	"openhire/internal/prng"
)

// GreyNoiseLabel is the three-way source classification.
type GreyNoiseLabel uint8

// GreyNoise labels.
const (
	LabelUnknown GreyNoiseLabel = iota
	LabelBenign
	LabelMalicious
)

// String names the label.
func (l GreyNoiseLabel) String() string {
	switch l {
	case LabelBenign:
		return "benign"
	case LabelMalicious:
		return "malicious"
	default:
		return "unknown"
	}
}

// GreyNoise is the source-classification store.
type GreyNoise struct {
	mu sync.RWMutex
	// labels holds explicit registrations.
	labels map[netsim.IPv4]GreyNoiseLabel
	// coverage is the probability a benign registration is actually known
	// to the service; the paper found GreyNoise missed 2,023 of the
	// scanning-service addresses the honeypots identified.
	coverage float64
	src      *prng.Source
}

// NewGreyNoise builds a store with the given benign-coverage probability
// (0 < coverage <= 1; the calibrated default is 0.81, matching the paper's
// ~10,696-2,023 over 10,696 hit rate).
func NewGreyNoise(seed uint64, coverage float64) *GreyNoise {
	if coverage <= 0 || coverage > 1 {
		coverage = 0.81
	}
	return &GreyNoise{
		labels:   make(map[netsim.IPv4]GreyNoiseLabel),
		coverage: coverage,
		src:      prng.New(seed),
	}
}

// RegisterBenign marks ip as scanning-service infrastructure. Whether the
// service actually knows it is subject to the coverage model.
func (g *GreyNoise) RegisterBenign(ip netsim.IPv4) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.src.Hash64(prng.HashString("gn-cover"), uint64(ip))%1000 < uint64(g.coverage*1000) {
		g.labels[ip] = LabelBenign
	}
}

// RegisterMalicious marks ip as a known-bad source.
func (g *GreyNoise) RegisterMalicious(ip netsim.IPv4) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.labels[ip] = LabelMalicious
}

// Lookup returns the service's label for ip.
func (g *GreyNoise) Lookup(ip netsim.IPv4) GreyNoiseLabel {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return g.labels[ip]
}

// Count returns how many addresses carry each label.
func (g *GreyNoise) Count() map[GreyNoiseLabel]int {
	g.mu.RLock()
	defer g.mu.RUnlock()
	out := make(map[GreyNoiseLabel]int)
	for _, l := range g.labels {
		out[l]++
	}
	return out
}

// VirusTotal is the vendor-verdict store for IPs.
type VirusTotal struct {
	mu sync.RWMutex
	// ipScores maps an address to the number of vendors flagging it.
	ipScores map[netsim.IPv4]int
}

// NewVirusTotal builds an empty store.
func NewVirusTotal() *VirusTotal {
	return &VirusTotal{
		ipScores: make(map[netsim.IPv4]int),
	}
}

// FlagIP records that `vendors` additional vendors consider ip malicious.
func (v *VirusTotal) FlagIP(ip netsim.IPv4, vendors int) {
	if vendors <= 0 {
		return
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	if vendors > v.ipScores[ip] {
		v.ipScores[ip] = vendors
	}
}

// IPScore returns the positive-vendor count for ip.
func (v *VirusTotal) IPScore(ip netsim.IPv4) int {
	v.mu.RLock()
	defer v.mu.RUnlock()
	return v.ipScores[ip]
}

// IsMalicious applies the paper's rule: at least one vendor flags the IP
// (Section 4.3.3).
func (v *VirusTotal) IsMalicious(ip netsim.IPv4) bool {
	return v.IPScore(ip) >= 1
}

// Censys is the IoT-tag dataset: addresses its periodic scans labelled as
// IoT devices, with a device-type string ("camera", "router", "ip phone").
type Censys struct {
	mu   sync.RWMutex
	tags map[netsim.IPv4]string
}

// NewCensys builds an empty store.
func NewCensys() *Censys {
	return &Censys{tags: make(map[netsim.IPv4]string)}
}

// Tag records ip as an IoT device of the given type.
func (c *Censys) Tag(ip netsim.IPv4, deviceType string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.tags[ip] = deviceType
}

// IoTTag returns the device-type tag for ip, if any.
func (c *Censys) IoTTag(ip netsim.IPv4) (string, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	tag, ok := c.tags[ip]
	return tag, ok
}

// Len returns the number of tagged devices.
func (c *Censys) Len() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.tags)
}
