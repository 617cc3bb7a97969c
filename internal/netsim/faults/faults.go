// Package faults is the simulation's network-pathology layer: a seeded,
// fully deterministic model of everything the live IPv4 Internet does to a
// scanner that an in-memory fabric normally hides — probe loss, latency
// tails, tarpits, mid-stream resets, host churn, per-source rate limiting
// and administratively blackholed prefixes.
//
// Every decision is a pure function of (profile seed, destination, attempt
// ordinal, simulated time): there is no shared stream, no mutation, and no
// dependence on worker count or scheduling. Two runs with the same profile
// produce byte-identical traffic outcomes; a zero profile produces no model
// at all (New returns nil) and therefore byte-identical behaviour to a
// network with no fault layer installed.
package faults

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"openhire/internal/netsim"
	"openhire/internal/prng"
)

// Profile is the knob set of the pathology model. The zero value is a
// perfect network.
type Profile struct {
	// Seed drives every fault draw. Independent from the population and
	// scan seeds so chaos experiments can vary the weather without moving
	// the world underneath it.
	Seed uint64

	// SYNLoss is the per-transmission probability a TCP SYN (or its
	// SYN-ACK) is lost. Each retransmission attempt draws independently.
	SYNLoss float64
	// DatagramLoss is the per-transmission UDP loss probability.
	DatagramLoss float64

	// LatencyBase is the floor simulated RTT every path pays.
	LatencyBase time.Duration
	// LatencyJitter is the width of the per-(flow, attempt) uniform jitter
	// added on top of the base.
	LatencyJitter time.Duration
	// SlowHostProb marks a fraction of hosts as persistently slow (tarpit
	// adjacent: congested uplinks, wakeup-from-sleep devices); their RTT
	// gains SlowHostLatency on every attempt.
	SlowHostProb    float64
	SlowHostLatency time.Duration

	// TarpitProb marks a fraction of (host, port) services as tarpits: the
	// banner drips so slowly that any reasonable read window captures only
	// a prefix of TarpitBytes or fewer bytes before the stream is cut.
	TarpitProb  float64
	TarpitBytes int

	// ResetProb is the per-(flow, attempt) probability the conversation is
	// torn down by an RST after at most ResetBytes of server output.
	ResetProb  float64
	ResetBytes int

	// FlapProb is the fraction of hosts off the network during any given
	// churn epoch of FlapPeriod; which hosts are down re-rolls each epoch.
	FlapProb   float64
	FlapPeriod time.Duration

	// RateLimitedFrac is the fraction of /24 prefixes that ICMP-style
	// rate-limit heavy scanners; probes into them are dropped with
	// probability RateLimitDrop per (source, target, attempt).
	RateLimitedFrac float64
	RateLimitDrop   float64

	// BlackholeFrac is the fraction of /24 prefixes that administratively
	// drop all probes — the persistently dead space a scanner's circuit
	// breaker learns to skip.
	BlackholeFrac float64

	// Exempt lists prefixes the model never touches (deployed measurement
	// infrastructure: the paper's honeypots ran uninterrupted for the whole
	// month, so campaign replays exempt their addresses from churn).
	Exempt *netsim.PrefixSet
}

// Enabled reports whether any pathology knob is active.
func (p Profile) Enabled() bool {
	return p.SYNLoss > 0 || p.DatagramLoss > 0 ||
		p.LatencyBase > 0 || p.LatencyJitter > 0 || p.SlowHostProb > 0 ||
		p.TarpitProb > 0 || p.ResetProb > 0 || p.FlapProb > 0 ||
		p.RateLimitedFrac > 0 || p.BlackholeFrac > 0
}

// Zero is the no-pathology profile: New(Zero()) returns nil, leaving the
// network byte-identical to one without a fault layer.
func Zero() Profile { return Profile{} }

// Calibrated is the default chaos profile: mild, Internet-plausible rates
// under which a retransmitting scanner retains its coverage — per-protocol
// misconfigured-host proportions stay within ±2% of the zero-fault baseline
// (enforced by the chaos equivalence tests).
func Calibrated() Profile {
	return Profile{
		Seed:            0x0B5E55ED,
		SYNLoss:         0.03,
		DatagramLoss:    0.03,
		LatencyBase:     15 * time.Millisecond,
		LatencyJitter:   60 * time.Millisecond,
		SlowHostProb:    0.01,
		SlowHostLatency: 2 * time.Second,
		TarpitProb:      0.01,
		TarpitBytes:     24,
		ResetProb:       0.01,
		ResetBytes:      32,
		FlapProb:        0.01,
		FlapPeriod:      time.Hour,
		RateLimitedFrac: 0.05,
		RateLimitDrop:   0.30,
		BlackholeFrac:   0.01,
	}
}

// Harsh is a stress profile: heavy loss, aggressive rate limiting and churn.
// Coverage degrades visibly; used to exercise the graceful-degradation
// accounting rather than to reproduce paper numbers.
func Harsh() Profile {
	p := Calibrated()
	p.SYNLoss = 0.15
	p.DatagramLoss = 0.15
	p.SlowHostProb = 0.05
	p.TarpitProb = 0.05
	p.ResetProb = 0.05
	p.FlapProb = 0.05
	p.RateLimitedFrac = 0.15
	p.RateLimitDrop = 0.6
	p.BlackholeFrac = 0.03
	return p
}

// Model implements netsim.FaultModel over a Profile. All methods are pure:
// safe for unbounded concurrency, byte-identical across runs.
type Model struct {
	p    Profile
	root *prng.Source // hash root; never advanced, only Hash64'd
}

// Draw-domain labels keep the independent decision families in disjoint
// hash streams.
const (
	labelLoss     = 0x10c5
	labelJitter   = 0x2a17
	labelSlow     = 0x3b29
	labelTarpit   = 0x4c31
	labelTarpitSz = 0x4c32
	labelReset    = 0x5d43
	labelResetSz  = 0x5d44
	labelFlap     = 0x6e55
	labelRateLim  = 0x7f67
	labelRateDrop = 0x7f68
	labelBlack    = 0x8a79
)

// New builds the model, or returns nil when the profile has no active
// pathology — callers install nothing and keep the fast path.
func New(p Profile) *Model {
	if !p.Enabled() {
		return nil
	}
	if p.TarpitBytes <= 0 {
		p.TarpitBytes = 24
	}
	if p.ResetBytes <= 0 {
		p.ResetBytes = 32
	}
	if p.FlapPeriod <= 0 {
		p.FlapPeriod = time.Hour
	}
	return &Model{p: p, root: prng.New(p.Seed)}
}

// u01 maps 64 hash bits onto [0, 1).
func u01(h uint64) float64 { return float64(h>>11) / (1 << 53) }

// PlanProbe implements netsim.FaultModel.
func (m *Model) PlanProbe(src netsim.IPv4, dst netsim.Endpoint, tr netsim.Transport,
	attempt uint32, now time.Time) netsim.FaultPlan {
	var plan netsim.FaultPlan
	if m.p.Exempt != nil && m.p.Exempt.Contains(dst.IP) {
		return plan
	}
	ip := uint64(dst.IP)
	port := uint64(dst.Port)
	att := uint64(attempt)

	// Host churn: a deterministic subset of hosts is off the network each
	// epoch; the subset re-rolls when the simulated clock crosses an epoch
	// boundary, so a month-long replay sees hosts come and go.
	if m.p.FlapProb > 0 {
		epoch := uint64(now.Unix()) / uint64(m.p.FlapPeriod/time.Second)
		if u01(m.root.Hash64(labelFlap, ip, epoch)) < m.p.FlapProb {
			plan.HostDown = true
			return plan
		}
	}

	// Prefix-level pathologies.
	p24 := ip >> 8
	drop := false
	switch {
	case m.p.BlackholeFrac > 0 && u01(m.root.Hash64(labelBlack, p24)) < m.p.BlackholeFrac:
		drop = true // administrative blackhole: nothing ever comes back
	case m.p.RateLimitedFrac > 0 && u01(m.root.Hash64(labelRateLim, p24)) < m.p.RateLimitedFrac:
		if u01(m.root.Hash64(labelRateDrop, uint64(src), ip, port, att)) < m.p.RateLimitDrop {
			drop = true
		}
	}

	// Ambient loss, drawn independently per transmission.
	loss := m.p.SYNLoss
	if tr == netsim.UDP {
		loss = m.p.DatagramLoss
	}
	if !drop && loss > 0 && u01(m.root.Hash64(labelLoss, uint64(src), ip, port, att)) < loss {
		drop = true
	}
	if tr == netsim.UDP {
		plan.DropDatagram = drop
	} else {
		plan.DropSYN = drop
	}

	// Latency: per-host slow tail plus per-transmission jitter.
	lat := m.p.LatencyBase
	if m.p.SlowHostProb > 0 && u01(m.root.Hash64(labelSlow, ip)) < m.p.SlowHostProb {
		lat += m.p.SlowHostLatency
	}
	if m.p.LatencyJitter > 0 {
		lat += time.Duration(m.root.Hash64(labelJitter, ip, port, att) % uint64(m.p.LatencyJitter))
	}
	plan.Latency = lat

	// Stream pathologies (TCP only). Tarpit is a property of the service —
	// every attempt hits the same drip — while resets strike per flow.
	if tr == netsim.TCP {
		if m.p.TarpitProb > 0 && u01(m.root.Hash64(labelTarpit, ip, port)) < m.p.TarpitProb {
			plan.TruncateAfter = 1 + int(m.root.Hash64(labelTarpitSz, ip, port)%uint64(m.p.TarpitBytes))
		} else if m.p.ResetProb > 0 &&
			u01(m.root.Hash64(labelReset, uint64(src), ip, port, att)) < m.p.ResetProb {
			plan.ResetAfter = 1 + int(m.root.Hash64(labelResetSz, ip, port, att)%uint64(m.p.ResetBytes))
		}
	}
	return plan
}

// Blackholed implements netsim.FaultModel.
func (m *Model) Blackholed(src netsim.IPv4, dst netsim.IPv4) bool {
	if m.p.BlackholeFrac <= 0 {
		return false
	}
	if m.p.Exempt != nil && m.p.Exempt.Contains(dst) {
		return false
	}
	return u01(m.root.Hash64(labelBlack, uint64(dst)>>8)) < m.p.BlackholeFrac
}

// Profile returns the model's (normalized) profile.
func (m *Model) Profile() Profile { return m.p }

// Parse builds a Profile from a command-line spec: a preset name
// ("zero"/"off", "calibrated", "harsh") optionally followed by
// comma-separated key=value overrides, e.g.
//
//	calibrated,synloss=0.05,flap=0.02,seed=7
//
// Durations accept Go syntax ("150ms"); probabilities are floats in [0, 1].
func Parse(spec string) (Profile, error) {
	parts := strings.Split(spec, ",")
	var p Profile
	switch strings.ToLower(strings.TrimSpace(parts[0])) {
	case "", "zero", "off", "none":
		p = Zero()
	case "calibrated", "default":
		p = Calibrated()
	case "harsh":
		p = Harsh()
	default:
		return p, fmt.Errorf("faults: unknown profile %q (want zero|calibrated|harsh)", parts[0])
	}
	for _, kv := range parts[1:] {
		kv = strings.TrimSpace(kv)
		if kv == "" {
			continue
		}
		key, val, ok := strings.Cut(kv, "=")
		if !ok {
			return p, fmt.Errorf("faults: override %q is not key=value", kv)
		}
		if err := p.set(strings.ToLower(strings.TrimSpace(key)), strings.TrimSpace(val)); err != nil {
			return p, err
		}
	}
	return p, nil
}

// set applies one key=value override.
func (p *Profile) set(key, val string) error {
	prob := func(dst *float64) error {
		v, err := strconv.ParseFloat(val, 64)
		if err != nil || !(v >= 0 && v <= 1) { // NaN fails both comparisons
			return fmt.Errorf("faults: %s=%q is not a probability in [0, 1]", key, val)
		}
		*dst = v
		return nil
	}
	dur := func(dst *time.Duration) error {
		v, err := time.ParseDuration(val)
		if err != nil || v < 0 {
			return fmt.Errorf("faults: %s=%q is not a non-negative duration", key, val)
		}
		*dst = v
		return nil
	}
	count := func(dst *int) error {
		v, err := strconv.Atoi(val)
		if err != nil || v < 0 {
			return fmt.Errorf("faults: %s=%q is not a non-negative count", key, val)
		}
		*dst = v
		return nil
	}
	switch key {
	case "seed":
		v, err := strconv.ParseUint(val, 0, 64)
		if err != nil {
			return fmt.Errorf("faults: seed=%q is not a uint64", val)
		}
		p.Seed = v
		return nil
	case "synloss":
		return prob(&p.SYNLoss)
	case "udploss":
		return prob(&p.DatagramLoss)
	case "latbase":
		return dur(&p.LatencyBase)
	case "latjitter":
		return dur(&p.LatencyJitter)
	case "slowprob":
		return prob(&p.SlowHostProb)
	case "slowlat":
		return dur(&p.SlowHostLatency)
	case "tarpit":
		return prob(&p.TarpitProb)
	case "tarpitbytes":
		return count(&p.TarpitBytes)
	case "reset":
		return prob(&p.ResetProb)
	case "resetbytes":
		return count(&p.ResetBytes)
	case "flap":
		return prob(&p.FlapProb)
	case "flapperiod":
		if err := dur(&p.FlapPeriod); err != nil {
			return err
		}
		if p.FlapPeriod > 0 && p.FlapPeriod < time.Second {
			return fmt.Errorf("faults: flapperiod=%q is shorter than the one-second churn epoch", val)
		}
		return nil
	case "ratelimited":
		return prob(&p.RateLimitedFrac)
	case "rldrop":
		return prob(&p.RateLimitDrop)
	case "blackhole":
		return prob(&p.BlackholeFrac)
	default:
		return fmt.Errorf("faults: unknown knob %q", key)
	}
}
