package faults

import (
	"math"
	"testing"
	"time"

	"openhire/internal/netsim"
)

var probeTime = netsim.ExperimentStart.Add(6 * time.Hour)

func TestZeroProfileBuildsNoModel(t *testing.T) {
	if m := New(Zero()); m != nil {
		t.Fatal("New(Zero()) != nil")
	}
	if m := New(Profile{Seed: 99}); m != nil {
		t.Fatal("a seed alone is not a pathology; New must return nil")
	}
	if m := New(Calibrated()); m == nil {
		t.Fatal("New(Calibrated()) == nil")
	}
}

// TestPlanProbePure asserts the model is a pure function: identical inputs
// give identical plans, across two independently constructed models.
func TestPlanProbePure(t *testing.T) {
	a, b := New(Harsh()), New(Harsh())
	for i := uint32(0); i < 2000; i++ {
		dst := netsim.Endpoint{IP: netsim.IPv4(0x32000000 + i*977), Port: uint16(23 + i%5)}
		for att := uint32(0); att < 3; att++ {
			pa := a.PlanProbe(1, dst, netsim.TCP, att, probeTime)
			pb := b.PlanProbe(1, dst, netsim.TCP, att, probeTime)
			if pa != pb {
				t.Fatalf("plans diverge for %v attempt %d: %+v vs %+v", dst, att, pa, pb)
			}
		}
	}
}

// TestLossRateCalibration samples the SYN loss decision and checks the
// empirical rate tracks the configured probability.
func TestLossRateCalibration(t *testing.T) {
	const p = 0.1
	m := New(Profile{Seed: 3, SYNLoss: p})
	const samples = 20000
	dropped := 0
	for i := 0; i < samples; i++ {
		dst := netsim.Endpoint{IP: netsim.IPv4(0x0A000000 + i), Port: 23}
		if m.PlanProbe(1, dst, netsim.TCP, 0, probeTime).DropSYN {
			dropped++
		}
	}
	got := float64(dropped) / samples
	if math.Abs(got-p) > 0.01 {
		t.Fatalf("empirical loss %.4f, configured %.2f", got, p)
	}
}

// TestRetransmitDrawsFreshLoss asserts attempts draw independently: a target
// whose first transmission is lost is usually reachable on a later attempt.
func TestRetransmitDrawsFreshLoss(t *testing.T) {
	m := New(Profile{Seed: 3, SYNLoss: 0.5})
	lostAll := 0
	const hosts = 4000
	for i := 0; i < hosts; i++ {
		dst := netsim.Endpoint{IP: netsim.IPv4(0x0A000000 + i), Port: 23}
		all := true
		for att := uint32(0); att < 3; att++ {
			if !m.PlanProbe(1, dst, netsim.TCP, att, probeTime).DropSYN {
				all = false
				break
			}
		}
		if all {
			lostAll++
		}
	}
	// Independent draws at 50% lose all three ~12.5% of the time; correlated
	// draws would lose all three ~50% of the time.
	got := float64(lostAll) / hosts
	if got > 0.16 || got < 0.09 {
		t.Fatalf("all-three-lost rate %.4f; attempts are not independent draws", got)
	}
}

// TestFlapEpochChurn asserts the down-host set re-rolls across churn epochs
// and is stable within one.
func TestFlapEpochChurn(t *testing.T) {
	m := New(Profile{Seed: 7, FlapProb: 0.5, FlapPeriod: time.Hour})
	sameEpoch := probeTime.Add(10 * time.Minute)
	nextEpoch := probeTime.Add(2 * time.Hour)
	changed, down := 0, 0
	const hosts = 2000
	for i := 0; i < hosts; i++ {
		dst := netsim.Endpoint{IP: netsim.IPv4(0x0A000000 + i), Port: 23}
		now := m.PlanProbe(1, dst, netsim.TCP, 0, probeTime).HostDown
		if now {
			down++
		}
		if m.PlanProbe(1, dst, netsim.TCP, 0, sameEpoch).HostDown != now {
			t.Fatalf("host %v flapped within one epoch", dst.IP)
		}
		if m.PlanProbe(1, dst, netsim.TCP, 0, nextEpoch).HostDown != now {
			changed++
		}
	}
	if down < hosts/3 || down > 2*hosts/3 {
		t.Fatalf("%d of %d hosts down at FlapProb 0.5", down, hosts)
	}
	// At 50% flap, half the hosts change state across an epoch boundary.
	if changed < hosts/3 {
		t.Fatalf("only %d of %d hosts changed across the epoch boundary", changed, hosts)
	}
}

// TestExemptPrefixesUntouched asserts exempt space sees no pathology at all,
// even under the harsh profile.
func TestExemptPrefixesUntouched(t *testing.T) {
	p := Harsh()
	p.Exempt = netsim.NewPrefixSet(netsim.MustParsePrefix("198.18.0.0/24"))
	m := New(p)
	for i := 0; i < 256; i++ {
		ip := netsim.MustParseIPv4("198.18.0.0") + netsim.IPv4(i)
		for att := uint32(0); att < 3; att++ {
			plan := m.PlanProbe(1, netsim.Endpoint{IP: ip, Port: 23}, netsim.TCP, att, probeTime)
			if plan != (netsim.FaultPlan{}) {
				t.Fatalf("exempt host %v got plan %+v", ip, plan)
			}
		}
		if m.Blackholed(1, ip) {
			t.Fatalf("exempt host %v reported blackholed", ip)
		}
	}
}

// TestBlackholedMatchesPlan asserts the breaker oracle and the per-probe
// plan agree: a blackholed destination's probes are always dropped.
func TestBlackholedMatchesPlan(t *testing.T) {
	m := New(Profile{Seed: 11, BlackholeFrac: 0.2})
	blackholed := 0
	for i := 0; i < 4000; i++ {
		ip := netsim.IPv4(0x0A000000 + i*131)
		if !m.Blackholed(1, ip) {
			continue
		}
		blackholed++
		for att := uint32(0); att < 3; att++ {
			if !m.PlanProbe(1, netsim.Endpoint{IP: ip, Port: 23}, netsim.TCP, att, probeTime).DropSYN {
				t.Fatalf("blackholed host %v had a surviving SYN", ip)
			}
			if !m.PlanProbe(1, netsim.Endpoint{IP: ip, Port: 5683}, netsim.UDP, att, probeTime).DropDatagram {
				t.Fatalf("blackholed host %v had a surviving datagram", ip)
			}
		}
	}
	if blackholed == 0 {
		t.Fatal("no blackholed addresses in sample")
	}
}

// TestTarpitStableResetPerFlow asserts tarpitting is a service property
// (every attempt sees the same truncation budget) while resets re-roll per
// attempt.
func TestTarpitStableResetPerFlow(t *testing.T) {
	m := New(Profile{Seed: 13, TarpitProb: 1.0, TarpitBytes: 24})
	dst := netsim.Endpoint{IP: 0x0A0B0C0D, Port: 23}
	first := m.PlanProbe(1, dst, netsim.TCP, 0, probeTime).TruncateAfter
	if first <= 0 || first > 24 {
		t.Fatalf("tarpit budget %d outside (0, 24]", first)
	}
	for att := uint32(1); att < 4; att++ {
		if got := m.PlanProbe(1, dst, netsim.TCP, att, probeTime).TruncateAfter; got != first {
			t.Fatalf("tarpit budget changed across attempts: %d then %d", first, got)
		}
	}

	mr := New(Profile{Seed: 13, ResetProb: 0.5, ResetBytes: 32})
	varies := false
	base := mr.PlanProbe(1, dst, netsim.TCP, 0, probeTime).ResetAfter
	for att := uint32(1); att < 16 && !varies; att++ {
		if mr.PlanProbe(1, dst, netsim.TCP, att, probeTime).ResetAfter != base {
			varies = true
		}
	}
	if !varies {
		t.Fatal("reset decision identical across 16 attempts at 50% probability")
	}
}

func TestParse(t *testing.T) {
	p, err := Parse("calibrated,synloss=0.05,flapperiod=30m,seed=0x7,tarpitbytes=48")
	if err != nil {
		t.Fatal(err)
	}
	if p.SYNLoss != 0.05 || p.FlapPeriod != 30*time.Minute || p.Seed != 7 || p.TarpitBytes != 48 {
		t.Fatalf("overrides not applied: %+v", p)
	}
	if p.DatagramLoss != Calibrated().DatagramLoss {
		t.Fatal("non-overridden knob lost its preset value")
	}

	if p, err := Parse(""); err != nil || p.Enabled() {
		t.Fatalf("empty spec: %+v, %v", p, err)
	}
	if p, err := Parse("off"); err != nil || p.Enabled() {
		t.Fatalf("off spec: %+v, %v", p, err)
	}
	if _, err := Parse("harsh"); err != nil {
		t.Fatal(err)
	}

	for _, bad := range []string{
		"tornado",              // unknown preset
		"calibrated,synloss=2", // probability out of range
		"calibrated,latbase=-5ms",
		"calibrated,bogus=1",
		"calibrated,synloss",
	} {
		if _, err := Parse(bad); err == nil {
			t.Fatalf("Parse(%q) accepted", bad)
		}
	}
}

// TestParseRejectsNaN: strconv.ParseFloat accepts "NaN", and NaN fails both
// sides of a range check, so a NaN knob must be rejected explicitly rather
// than silently reading as "never".
func TestParseRejectsNaN(t *testing.T) {
	for _, spec := range []string{
		"calibrated,synloss=NaN",
		"zero,blackhole=nan",
		"harsh,flap=+NaN",
		"calibrated,rldrop=-nan",
		"calibrated,udploss=Inf",
	} {
		if p, err := Parse(spec); err == nil {
			t.Errorf("Parse(%q) accepted: %+v", spec, p)
		}
	}
}

// TestParseRejectsSubSecondFlapPeriod: churn epochs are whole seconds, so a
// shorter period would divide by zero on the first probe.
func TestParseRejectsSubSecondFlapPeriod(t *testing.T) {
	if _, err := Parse("calibrated,flapperiod=500ms"); err == nil {
		t.Fatal("sub-second flap period accepted")
	}
	if p, err := Parse("calibrated,flapperiod=0"); err != nil || New(p).Profile().FlapPeriod != time.Hour {
		t.Fatalf("flapperiod=0 should keep the hourly default: %v", err)
	}
}

// FuzzParse feeds arbitrary -faults specs to Parse. It must never panic, and
// every profile it accepts must be in range — probabilities in [0, 1],
// durations and counts non-negative — and drive the model without panicking.
func FuzzParse(f *testing.F) {
	for _, seed := range []string{
		"", "off", "calibrated", "harsh,seed=0x7",
		"calibrated,synloss=0.05,flapperiod=30m,tarpitbytes=48",
		"zero,blackhole=1,latjitter=1ns", "calibrated,synloss=NaN",
		"calibrated,flapperiod=1s,flap=1", "harsh,,reset=0.5,resetbytes=0",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		p, err := Parse(spec)
		if err != nil {
			return
		}
		for name, v := range map[string]float64{
			"synloss": p.SYNLoss, "udploss": p.DatagramLoss, "slowprob": p.SlowHostProb,
			"tarpit": p.TarpitProb, "reset": p.ResetProb, "flap": p.FlapProb,
			"ratelimited": p.RateLimitedFrac, "rldrop": p.RateLimitDrop, "blackhole": p.BlackholeFrac,
		} {
			if !(v >= 0 && v <= 1) {
				t.Fatalf("%q: %s = %v, not a probability", spec, name, v)
			}
		}
		for name, d := range map[string]time.Duration{
			"latbase": p.LatencyBase, "latjitter": p.LatencyJitter,
			"slowlat": p.SlowHostLatency, "flapperiod": p.FlapPeriod,
		} {
			if d < 0 {
				t.Fatalf("%q: %s = %v is negative", spec, name, d)
			}
		}
		if p.TarpitBytes < 0 || p.ResetBytes < 0 {
			t.Fatalf("%q: negative byte count in %+v", spec, p)
		}
		if m := New(p); m != nil {
			dst := netsim.Endpoint{IP: netsim.MustParseIPv4("100.0.0.1"), Port: 23}
			for attempt := uint32(0); attempt < 4; attempt++ {
				m.PlanProbe(netsim.MustParseIPv4("130.226.0.1"), dst, netsim.TCP, attempt, netsim.ExperimentStart)
				m.PlanProbe(netsim.MustParseIPv4("130.226.0.1"), dst, netsim.UDP, attempt, netsim.ExperimentStart)
			}
			m.Blackholed(0, dst.IP)
		}
	})
}
