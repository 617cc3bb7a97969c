package attack

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"sync"
	"testing"

	"openhire/internal/iot"
	"openhire/internal/netsim"
	"openhire/internal/prng"
)

// exposureFirstInfected is the walk DeriveInfected replaced, kept as the
// reference: every address pays its exposure rolls before the infection roll.
// It is serial, so it also checks the chunked walk's join order.
func exposureFirstInfected(seed uint64, u *iot.Universe) ([]netsim.IPv4, []InfectedTargets) {
	src := prng.New(seed)
	label := prng.HashString("infected")
	prefix := u.Config().Prefix
	var ips []netsim.IPv4
	var targets []InfectedTargets
	for i := uint64(0); i < prefix.Size(); i++ {
		ip := prefix.Nth(i)
		exposed, misconfigured := u.ExposureAny(ip)
		if !exposed {
			continue
		}
		h := src.Hash64(label, uint64(ip))
		roll2 := prng.New(src.Hash64(label, uint64(ip), 2)).Float64()
		u := float64(h>>11) / (1 << 53)
		var t InfectedTargets
		switch {
		case misconfigured && u < InfectedShare:
			t = InfectedTargets{Honeypots: true, Telescope: true}
			switch {
			case roll2 < InfectedHoneypotOnly:
				t = InfectedTargets{Honeypots: true}
			case roll2 < InfectedHoneypotOnly+InfectedTelescopeOnly:
				t = InfectedTargets{Telescope: true}
			}
		case !misconfigured && u < ConfiguredInfectedShare:
			t = InfectedTargets{Honeypots: true, Telescope: true, Configured: true}
			switch {
			case roll2 < ConfiguredHoneypotOnly:
				t = InfectedTargets{Honeypots: true, Configured: true}
			case roll2 < ConfiguredHoneypotOnly+ConfiguredTelescopeOnly:
				t = InfectedTargets{Telescope: true, Configured: true}
			}
		default:
			continue
		}
		ips = append(ips, ip)
		targets = append(targets, t)
	}
	return ips, targets
}

// TestDeriveInfectedEqualsExposureFirst requires the infection-first walk to
// select the same devices with the same targets as the exposure-first
// reference, over generated seeds, prefix lengths and density boosts.
func TestDeriveInfectedEqualsExposureFirst(t *testing.T) {
	gen := prng.New(20211102)
	boosts := []float64{1, 4, 16, 64}
	empty, nonEmpty := 0, 0
	for i := 0; i < 14; i++ {
		seed := gen.Uint64()
		bits := 16 + gen.Intn(7) // /16 .. /22
		base := netsim.IPv4(gen.Uint32()) &^ netsim.IPv4(1<<(32-bits)-1)
		prefix := netsim.MustParsePrefix(fmt.Sprintf("%v/%d", base, bits))
		boost := boosts[gen.Intn(len(boosts))]
		if i == 0 {
			// A pinned case with no infected device: the empty set is a value too.
			seed, prefix, boost = 7, netsim.MustParsePrefix("100.0.0.0/22"), 1
		}
		u := iot.NewUniverse(iot.UniverseConfig{Seed: seed, Prefix: prefix, DensityBoost: boost})
		wantIPs, wantTargets := exposureFirstInfected(seed, u)
		got := DeriveInfected(seed, u)
		name := fmt.Sprintf("seed=%d prefix=%v boost=%g", seed, prefix, boost)
		if len(got.IPs()) != len(wantIPs) {
			t.Fatalf("%s: %d infected, reference %d", name, len(got.IPs()), len(wantIPs))
		}
		for j, ip := range wantIPs {
			if got.IPs()[j] != ip || got.targets[j] != wantTargets[j] {
				t.Fatalf("%s: entry %d is %v %+v, reference %v %+v",
					name, j, got.IPs()[j], got.targets[j], ip, wantTargets[j])
			}
			if tg, ok := got.TargetsFor(ip); !ok || tg != wantTargets[j] {
				t.Fatalf("%s: TargetsFor(%v) = %+v, %v", name, ip, tg, ok)
			}
		}
		if len(wantIPs) == 0 {
			empty++
		} else {
			nonEmpty++
		}
	}
	if empty == 0 || nonEmpty == 0 {
		t.Fatalf("generated %d empty and %d non-empty sets; want both kinds", empty, nonEmpty)
	}
}

// infectedDigest hashes an infected set: per device, its address and a
// target bit mask, in order.
func infectedDigest(in *Infected) string {
	h := sha256.New()
	for i, ip := range in.IPs() {
		var b [5]byte
		binary.BigEndian.PutUint32(b[:4], uint32(ip))
		tg := in.targets[i]
		if tg.Honeypots {
			b[4] |= 1
		}
		if tg.Telescope {
			b[4] |= 2
		}
		if tg.Configured {
			b[4] |= 4
		}
		h.Write(b[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestDeriveInfectedGolden pins the default world's /14 set and the §5.3
// split's /12 set, as the exposure-first walk selected them.
func TestDeriveInfectedGolden(t *testing.T) {
	for _, c := range []struct {
		prefix string
		boost  float64
		n      int
		digest string
	}{
		{"100.0.0.0/14", 16, 11, "1ef483f998ad36f6a7bcf9fa07e7829ffef9c8880939a64d8a8bde6edf47ca71"},
		{"100.0.0.0/12", 64, 206, "a46bf3f4d277d1a2c6cf29aafb4736532fc3fdf77112ed0e2b4580bbb8b8e9ba"},
	} {
		u := iot.NewUniverse(iot.UniverseConfig{
			Seed: 2021, Prefix: netsim.MustParsePrefix(c.prefix), DensityBoost: c.boost,
		})
		in := DeriveInfected(2021, u)
		if n, d := len(in.IPs()), infectedDigest(in); n != c.n || d != c.digest {
			t.Errorf("%s ×%g: %d infected, digest %s; want %d, %s", c.prefix, c.boost, n, d, c.n, c.digest)
		}
	}
}

// TestDeriveInfectedEmptyWalksOnce: a universe with no infected device is
// walked once; the memo holds the empty set like any other.
func TestDeriveInfectedEmptyWalksOnce(t *testing.T) {
	u := iot.NewUniverse(iot.UniverseConfig{Seed: 7, Prefix: netsim.MustParsePrefix("100.0.0.0/22")})
	s := NewSources(7, u, nil, nil)
	before := infectedWalks.Load()
	if got := s.DeriveInfected(); len(got) != 0 {
		t.Fatalf("fixture has %d infected devices; want none", len(got))
	}
	if allocs := testing.AllocsPerRun(10, func() { s.DeriveInfected() }); allocs != 0 {
		t.Errorf("a repeat call allocated %.0f times; want 0", allocs)
	}
	if walks := infectedWalks.Load() - before; walks != 1 {
		t.Errorf("%d walks for 12 calls; want 1", walks)
	}
}

// TestDeriveInfectedConcurrent: a World's campaign and darknet generator
// derive on one shared Sources; run under -race.
func TestDeriveInfectedConcurrent(t *testing.T) {
	u := iot.NewUniverse(iot.UniverseConfig{
		Seed: 2021, Prefix: netsim.MustParsePrefix("100.0.0.0/16"), DensityBoost: 64,
	})
	s := NewSources(2021, u, nil, nil)
	before := infectedWalks.Load()
	results := make([][]netsim.IPv4, 8)
	var wg sync.WaitGroup
	for i := range results {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i] = s.DeriveInfected()
			for _, ip := range results[i] {
				if _, ok := s.InfectedTargetsFor(ip); !ok {
					t.Errorf("no targets for infected %v", ip)
				}
			}
		}(i)
	}
	wg.Wait()
	if walks := infectedWalks.Load() - before; walks != 1 {
		t.Errorf("8 concurrent callers walked %d times; want 1", walks)
	}
	if len(results[0]) == 0 {
		t.Fatal("fixture has no infected devices")
	}
	for i, r := range results {
		if &r[0] != &results[0][0] {
			t.Errorf("caller %d got a different slice", i)
		}
	}
}

// TestUseInfected: a handed-in set replaces the walk, and a set of another
// seed, or one handed in after a derivation, is refused.
func TestUseInfected(t *testing.T) {
	u := iot.NewUniverse(iot.UniverseConfig{
		Seed: 2021, Prefix: netsim.MustParsePrefix("100.0.0.0/16"), DensityBoost: 64,
	})
	in := DeriveInfected(2021, u)
	s := NewSources(2021, u, nil, nil)
	before := infectedWalks.Load()
	s.UseInfected(in)
	if s.infectedSet() != in || infectedWalks.Load() != before {
		t.Error("Sources walked instead of using the handed-in set")
	}
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}
	mustPanic("another seed", func() { NewSources(2022, u, nil, nil).UseInfected(in) })
	derived := NewSources(2021, u, nil, nil)
	derived.DeriveInfected()
	mustPanic("after a derivation", func() { derived.UseInfected(in) })
}
