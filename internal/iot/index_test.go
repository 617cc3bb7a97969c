package iot

import (
	"fmt"
	"runtime"
	"slices"
	"testing"

	"openhire/internal/netsim"
)

// bruteForceIndex is the index as a reference walk: the public per-pair
// predicates, asked of every (address, scanned protocol).
func bruteForceIndex(u *Universe) []Exposed {
	var out []Exposed
	prefix := u.Config().Prefix
	for i := uint64(0); i < prefix.Size(); i++ {
		x := Exposed{IP: prefix.Nth(i)}
		for b, p := range ScannedProtocols {
			if u.Exposes(x.IP, p) {
				x.Protocols |= 1 << b
			}
		}
		_, x.Honeypot = u.WildHoneypot(x.IP)
		if x.Protocols != 0 || x.Honeypot {
			out = append(out, x)
		}
	}
	return out
}

// TestExposedIndexEqualsBruteForce builds the index at 1, 2 and 7 processors
// on /20 universes — bare, at the default boost, and with Table 6's 64×
// honeypot oversampling on top of it — and requires the reference walk's
// entries, in its order. Run under -race it also covers the parallel build.
func TestExposedIndexEqualsBruteForce(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, seed := range []uint64{1, 7, 2021} {
		for _, boost := range []struct{ density, honeypot float64 }{{1, 0}, {16, 0}, {16, 16 * 64}} {
			cfg := UniverseConfig{
				Seed: seed, Prefix: netsim.MustParsePrefix("100.0.0.0/20"),
				DensityBoost: boost.density, HoneypotBoost: boost.honeypot,
			}
			want := bruteForceIndex(NewUniverse(cfg))
			name := fmt.Sprintf("seed %d boost %v/%v", seed, boost.density, boost.honeypot)
			if boost.density == 16 && len(want) == 0 {
				t.Fatalf("%s: the reference walk found nothing", name)
			}
			for _, procs := range []int{1, 2, 7} {
				runtime.GOMAXPROCS(procs)
				u := NewUniverse(cfg)
				got := u.ExposedIndex()
				if !slices.Equal(got, want) {
					t.Errorf("%s, %d procs: %d entries, the reference walk finds %d (or other ones)",
						name, procs, len(got), len(want))
				}
				if again := u.ExposedIndex(); len(again) > 0 && &again[0] != &got[0] {
					t.Errorf("%s, %d procs: second call rebuilt the index", name, procs)
				}
			}
		}
	}
}

// TestExposedIndexHoldsShadowedDevices pins what the two flags mean where
// they meet: a wild honeypot on top of an exposed device keeps the device's
// protocol bits (PopulateCensys reads them; the crawls skip the entry), and
// a honeypot on an otherwise dark address is an entry with no bits.
func TestExposedIndexHoldsShadowedDevices(t *testing.T) {
	u := NewUniverse(UniverseConfig{
		Seed: 2021, Prefix: netsim.MustParsePrefix("100.0.0.0/16"),
		DensityBoost: 32, HoneypotBoost: 32 * 64,
	})
	var shadowed, bare int
	for _, x := range u.ExposedIndex() {
		switch {
		case x.Honeypot && x.Protocols != 0:
			shadowed++
		case x.Honeypot:
			bare++
		}
	}
	if shadowed == 0 || bare == 0 {
		t.Fatalf("%d honeypots over devices, %d on dark addresses: want both kinds", shadowed, bare)
	}
}

func TestExposedExposes(t *testing.T) {
	for i, p := range ScannedProtocols {
		for mask := 0; mask < 1<<len(ScannedProtocols); mask++ {
			x := Exposed{Protocols: uint8(mask)}
			if got, want := x.Exposes(p), mask&(1<<i) != 0; got != want {
				t.Fatalf("mask %#x exposes %s: %v, want %v", mask, p, got, want)
			}
		}
	}
	for _, p := range []Protocol{ProtoSSH, ProtoSMB, ProtoTR069, ""} {
		if (Exposed{Protocols: 0xff}).Exposes(p) {
			t.Errorf("an entry exposes unscanned protocol %q", p)
		}
	}
}

// BenchmarkExposedIndex is the one walk of the default /14 universe that
// Sonar, Shodan and Censys share. It breaks down the spine's
// datasets.sonar_ms + datasets.shodan_ms + datasets.censys_ms
// (report_default, -trace 1): the build lands in sonar_ms, the first crawl.
func BenchmarkExposedIndex(b *testing.B) {
	cfg := UniverseConfig{Seed: 2021, Prefix: netsim.MustParsePrefix("100.0.0.0/14"), DensityBoost: 16}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if len(NewUniverse(cfg).ExposedIndex()) == 0 {
			b.Fatal("empty index")
		}
	}
}
