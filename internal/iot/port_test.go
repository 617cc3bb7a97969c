package iot

import (
	"testing"

	"openhire/internal/netsim"
	"openhire/internal/prng"
)

// TestPortOpenIsTheHost checks the port oracle against the host it stands in
// for, exhaustively: for every address of a boosted /17, every port any
// module or extension probes plus three nobody listens on, both transports,
// with and without oversampled wild honeypots, PortOpen answers exactly what
// Host(ip) and its StreamService/DatagramService(port) answer.
func TestPortOpenIsTheHost(t *testing.T) {
	ports := []uint16{23, 2323, 1883, 5672, 5222, 5683, 1900, 7547, 445, 22, 80}
	prefix := netsim.MustParsePrefix("100.0.0.0/17")
	for _, honeypotBoost := range []float64{0, 200 * 64} {
		u := NewUniverse(UniverseConfig{Seed: 42, Prefix: prefix, DensityBoost: 200, HoneypotBoost: honeypotBoost})
		hosts, honeypots, open := 0, 0, 0
		for i := uint64(0); i < prefix.Size(); i++ {
			ip := prefix.Nth(i)
			host := u.Host(ip)
			if host != nil {
				hosts++
			}
			if _, ok := host.(wildHoneypotHost); ok {
				honeypots++
			}
			for _, port := range ports {
				wantTCP := host != nil && host.StreamService(port) != nil
				wantUDP := host != nil && host.DatagramService(port) != nil
				if got := u.PortOpen(ip, netsim.TCP, port); got != wantTCP {
					t.Fatalf("boost %v: PortOpen(%v, tcp/%d) = %v, host says %v", honeypotBoost, ip, port, got, wantTCP)
				}
				if got := u.PortOpen(ip, netsim.UDP, port); got != wantUDP {
					t.Fatalf("boost %v: PortOpen(%v, udp/%d) = %v, host says %v", honeypotBoost, ip, port, got, wantUDP)
				}
				if wantTCP || wantUDP {
					open++
				}
			}
			// A populated address answers on at least one swept port: Host's
			// "any protocol exposed" and listener's per-port view agree.
			if host != nil && !anyOpen(host, ports) {
				t.Fatalf("boost %v: host at %v listens on none of %v", honeypotBoost, ip, ports)
			}
		}
		// The sample must exercise every branch: devices, honeypots, open
		// and closed ports.
		if hosts < 1000 || open < hosts {
			t.Fatalf("boost %v: %d hosts, %d open ports: universe too sparse to prove anything", honeypotBoost, hosts, open)
		}
		if honeypotBoost > 0 && honeypots < 100 {
			t.Fatalf("boost %v: only %d wild honeypots", honeypotBoost, honeypots)
		}
	}
	outside := netsim.MustParseIPv4("200.0.0.1")
	u := testUniverse(1 << 20) // every address exposes everything
	if u.PortOpen(outside, netsim.TCP, 23) || u.Host(outside) != nil {
		t.Fatal("address outside the prefix is populated")
	}
}

func anyOpen(h netsim.Host, ports []uint16) bool {
	for _, port := range ports {
		if h.StreamService(port) != nil || h.DatagramService(port) != nil {
			return true
		}
	}
	return false
}

// TestExposesIsSpecOK pins the exposure-only predicate to the spec
// derivation it short-cuts, for every scanned protocol, and that extension
// protocols stay out of it as they stay out of Spec.
func TestExposesIsSpecOK(t *testing.T) {
	u := testUniverse(300)
	prefix := u.Config().Prefix
	exposed := 0
	for i := uint64(0); i < prefix.Size(); i += 3 {
		ip := prefix.Nth(i)
		for _, p := range ScannedProtocols {
			_, ok := u.Spec(ip, p)
			if got := u.Exposes(ip, p); got != ok {
				t.Fatalf("Exposes(%v, %s) = %v, Spec ok = %v", ip, p, got, ok)
			}
			if ok {
				exposed++
			}
		}
		for _, p := range ExtensionProtocols {
			if _, ok := u.Spec(ip, p); ok || u.Exposes(ip, p) {
				t.Fatalf("extension protocol %s leaked into the scanned set at %v", p, ip)
			}
		}
	}
	if exposed == 0 {
		t.Fatal("nothing exposed")
	}
	if u.Exposes(netsim.MustParseIPv4("200.0.0.1"), ProtoTelnet) {
		t.Fatal("exposure outside the prefix")
	}
}

// TestFoldedRollsAreTheUnfoldedHashes pins every roll that finishes from a
// label folded once per universe to the hash it stands for,
// u.src.Hash64(label, ...), over generated seeds and addresses. Every density
// is set to one half, so a roll reading a different hash disagrees with the
// reference on about half the draws and the failure names the roll.
func TestFoldedRollsAreTheUnfoldedHashes(t *testing.T) {
	gen := prng.New(2021)
	for trial := 0; trial < 64; trial++ {
		u := NewUniverse(UniverseConfig{Seed: gen.Uint64(), Prefix: netsim.MustParsePrefix("0.0.0.0/0")})
		u.honeypotDensity = 0.5
		for i := range u.exposure {
			u.exposure[i].density = 0.5
		}
		for n := 0; n < 64; n++ {
			ip := netsim.IPv4(gen.Uint32())
			anyExposed := false
			for i := range u.exposure {
				e := &u.exposure[i]
				want := below(u.src.Hash64(labelExposed, uint64(ip), e.ph), e.density)
				if got := u.exposed(ip, e); got != want {
					t.Fatalf("seed %d: exposure roll (%s) at %v = %v, unfolded hash says %v", u.cfg.Seed, e.proto, ip, got, want)
				}
				anyExposed = anyExposed || (want && !e.ext)
			}
			if got, _ := u.ExposureAny(ip); got != anyExposed {
				t.Fatalf("seed %d: ExposureAny's exposure rolls at %v = %v, unfolded hashes say %v", u.cfg.Seed, ip, got, anyExposed)
			}
			wantHoneypot := below(u.src.Hash64(labelHoneypot, uint64(ip)), u.honeypotDensity)
			if got := u.wildHoneypotAt(ip); got != wantHoneypot {
				t.Fatalf("seed %d: wild-honeypot roll at %v = %v, unfolded hash says %v", u.cfg.Seed, ip, got, wantHoneypot)
			}
			if family, ok := u.WildHoneypot(ip); ok {
				want := HoneypotFamilies[prng.New(u.src.Hash64(labelHoneypot, uint64(ip), 7)).WeightedChoice(honeypotWeights)]
				if family.Name != want.Name {
					t.Fatalf("seed %d: wild-honeypot family roll at %v = %s, unfolded hash says %s", u.cfg.Seed, ip, family.Name, want.Name)
				}
			}
			wantPort := uint16(23)
			if u.src.Hash64(labelAltPort, uint64(ip))%100 < 7 {
				wantPort = telnetAltPort
			}
			if got := u.TelnetPort(ip); got != wantPort {
				t.Fatalf("seed %d: alt-port roll at %v = %d, unfolded hash says %d", u.cfg.Seed, ip, got, wantPort)
			}
		}
	}
}
