package iot

import (
	"testing"

	"openhire/internal/netsim"
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
