package scan

import (
	"context"
	"testing"

	"openhire/internal/netsim"
	"openhire/internal/netsim/faults"
)

// TestResponderSweptOnceGrabbedOnce pins the accounting of the populated
// side: on a perfect fabric every target is one transmission whether or not
// it answers (Probed counts sweeps; the grab of a responder is not a second
// one), and what reaches the services is what a ZMap-then-ZGrab pipeline
// sends there — one grab per open endpoint: one dial per open TCP endpoint,
// one datagram per open UDP endpoint, and nothing for the silent rest.
func TestResponderSweptOnceGrabbedOnce(t *testing.T) {
	const cidr = "50.0.0.0/20"
	n, prefix := chaosWorld(t, cidr, 50, faults.Zero())
	s := NewScanner(Config{Network: n, Source: netsim.MustParseIPv4("130.226.0.1"), Prefix: prefix, Seed: 5, Workers: 7,
		Blocklist: netsim.NewPrefixSet()})
	_, stats, err := s.Run(context.Background(), goldenModules(), nil, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	var responded uint64
	open := map[netsim.Transport]uint64{}
	for _, m := range goldenModules() {
		st := stats[m.Protocol()]
		if want := prefix.Size() * uint64(len(m.Ports())); st.Probed != want {
			t.Fatalf("%s: Probed = %d, want one per target = %d", m.Protocol(), st.Probed, want)
		}
		responded += st.Responded
		tr := m.Protocol().Transport()
		for i := uint64(0); i < prefix.Size(); i++ {
			for _, port := range m.Ports() {
				if n.Sweep(1, netsim.Endpoint{IP: prefix.Nth(i), Port: port}, tr, netsim.ProbeOptions{}) == netsim.Open {
					open[tr]++
				}
			}
		}
	}
	if responded == 0 || open[netsim.TCP] == 0 || open[netsim.UDP] == 0 {
		t.Fatalf("nothing to grab: responded %d, open %v", responded, open)
	}
	// Sweeps never reach a service, so the fabric's counters hold the grabs.
	ns := n.Stats()
	if got := ns.Dials.Load(); got != open[netsim.TCP] {
		t.Fatalf("%d dials, want one per open TCP endpoint = %d", got, open[netsim.TCP])
	}
	if got := ns.DialsOK.Load(); got != open[netsim.TCP] {
		t.Fatalf("%d completed handshakes, want one per open TCP endpoint = %d", got, open[netsim.TCP])
	}
	if got := ns.Datagrams.Load(); got != open[netsim.UDP] {
		t.Fatalf("%d datagrams, want one per open UDP endpoint = %d", got, open[netsim.UDP])
	}
}
