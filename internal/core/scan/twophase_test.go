package scan

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"testing"

	"openhire/internal/iot"
	"openhire/internal/netsim"
	"openhire/internal/netsim/faults"
)

// wireTap is an observer that keeps every event, rendered, so two taps can
// be compared as sorted multisets whatever order workers transmitted in.
type wireTap struct {
	mu     sync.Mutex
	events []string
	kinds  map[netsim.ProbeKind]int
}

func (w *wireTap) Observe(ev netsim.ProbeEvent) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.events = append(w.events, fmt.Sprintf("%+v", ev))
	w.kinds[ev.Kind]++
}

func (w *wireTap) sorted() []string {
	slices.Sort(w.events)
	return w.events
}

// observedWorld is chaosWorld with a wire tap over prefix tapped.
func observedWorld(t testing.TB, profile faults.Profile, tapped string) (*netsim.Network, *wireTap) {
	n, _ := chaosWorld(t, "50.0.0.0/20", 50, profile)
	tap := &wireTap{kinds: make(map[netsim.ProbeKind]int)}
	n.AddObserver(netsim.MustParsePrefix(tapped), tap)
	return n, tap
}

// TestSweepWireEventsAreTheGrabs is the observer contract of the two-phase
// scan: sweeping a dark, observed prefix puts on the wire exactly what a
// scanner that ran the module's full grab for every transmission — the way
// the scan leg worked before the sweep existed — puts there: one event per
// transmission, each with the Kind, Size, TTL, Masscan flag, source port and
// timestamp of the grab's opening packet. The transmissions (target and
// retransmission ordinal) come from the scan's own ProbeSent events, and the
// reference replays each through ProbeModule.Probe on a twin fabric.
func TestSweepWireEventsAreTheGrabs(t *testing.T) {
	const dark = "44.0.0.0/22"
	src := netsim.MustParseIPv4("130.226.0.1")
	for _, profile := range []faults.Profile{faults.Zero(), faults.Calibrated(), faults.Harsh()} {
		n, tap := observedWorld(t, profile, dark)
		var (
			mu   sync.Mutex
			sent = make(map[iot.Protocol][]ProbeEvent)
		)
		s := NewScanner(Config{
			Network: n, Source: src, Prefix: netsim.MustParsePrefix(dark), Seed: 5, Workers: 7,
			OnProbe: func(ev ProbeEvent) {
				if ev.Kind == ProbeSent {
					mu.Lock()
					sent[ev.Protocol] = append(sent[ev.Protocol], ev)
					mu.Unlock()
				}
			},
		})
		_, stats, err := s.Run(context.Background(), goldenModules(), nil, 0, nil)
		if err != nil {
			t.Fatal(err)
		}

		twin, twinTap := observedWorld(t, profile, dark)
		var probed, retransmits uint64
		for _, m := range goldenModules() {
			st := stats[m.Protocol()]
			probed += st.Probed
			retransmits += st.Retransmits
			if st.Responded+st.Resets+st.Partials != 0 {
				t.Fatalf("%s: dark prefix answered: %+v", m.Protocol(), st)
			}
			if uint64(len(sent[m.Protocol()])) != st.Probed {
				t.Fatalf("%s: %d ProbeSent events for %d transmissions", m.Protocol(), len(sent[m.Protocol()]), st.Probed)
			}
			for _, ev := range sent[m.Protocol()] {
				m.Probe(context.Background(), twin, src, netsim.Endpoint{IP: ev.IP, Port: ev.Port},
					ProbeSpec{Attempt: ev.Attempt, Timeout: s.cfg.ProbeTimeout})
			}
		}
		if uint64(len(tap.events)) != probed {
			t.Fatalf("observer saw %d events for %d transmissions", len(tap.events), probed)
		}
		if profile.Enabled() && retransmits == 0 {
			t.Fatal("faulted run never retransmitted: the contract was not exercised past attempt 0")
		}
		if !slices.Equal(tap.sorted(), twinTap.sorted()) {
			t.Fatalf("faults=%v: the sweep's wire events differ from the full grabs' (%d vs %d events)",
				profile.Enabled(), len(tap.events), len(twinTap.events))
		}
	}
}

// TestResponderSweptOnceGrabbedOnce pins the accounting of the populated
// side: on a perfect fabric every target is one transmission whether or not
// it answers (Probed counts sweeps; the grab of a responder is not a second
// one), and the wire shows what a ZMap-then-ZGrab pipeline puts there — one
// opening packet per sweep plus one per grabbed endpoint, and one handshake
// completion per TCP grab.
func TestResponderSweptOnceGrabbedOnce(t *testing.T) {
	const cidr = "50.0.0.0/20"
	n, tap := observedWorld(t, faults.Zero(), cidr)
	prefix := netsim.MustParsePrefix(cidr)
	s := NewScanner(Config{Network: n, Source: netsim.MustParseIPv4("130.226.0.1"), Prefix: prefix, Seed: 5, Workers: 7,
		Blocklist: netsim.NewPrefixSet()})
	_, stats, err := s.Run(context.Background(), goldenModules(), nil, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	var probed, responded uint64
	open := map[netsim.Transport]int{}
	for _, m := range goldenModules() {
		st := stats[m.Protocol()]
		if want := prefix.Size() * uint64(len(m.Ports())); st.Probed != want {
			t.Fatalf("%s: Probed = %d, want one per target = %d", m.Protocol(), st.Probed, want)
		}
		probed += st.Probed
		responded += st.Responded
		tr := m.Protocol().Transport()
		for i := uint64(0); i < prefix.Size(); i++ {
			for _, port := range m.Ports() {
				if n.Sweep(1, netsim.Endpoint{IP: prefix.Nth(i), Port: port}, tr, 0, netsim.ProbeOptions{}) == netsim.Open {
					open[tr]++
				}
			}
		}
	}
	if responded == 0 || open[netsim.TCP] == 0 || open[netsim.UDP] == 0 {
		t.Fatalf("nothing to grab: responded %d, open %v", responded, open)
	}
	// The counting sweeps above were tapped too: one event per target again.
	sweeps := 2 * int(probed)
	if got, want := tap.kinds[netsim.ProbeSYN]+tap.kinds[netsim.ProbeUDP], sweeps+open[netsim.TCP]+open[netsim.UDP]; got != want {
		t.Fatalf("%d opening packets on the wire, want %d sweeps + %d grabs", got, sweeps, open[netsim.TCP]+open[netsim.UDP])
	}
	if got := tap.kinds[netsim.ProbeACK]; got != open[netsim.TCP] {
		t.Fatalf("%d completed handshakes, want one per open TCP endpoint = %d", got, open[netsim.TCP])
	}
}
