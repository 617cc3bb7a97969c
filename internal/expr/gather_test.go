package expr

import (
	"cmp"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"reflect"
	"slices"
	"sync"
	"testing"

	"openhire/internal/iot"
	"openhire/internal/netsim"
)

// TestScanEqualsExposedIndex makes the universe's exposure index the scan
// leg's exact oracle. On a fault-free fabric, the addresses in each
// protocol's scan results are exactly the index entries that answer it: a
// wild honeypot's address answers Telnet on port 23 and nothing else
// (whatever device is rolled underneath), a Telnet device answers on 23 or
// 2323 as TelnetPort says, and every other exposed pair answers on the
// protocol's default port — except UPnP devices that are not reflectors,
// whose port is open but whose responder stays silent to WAN discovery (the
// scan counts those Negatives). scan.Stats.Responded agrees with the count.
//
// This is the set-exact form of what the per-module tests in core/scan
// check statistically against density × size (TestScanFindsTelnetPopulation's
// 0.8–1.3× band, TestScanUDPCoAP's ≥ 0.7× floor, TestRunSweepsEveryProtocol's
// Table 4 ordering) and of TestTable4ExposureOrdering here. Those also look
// at banners, disclosure shares and the artifact, so none is a strict
// subset, and they stay.
func TestScanEqualsExposedIndex(t *testing.T) {
	w := testWorld(t)
	results, stats := w.RunScan()
	u := w.Universe

	type answer struct {
		ip   netsim.IPv4
		port uint16
	}
	want := make(map[iot.Protocol][]answer)
	for _, x := range u.ExposedIndex() {
		if x.Honeypot {
			want[iot.ProtoTelnet] = append(want[iot.ProtoTelnet], answer{x.IP, 23})
			continue
		}
		for _, p := range iot.ScannedProtocols {
			if !x.Exposes(p) {
				continue
			}
			port := p.DefaultPort()
			switch p {
			case iot.ProtoTelnet:
				port = u.TelnetPort(x.IP)
			case iot.ProtoUPnP:
				if spec, _ := u.Spec(x.IP, p); spec.Misconfig != iot.UPnPReflector {
					continue
				}
			}
			want[p] = append(want[p], answer{x.IP, port})
		}
	}

	var responded, total uint64
	for _, p := range iot.ScannedProtocols {
		got := make([]answer, 0, len(results[p]))
		for _, r := range results[p] {
			got = append(got, answer{r.IP, r.Port})
		}
		slices.SortFunc(got, func(a, b answer) int { return cmp.Compare(a.ip, b.ip) })
		if !slices.Equal(got, want[p]) {
			t.Errorf("%s: scan found %d responders, the index holds %d (or others, or on other ports)",
				p, len(got), len(want[p]))
		}
		if stats[p].Responded != uint64(len(want[p])) {
			t.Errorf("%s: Responded %d, the index holds %d", p, stats[p].Responded, len(want[p]))
		}
		responded += stats[p].Responded
		total += uint64(len(want[p]))
	}
	if responded != total || total < 1000 {
		t.Errorf("scan responded %d in all, the index holds %d", responded, total)
	}
}

// gatherDigest hashes the world's gathered events and flows field by field,
// in slice order.
func gatherDigest(w *World) string {
	h := sha256.New()
	for _, ev := range w.Events() {
		fmt.Fprintf(h, "%d|%q|%q|%d|%q|%q|%q|%x|%q\n", ev.Time.UnixNano(), ev.Honeypot, ev.Protocol,
			ev.Src, ev.Type, ev.Username, ev.Password, ev.Payload, ev.Detail)
	}
	for _, ft := range w.Flows() {
		fmt.Fprintf(h, "%d|%d|%d|%d|%d|%d|%d|%d|%d|%d|%d|%d|%q|%d|%v|%v\n", ft.UnixNano,
			ft.SrcIP, ft.DstIP, ft.SrcPort, ft.DstPort, ft.Protocol, ft.TTL, ft.TCPFlags, ft.IPLen,
			ft.SynLen, ft.SynWinLen, ft.PacketCnt, ft.CountryCC(), ft.ASN, ft.IsSpoofed, ft.IsMasscan)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestGatherIsReadOnly holds the experiments to the contract World.Events
// and World.Flows state: the month's events and the telescope's flows are
// gathered once and shared, so running every experiment must leave both
// slices — same backing arrays, same bytes, same order — as it found them,
// and must leave the log drained and the telescope's table in place.
func TestGatherIsReadOnly(t *testing.T) {
	w := BuildWorld(QuickConfig())
	events, flows := w.Events(), w.Flows()
	if len(events) < 500 || len(flows) < 500 {
		t.Fatalf("%d events, %d flows: too few to mean anything", len(events), len(flows))
	}
	before := gatherDigest(w)
	for _, e := range All() {
		e.Run(w)
	}
	if after := gatherDigest(w); after != before {
		t.Errorf("an experiment modified the gathered events or flows: digest %s, was %s", after, before)
	}
	if again := w.Events(); &again[0] != &events[0] || len(again) != len(events) {
		t.Error("Events() gathered a second slice")
	}
	if again := w.Flows(); &again[0] != &flows[0] || len(again) != len(flows) {
		t.Error("Flows() gathered a second slice")
	}
	if n := len(w.Log.Drain()); n != 0 {
		t.Errorf("the log still holds %d events: the month's were to be handed over", n)
	}
	if n := w.Telescope.Len(); n != len(flows) {
		t.Errorf("the telescope holds %d flows, Flows() returned %d: its table was to stay", n, len(flows))
	}
}

// runExperiments runs the given experiments on w in order and returns each
// one's artifact and comparison list, rendered, keyed by id.
func runExperiments(w *World, exps []Experiment) map[string]string {
	out := make(map[string]string, len(exps))
	for _, e := range exps {
		res := e.Run(w)
		out[e.ID] = fmt.Sprintf("%s\n%v", res.Artifact, res.Comparisons)
	}
	return out
}

// TestExperimentsAreOrderIndependent: an experiment's bytes depend on the
// world, not on which experiments ran before it and forced which phases in
// which order. Fresh quick worlds run the suite in paper order, in reverse,
// and the headline alone (which needs every phase); everything must agree.
func TestExperimentsAreOrderIndependent(t *testing.T) {
	forward := All()
	reverse := slices.Clone(forward)
	slices.Reverse(reverse)
	headline, _ := Find("headline")

	want := runExperiments(BuildWorld(QuickConfig()), forward)
	for name, exps := range map[string][]Experiment{"reverse": reverse, "headline alone": {headline}} {
		for id, got := range runExperiments(BuildWorld(QuickConfig()), exps) {
			if got != want[id] {
				t.Errorf("%s order: %s differs from the paper-order run:\n%s\n--- paper order:\n%s", name, id, got, want[id])
			}
		}
	}
}

// TestConcurrentExperiments runs the whole suite from two goroutines on one
// world: the phases are forced once, the gathered slices are shared, and
// both goroutines read the same results. Meaningful under -race.
func TestConcurrentExperiments(t *testing.T) {
	w := BuildWorld(QuickConfig())
	var got [2]map[string]string
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = runExperiments(w, All())
		}()
	}
	wg.Wait()
	if !reflect.DeepEqual(got[0], got[1]) {
		t.Error("two goroutines running the suite on one world read different results")
	}
	if len(w.Phases()) != 5 {
		t.Errorf("phases %v: each of the five was to run exactly once", w.Phases())
	}
}
