package fingerprint

import (
	"context"
	"testing"

	"openhire/internal/core/scan"
	"openhire/internal/iot"
	"openhire/internal/netsim"
)

func TestMatchEveryFamilyBanner(t *testing.T) {
	// Every wild-honeypot family banner in the population must be caught
	// by exactly its own signature.
	for _, f := range iot.HoneypotFamilies {
		got := Match(f.Banner)
		if got != f.Name {
			t.Errorf("banner of %s matched %q", f.Name, got)
		}
	}
}

func TestMatchGenuineBannersNegative(t *testing.T) {
	genuine := [][]byte{
		[]byte("192.0.0.64 login: "),
		[]byte("Welcome to DCS-6620\r\nlogin: "),
		[]byte("\xff\xfb\x01\xff\xfb\x03BusyBox v1.22.1 built-in shell\r\n$ "),
		[]byte("root@hikvision:~$ "),
		[]byte(""),
	}
	for _, b := range genuine {
		if fam := Match(b); fam != "" {
			t.Errorf("genuine banner %q matched %s", b, fam)
		}
	}
}

func TestMatchResultOnlyTelnet(t *testing.T) {
	r := &scan.Result{Protocol: iot.ProtoMQTT, Banner: iot.HoneypotFamilies[1].Banner}
	if MatchResult(r) != "" {
		t.Fatal("non-telnet result matched")
	}
}

func TestFilterSplitsHoneypots(t *testing.T) {
	results := []*scan.Result{
		{IP: 1, Protocol: iot.ProtoTelnet, Banner: []byte("\xff\xfd\x1flogin: ")},
		{IP: 2, Protocol: iot.ProtoTelnet, Banner: []byte("192.0.0.64 login: ")},
		{IP: 3, Protocol: iot.ProtoTelnet, Banner: []byte("[root@LocalHost tmp]$ ")},
	}
	genuine, honeypots := Filter(results)
	if len(genuine) != 1 || genuine[0].IP != 2 {
		t.Fatalf("genuine %+v", genuine)
	}
	if len(honeypots) != 2 || honeypots[0].Family != "Cowrie" || honeypots[1].Family != "Anglerfish" {
		t.Fatalf("honeypots %+v", honeypots)
	}
}

func TestCountByFamilySorted(t *testing.T) {
	dets := []Detection{
		{IP: 1, Family: "Cowrie"}, {IP: 2, Family: "Cowrie"},
		{IP: 3, Family: "Kako"},
	}
	counts := CountByFamily(dets)
	if len(counts) != 2 || counts[0].Family != "Cowrie" || counts[0].Count != 2 {
		t.Fatalf("counts %+v", counts)
	}
}

func TestPaperCountsTotal(t *testing.T) {
	total := 0
	for _, n := range PaperCounts() {
		total += n
	}
	if total != iot.PaperHoneypotTotal {
		t.Fatalf("total %d", total)
	}
}

func TestEndToEndFingerprintOnUniverse(t *testing.T) {
	// Scan a boosted universe slice and verify every wild honeypot lands in
	// the detection set, none in the genuine set.
	prefix := netsim.MustParsePrefix("70.0.0.0/16")
	u := iot.NewUniverse(iot.UniverseConfig{Seed: 13, Prefix: prefix, DensityBoost: 400})
	var expected int
	for i := uint64(0); i < prefix.Size(); i++ {
		if _, ok := u.WildHoneypot(prefix.Nth(i)); ok {
			expected++
		}
	}
	if expected == 0 {
		t.Skip("no wild honeypots in this slice")
	}
	n := netsim.NewNetwork(netsim.NewSimClock(netsim.ExperimentStart))
	n.AddProvider(prefix, u)
	s := scan.NewScanner(scan.Config{Network: n, Source: 1, Prefix: prefix, Seed: 3, Workers: 128})
	module, _ := scan.ModuleFor(iot.ProtoTelnet)
	byProto, _, err := s.Run(context.Background(), []scan.ProbeModule{module}, nil, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	results := byProto[iot.ProtoTelnet]
	_, honeypots := Filter(results)
	// Allow a small deficit for probe deadline misses under heavy parallel
	// load; false positives are never acceptable.
	if len(honeypots) > expected {
		t.Fatalf("detected %d honeypots, universe has only %d", len(honeypots), expected)
	}
	if float64(len(honeypots)) < 0.9*float64(expected) {
		t.Fatalf("detected %d honeypots, universe has %d", len(honeypots), expected)
	}
}
