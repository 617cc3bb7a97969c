package fingerprint

import (
	"context"
	"testing"

	"openhire/internal/core/scan"
	"openhire/internal/iot"
	"openhire/internal/netsim"
)

// activeWorld builds a universe containing both wild honeypots and real
// Telnet devices, reachable over a network.
func activeWorld(t *testing.T) (*netsim.Network, *iot.Universe, netsim.Prefix) {
	t.Helper()
	prefix := netsim.MustParsePrefix("70.0.0.0/17")
	u := iot.NewUniverse(iot.UniverseConfig{
		Seed: 13, Prefix: prefix, DensityBoost: 100, HoneypotBoost: 2000,
	})
	n := netsim.NewNetwork(netsim.NewSimClock(netsim.ExperimentStart))
	n.AddProvider(prefix, u)
	return n, u, prefix
}

func TestProbeDeviationOnWildHoneypots(t *testing.T) {
	n, u, prefix := activeWorld(t)
	checked := 0
	for i := uint64(0); i < prefix.Size() && checked < 10; i++ {
		ip := prefix.Nth(i)
		if _, ok := u.WildHoneypot(ip); !ok {
			continue
		}
		checked++
		v := ProbeDeviation(context.Background(), n, 1, ip, 23)
		if v == VerdictRealStack {
			t.Fatalf("wild honeypot %v judged a real stack", ip)
		}
	}
	if checked == 0 {
		t.Skip("no wild honeypots in slice")
	}
}

func TestProbeDeviationOnRealDevices(t *testing.T) {
	n, u, prefix := activeWorld(t)
	checked := 0
	for i := uint64(0); i < prefix.Size() && checked < 10; i++ {
		ip := prefix.Nth(i)
		if _, isPot := u.WildHoneypot(ip); isPot {
			continue
		}
		spec, ok := u.Spec(ip, iot.ProtoTelnet)
		if !ok || u.TelnetPort(ip) != 23 || spec.Misconfig != iot.MisconfigNone {
			continue
		}
		checked++
		v := ProbeDeviation(context.Background(), n, 1, ip, 23)
		if v == VerdictHoneypot {
			t.Fatalf("real device %v (%s) judged a honeypot", ip, spec.Model.Name)
		}
	}
	if checked == 0 {
		t.Fatal("no real telnet devices found")
	}
}

func TestProbeDeviationDarkAddress(t *testing.T) {
	n, _, _ := activeWorld(t)
	v := ProbeDeviation(context.Background(), n, 1, netsim.MustParseIPv4("70.127.255.254"), 23)
	// Either dark or a live host; never a panic. If dark: inconclusive.
	_ = v
}

func TestVerifyDetectionsEndToEnd(t *testing.T) {
	n, _, prefix := activeWorld(t)
	s := scan.NewScanner(scan.Config{Network: n, Source: 1, Prefix: prefix, Seed: 3, Workers: 128})
	module, _ := scan.ModuleFor(iot.ProtoTelnet)
	byProto, _, err := s.Run(context.Background(), []scan.ProbeModule{module}, nil, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	results := byProto[iot.ProtoTelnet]
	_, dets := Filter(results)
	if len(dets) == 0 {
		t.Skip("no detections in slice")
	}
	confirmed, disputed := VerifyDetections(context.Background(), n, 1, dets)
	if len(confirmed) != len(dets) || len(disputed) != 0 {
		t.Fatalf("active stage disputed %d of %d banner detections; wild honeypots should all confirm",
			len(disputed), len(dets))
	}
}

func TestClassifyDeviationTable(t *testing.T) {
	cases := []struct {
		name  string
		reply []byte
		want  DeviationVerdict
	}{
		{"silence", nil, VerdictRealStack},
		{"refusal", []byte{0xff, 0xfc, 39}, VerdictRealStack},
		{"dont", []byte{0xff, 0xfe, 39}, VerdictRealStack},
		{"canned crlf", []byte("\r\n"), VerdictHoneypot},
		{"login prompt", []byte("login: "), VerdictRealStack},
		{"incorrect", []byte("Login incorrect\r\n"), VerdictRealStack},
		{"gibberish", []byte("%%%"), VerdictInconclusive},
	}
	for _, c := range cases {
		if got := classifyDeviation(c.reply); got != c.want {
			t.Errorf("%s: %v, want %v", c.name, got, c.want)
		}
	}
}

func TestVerdictString(t *testing.T) {
	if VerdictHoneypot.String() != "honeypot" || VerdictRealStack.String() != "real-stack" ||
		VerdictInconclusive.String() != "inconclusive" {
		t.Fatal("verdict names")
	}
}
