package intel

import (
	"math"
	"testing"

	"openhire/internal/netsim"
)

func TestGreyNoiseCoverageModel(t *testing.T) {
	g := NewGreyNoise(1, 0.81)
	const n = 20000
	for i := 0; i < n; i++ {
		g.RegisterBenign(netsim.IPv4(i))
	}
	counts := g.Count()
	covered := float64(counts[LabelBenign]) / n
	if math.Abs(covered-0.81) > 0.02 {
		t.Fatalf("coverage %.3f, want ~0.81", covered)
	}
}

func TestGreyNoiseCoverageDeterministic(t *testing.T) {
	g1 := NewGreyNoise(5, 0.8)
	g2 := NewGreyNoise(5, 0.8)
	for i := 0; i < 100; i++ {
		g1.RegisterBenign(netsim.IPv4(i))
		g2.RegisterBenign(netsim.IPv4(i))
	}
	for i := 0; i < 100; i++ {
		if g1.Lookup(netsim.IPv4(i)) != g2.Lookup(netsim.IPv4(i)) {
			t.Fatal("coverage decisions not deterministic")
		}
	}
}

func TestGreyNoiseMaliciousAlwaysRecorded(t *testing.T) {
	g := NewGreyNoise(2, 0.5)
	for i := 0; i < 100; i++ {
		g.RegisterMalicious(netsim.IPv4(i))
	}
	for i := 0; i < 100; i++ {
		if g.Lookup(netsim.IPv4(i)) != LabelMalicious {
			t.Fatal("malicious registration dropped")
		}
	}
}

func TestGreyNoiseUnknownDefault(t *testing.T) {
	g := NewGreyNoise(3, 0.9)
	if g.Lookup(netsim.MustParseIPv4("9.9.9.9")) != LabelUnknown {
		t.Fatal("unregistered IP not unknown")
	}
}

func TestGreyNoiseBadCoverageFallsBack(t *testing.T) {
	g := NewGreyNoise(4, 0)
	// Must not panic and must use the default coverage.
	g.RegisterBenign(1)
	_ = g.Count()
}

func TestLabelString(t *testing.T) {
	if LabelBenign.String() != "benign" || LabelMalicious.String() != "malicious" ||
		LabelUnknown.String() != "unknown" {
		t.Fatal("label names")
	}
}

func TestVirusTotalIPScore(t *testing.T) {
	v := NewVirusTotal()
	ip := netsim.MustParseIPv4("1.2.3.4")
	if v.IsMalicious(ip) {
		t.Fatal("fresh IP malicious")
	}
	v.FlagIP(ip, 3)
	v.FlagIP(ip, 1) // lower score must not overwrite
	if v.IPScore(ip) != 3 || !v.IsMalicious(ip) {
		t.Fatalf("score %d", v.IPScore(ip))
	}
	v.FlagIP(ip, 0) // no-op
	if v.IPScore(ip) != 3 {
		t.Fatal("zero flag changed score")
	}
}

func TestCensysTags(t *testing.T) {
	c := NewCensys()
	ip := netsim.MustParseIPv4("5.6.7.8")
	c.Tag(ip, "camera")
	tag, ok := c.IoTTag(ip)
	if !ok || tag != "camera" {
		t.Fatalf("tag %q, %v", tag, ok)
	}
	if _, ok := c.IoTTag(netsim.MustParseIPv4("8.8.8.8")); ok {
		t.Fatal("phantom tag")
	}
	if c.Len() != 1 {
		t.Fatal("len wrong")
	}
}
