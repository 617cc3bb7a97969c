package scan_test

import (
	"context"
	"testing"

	"openhire/internal/core/classify"
	"openhire/internal/core/scan"
	"openhire/internal/iot"
	"openhire/internal/netsim"
)

// extWorld assembles a boosted universe for the extension-scan tests.
func extWorld(boost float64) (*netsim.Network, *iot.Universe, netsim.Prefix) {
	prefix := netsim.MustParsePrefix("50.0.0.0/16")
	u := iot.NewUniverse(iot.UniverseConfig{Seed: 77, Prefix: prefix, DensityBoost: boost})
	n := netsim.NewNetwork(netsim.NewSimClock(netsim.ExperimentStart))
	n.AddProvider(prefix, u)
	return n, u, prefix
}

func TestExtendedScanTR069(t *testing.T) {
	n, u, prefix := extWorld(100)
	s := scan.NewScanner(scan.Config{Network: n, Source: 1, Prefix: prefix, Seed: 30, Workers: 64})
	byProto, _, err := s.Run(context.Background(), []scan.ProbeModule{scan.TR069Module{}}, nil, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	results := byProto[iot.ProtoTR069]
	if len(results) == 0 {
		t.Fatal("no TR-069 endpoints found")
	}
	want := u.ExpectedExtensionExposed(iot.ProtoTR069)
	got := float64(len(results))
	if got < want*0.8 || got > want*1.2 {
		t.Fatalf("found %v TR-069 hosts, expected ~%.0f", got, want)
	}
	noauth := 0
	for _, r := range results {
		f := classify.Classify(r)
		if f.Misconfig == iot.TR069NoAuth {
			noauth++
			if r.Meta["tr069.status"] != "200" {
				t.Fatalf("no-auth endpoint with status %s", r.Meta["tr069.status"])
			}
		} else if r.Meta["tr069.status"] != "401" {
			t.Fatalf("configured endpoint with status %s", r.Meta["tr069.status"])
		}
	}
	share := float64(noauth) / got
	if share < 0.2 || share > 0.45 {
		t.Fatalf("no-auth share %.2f, want ~0.31", share)
	}
}

func TestExtendedScanSMB(t *testing.T) {
	n, u, prefix := extWorld(1000)
	_ = prefix
	small := netsim.MustParsePrefix("50.0.0.0/17")
	s := scan.NewScanner(scan.Config{Network: n, Source: 1, Prefix: small, Seed: 31, Workers: 64})
	byProto, _, err := s.Run(context.Background(), []scan.ProbeModule{scan.SMBModule{}}, nil, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	results := byProto[iot.ProtoSMB]
	_ = u
	if len(results) == 0 {
		t.Fatal("no SMB endpoints found")
	}
	v1 := 0
	for _, r := range results {
		switch r.Meta["smb.dialect"] {
		case "NT LM 0.12":
			v1++
			if classify.Classify(r).Misconfig != iot.SMBv1Enabled {
				t.Fatal("SMB1 dialect not classified")
			}
		case "SMB 2.002":
			if classify.Classify(r).Misconfigured() {
				t.Fatal("SMB2 host misclassified")
			}
		default:
			t.Fatalf("unexpected dialect %q", r.Meta["smb.dialect"])
		}
	}
	share := float64(v1) / float64(len(results))
	if share < 0.25 || share > 0.6 {
		t.Fatalf("SMB1 share %.2f, want ~0.42", share)
	}
}

func TestExtendedModulesDisjointFromDefault(t *testing.T) {
	defaults := make(map[iot.Protocol]bool)
	for _, m := range scan.AllModules() {
		defaults[m.Protocol()] = true
	}
	for _, m := range scan.ExtendedModules() {
		if defaults[m.Protocol()] {
			t.Fatalf("extension module %s overlaps the paper's six", m.Protocol())
		}
	}
}

func TestExtensionMisconfigStrings(t *testing.T) {
	if iot.TR069NoAuth.String() != "No auth, connection request" {
		t.Fatal(iot.TR069NoAuth.String())
	}
	if iot.SMBv1Enabled.String() != "SMBv1 enabled" {
		t.Fatal(iot.SMBv1Enabled.String())
	}
	if iot.SMBv1Enabled.Protocol() != iot.ProtoSMB {
		t.Fatal("SMBv1 protocol mapping")
	}
	if iot.TR069NoAuth.Protocol() != iot.ProtoTR069 {
		t.Fatal("TR069 protocol mapping")
	}
}
