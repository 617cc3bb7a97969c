package classify

import (
	"context"
	"testing"

	"openhire/internal/core/scan"
	"openhire/internal/iot"
	"openhire/internal/netsim"
	"openhire/internal/netsim/faults"
)

// chaosPipeline scans a fresh world under the given fault profile and
// returns, per protocol, the fraction of classified hosts that are
// misconfigured — the quantity the paper's Table 5 numbers are built from.
func chaosPipeline(t *testing.T, profile faults.Profile) map[iot.Protocol]float64 {
	t.Helper()
	prefix := netsim.MustParsePrefix("50.0.0.0/17")
	u := iot.NewUniverse(iot.UniverseConfig{Seed: 77, Prefix: prefix, DensityBoost: 200})
	n := netsim.NewNetwork(netsim.NewSimClock(netsim.ExperimentStart))
	n.AddProvider(prefix, u)
	if m := faults.New(profile); m != nil {
		n.SetFaults(m)
	}
	s := scan.NewScanner(scan.Config{
		Network: n, Source: netsim.MustParseIPv4("130.226.0.1"),
		Prefix: prefix, Seed: 5, Workers: 32,
	})
	results, _, err := s.Run(context.Background(), scan.AllModules(), nil, 0, nil)
	if err != nil {
		t.Fatal(err)
	}

	fracs := make(map[iot.Protocol]float64)
	for proto, rs := range results {
		if len(rs) == 0 {
			continue
		}
		mis := 0
		for _, f := range ClassifyAll(rs) {
			if f.Misconfigured() {
				mis++
			}
		}
		fracs[proto] = float64(mis) / float64(len(rs))
	}
	return fracs
}

// TestChaosEquivalenceCalibrated is the headline robustness guarantee: the
// calibrated fault profile — 3% loss, latency tails, tarpits, resets, churn,
// rate-limited and blackholed prefixes, with the scanner retransmitting —
// moves every per-protocol misconfigured proportion by at most 2 percentage
// points from the zero-fault baseline. The paper's exposure conclusions
// survive realistic network weather.
func TestChaosEquivalenceCalibrated(t *testing.T) {
	baseline := chaosPipeline(t, faults.Zero())
	faulted := chaosPipeline(t, faults.Calibrated())

	if len(baseline) == 0 {
		t.Fatal("baseline scan found nothing; world misconfigured")
	}
	for proto, base := range baseline {
		got, ok := faulted[proto]
		if !ok {
			t.Fatalf("%s: protocol vanished entirely under calibrated faults", proto)
		}
		if diff := got - base; diff > 0.02 || diff < -0.02 {
			t.Errorf("%s: misconfigured proportion moved %.4f -> %.4f (|Δ| > 0.02)",
				proto, base, got)
		}
	}
}
