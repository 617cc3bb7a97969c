package expr

import (
	"slices"
	"testing"

	"openhire/internal/obs"
)

// TestWorldTraceZeroPerturbation pins the harness half of the observability
// contract: a World with a Tracer attached produces exactly the measurements
// of an untraced one, and records one span per executed phase in completion
// order with non-negative simulated durations.
func TestWorldTraceZeroPerturbation(t *testing.T) {
	cfg := QuickConfig()

	bare := BuildWorld(cfg)
	_, bareStats := bare.RunScan()
	bareFlows := bare.RunTelescope()

	traced := BuildWorld(cfg)
	traced.Trace = obs.NewTracer(traced.Clock)
	_, tracedStats := traced.RunScan()
	tracedFlows := traced.RunTelescope()

	for proto, a := range bareStats {
		b := tracedStats[proto]
		a.Elapsed, b.Elapsed = 0, 0 // wall-clock, excluded by design
		if a != b {
			t.Fatalf("%s scan stats differ under tracing:\nbare:   %+v\ntraced: %+v", proto, a, b)
		}
	}
	if bareFlows != tracedFlows {
		t.Fatalf("telescope flow count differs under tracing: %d vs %d", bareFlows, tracedFlows)
	}

	spans := traced.Trace.Spans()
	if len(spans) != 2 || spans[0].Name != "scan" || spans[1].Name != "telescope" {
		t.Fatalf("spans = %+v, want [scan telescope]", spans)
	}
	for _, s := range spans {
		if s.SimNS < 0 {
			t.Fatalf("span %s has negative simulated duration %d", s.Name, s.SimNS)
		}
		if s.WallNS <= 0 {
			t.Fatalf("span %s has non-positive wall duration %d", s.Name, s.WallNS)
		}
	}

	// The world names the same phases in the same order, traced or not.
	for _, w := range []*World{bare, traced} {
		if got := w.Phases(); !slices.Equal(got, []string{"scan", "telescope"}) {
			t.Fatalf("Phases() = %v, want [scan telescope]", got)
		}
	}

	// Phase results are cached: re-running a traced phase must not record a
	// second span.
	traced.RunScan()
	if got := len(traced.Trace.Spans()); got != 2 {
		t.Fatalf("cached phase re-run grew the span list to %d", got)
	}
	if got := len(traced.Phases()); got != 2 {
		t.Fatalf("cached phase re-run grew the phase list to %d", got)
	}
}
