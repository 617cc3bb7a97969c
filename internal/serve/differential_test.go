package serve

import (
	"testing"
	"time"

	"openhire/internal/attack"
	"openhire/internal/core/correlate"
	"openhire/internal/core/fingerprint"
	"openhire/internal/core/report"
	"openhire/internal/expr"
	"openhire/internal/honeypot"
	"openhire/internal/iot"
	"openhire/internal/netsim"
)

// measured indexes an experiment's comparisons by metric name.
func measured(r expr.Result) map[string]float64 {
	m := make(map[string]float64, len(r.Comparisons))
	for _, c := range r.Comparisons {
		m[c.Metric] = c.Measured
	}
	return m
}

// TestFoldsMatchReport is the differential test between the two analysis
// paths: a batch world's scan results, attack month and darknet day are fed
// through the daemon's folds, and every count the daemon derives must equal
// what the report's experiments measure over the same world — Table 4's
// exposure, Table 5's misconfiguration classes, Figure 8's daily series, the
// telescope volume and the Section 5.3 join.
func TestFoldsMatchReport(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs a quick batch world")
	}
	w := expr.BuildWorld(expr.QuickConfig())
	var agg Aggregates

	results, stats := w.RunScan()
	for _, p := range iot.ScannedProtocols {
		agg.FoldSegment(p, int(stats[p].Probed), results[p])
	}

	events := w.Events()
	byDay := make([][]honeypot.Event, attack.ExperimentDays)
	for _, ev := range events {
		d := int(ev.Time.Sub(netsim.ExperimentStart) / (24 * time.Hour))
		if d < 0 || d >= attack.ExperimentDays {
			t.Fatalf("event at %v falls outside the experiment month", ev.Time)
		}
		byDay[d] = append(byDay[d], ev)
	}
	for d, day := range byDay {
		agg.FoldAttackDay(d, day)
	}

	flows := w.Flows()
	agg.FoldTelescopeDay(0, attack.DayStart(0), flows)

	// Table 4 and the honeypot filter, per protocol.
	table4 := measured(expr.Table4(w))
	_, detections := w.FilterHoneypots()
	honeypots := 0
	for _, p := range iot.ScannedProtocols {
		e := agg.Exposure.Current[string(p)]
		if e == nil {
			t.Fatalf("%s: no exposure row after folding its results", p)
		}
		if want := table4["exposed."+string(p)]; float64(e.Responded) != want {
			t.Errorf("%s: Responded = %d, Table 4 measured %v", p, e.Responded, want)
		}
		_, dets := fingerprint.Filter(results[p])
		if e.Honeypots != uint64(len(dets)) {
			t.Errorf("%s: Honeypots = %d, fingerprint.Filter detects %d", p, e.Honeypots, len(dets))
		}
		honeypots += int(e.Honeypots)
	}
	if honeypots != len(detections) {
		t.Errorf("honeypots filtered = %d, the batch filter detects %d", honeypots, len(detections))
	}

	// Table 5: every misconfiguration class, and the total.
	table5 := measured(expr.Table5(w))
	classes := 0
	var misconfigured uint64
	for proto, e := range agg.Exposure.Current {
		misconfigured += e.Misconfigured
		for cls, n := range e.ByClass {
			classes++
			metric := "misconfig." + proto + "." + cls
			if want, ok := table5[metric]; !ok || float64(n) != want {
				t.Errorf("%s: daemon counts %d, Table 5 measured %v (present %v)", metric, n, want, ok)
			}
		}
	}
	if want := len(table5) - 1; classes != want { // all rows but misconfig.total
		t.Errorf("daemon counts %d misconfiguration classes, Table 5 lists %d", classes, want)
	}
	if want := table5["misconfig.total"]; float64(misconfigured) != want {
		t.Errorf("Misconfigured = %d, Table 5 total %v", misconfigured, want)
	}

	// Figure 8's daily series, and the telescope day's volume.
	daily := honeypot.DailyCounts(events, netsim.ExperimentStart, attack.ExperimentDays)
	if len(agg.Trends.Days) != attack.ExperimentDays {
		t.Fatalf("%d trend rows, want %d", len(agg.Trends.Days), attack.ExperimentDays)
	}
	total := 0
	for d, row := range agg.Trends.Days {
		if row.AttackEvents != daily[d] {
			t.Errorf("day %d: AttackEvents = %d, Figure 8 counts %d", d, row.AttackEvents, daily[d])
		}
		total += row.AttackEvents
	}
	if total != len(events) {
		t.Errorf("trend rows hold %d events, the month logged %d", total, len(events))
	}
	var packets uint64
	for _, ft := range flows {
		packets += uint64(ft.PacketCnt)
	}
	if row := agg.Trends.Days[0]; row.TelescopeFlows != len(flows) || row.TelescopePackets != packets {
		t.Errorf("telescope day: %d flows / %d packets, captured %d / %d",
			row.TelescopeFlows, row.TelescopePackets, len(flows), packets)
	}

	// The Section 5.3 join: the daemon's counts split as the headline does.
	var headline report.Comparison
	for _, c := range expr.Headline(w).Comparisons {
		if c.Metric == "headline.total" {
			headline = c
		}
	}
	corr := agg.Correlation()
	if got := corr.MisconfiguredAttacking + corr.MisconfiguredScanning - corr.AllThree; float64(got) != headline.Measured {
		t.Errorf("daemon join = %d attacking misconfigured devices, headline measured %v", got, headline.Measured)
	}
	if headline.Measured == 0 {
		t.Error("the quick world's headline join is empty: the comparison proves nothing")
	}
	findings, _ := w.Classify()
	var mis correlate.IPSet
	for _, f := range findings {
		if f.Misconfigured() {
			mis.Add(f.Result.IP)
		}
	}
	x := correlate.Intersect(mis, correlate.HoneypotSources(events), correlate.TelescopeSources(flows))
	if corr.AllThree != len(x.Both) {
		t.Errorf("AllThree = %d, the batch join has %d devices in both", corr.AllThree, len(x.Both))
	}
}
