// Package serve is the continuous-measurement daemon behind openhire-serve:
// it drives the paper's three legs — segmented scanner sweeps, daily darknet
// generation into the telescope, and the honeypot attack campaign — forever
// over simulated time, folding their outputs into incremental aggregates at
// cycle boundaries and publishing copy-on-write snapshots to an HTTP/JSON
// query API.
//
// One cycle is one simulated day, and every leg folds that day's delta and
// nothing older. Aggregate state is a pure function of (seed, config, cycle):
// every fold happens on the single-threaded cycle driver, from leg outputs
// that are order-normalized or into counts and sets that ignore order, so the
// published snapshots — and the checkpoints that make the daemon kill-safe —
// are byte-identical across runs, worker counts and kill/resume cycles.
package serve

import (
	"openhire/internal/attack"
	"openhire/internal/core/classify"
	"openhire/internal/core/correlate"
	"openhire/internal/core/fingerprint"
	"openhire/internal/core/scan"
	"openhire/internal/honeypot"
	"openhire/internal/iot"
	"openhire/internal/netsim"
)

// ProtocolExposure is one protocol's accumulated scan-side exposure: the
// Table 4/5 columns, maintained incrementally as segments drain instead of
// at end of run.
type ProtocolExposure struct {
	// Targets is the (address, port) pairs fed to the prober.
	Targets uint64 `json:"targets"`
	// Responded is the endpoints that answered the protocol probe.
	Responded uint64 `json:"responded"`
	// Honeypots is the responses filtered out as honeypot fingerprints.
	Honeypots uint64 `json:"honeypots_filtered,omitempty"`
	// Misconfigured is the genuine responses classified as vulnerable.
	Misconfigured uint64 `json:"misconfigured,omitempty"`
	// ByClass splits Misconfigured by Table 2/3 vulnerability class.
	ByClass map[string]uint64 `json:"by_class,omitempty"`
}

// add folds o into e.
func (e *ProtocolExposure) add(o *ProtocolExposure) {
	e.Targets += o.Targets
	e.Responded += o.Responded
	e.Honeypots += o.Honeypots
	e.Misconfigured += o.Misconfigured
	for cls, n := range o.ByClass {
		if e.ByClass == nil {
			e.ByClass = make(map[string]uint64)
		}
		e.ByClass[cls] += n
	}
}

// ExposureState is the exposure table across sweeps: the in-flight sweep's
// partial counts, the last finished sweep (the daemon's "current exposure"
// answer), and the cumulative totals.
type ExposureState struct {
	// Sweep is the index of the sweep currently walking the prefix.
	Sweep int `json:"sweep"`
	// SweepsComplete is how many full sweeps have finished.
	SweepsComplete int `json:"sweeps_complete"`
	// Current accumulates the in-flight sweep, segment by segment.
	Current map[string]*ProtocolExposure `json:"current,omitempty"`
	// Complete is the last finished sweep's final table.
	Complete map[string]*ProtocolExposure `json:"complete,omitempty"`
	// Total accumulates every finished sweep.
	Total map[string]*ProtocolExposure `json:"total,omitempty"`
}

// DayTrend is one simulated day's attack-trend row: the Figure 8 daily
// series extended with the telescope's volume and hourly rotation buckets.
type DayTrend struct {
	// Day is the absolute simulated day (cycle) index.
	Day int `json:"day"`
	// AttackEvents is the honeypot events logged that day.
	AttackEvents int `json:"attack_events"`
	// AttacksByType splits AttackEvents by attack type.
	AttacksByType map[string]int `json:"attacks_by_type,omitempty"`
	// AttackSources is the distinct source addresses seen that day.
	AttackSources int `json:"attack_sources"`
	// TelescopeFlows and TelescopePackets are the darknet day's volume.
	TelescopeFlows   int    `json:"telescope_flows"`
	TelescopePackets uint64 `json:"telescope_packets"`
	// HourlyPackets is the day's telescope volume cut at the hourly
	// rotation cadence (24 buckets).
	HourlyPackets []uint64 `json:"hourly_packets,omitempty"`
}

// TrendState is the attack-trend time series, one row per completed day.
type TrendState struct {
	Days []DayTrend `json:"days,omitempty"`
}

// day returns the row for absolute day d, extending the series as needed.
func (t *TrendState) day(d int) *DayTrend {
	for len(t.Days) <= d {
		t.Days = append(t.Days, DayTrend{Day: len(t.Days)})
	}
	return &t.Days[d]
}

// CorrelateState holds the three population sets behind the paper's
// misconfiguration/attacker correlation (Section 5.3): which scanned-out
// misconfigured devices also show up attacking the honeypots or the
// telescope.
type CorrelateState struct {
	// Misconfigured is every misconfigured device the sweeps classified.
	Misconfigured correlate.IPSet `json:"misconfigured,omitempty"`
	// HoneypotSources is every address that attacked a honeypot.
	HoneypotSources correlate.IPSet `json:"honeypot_sources,omitempty"`
	// TelescopeSources is every address the telescope captured.
	TelescopeSources correlate.IPSet `json:"telescope_sources,omitempty"`
}

// Correlation is the rendered /api/correlate body.
type Correlation struct {
	Misconfigured    int `json:"misconfigured"`
	HoneypotSources  int `json:"honeypot_sources"`
	TelescopeSources int `json:"telescope_sources"`
	// MisconfiguredAttacking is |misconfigured ∩ honeypot sources| — the
	// paper's headline join (11,118 at full scale).
	MisconfiguredAttacking int `json:"misconfigured_attacking"`
	// MisconfiguredScanning is |misconfigured ∩ telescope sources|.
	MisconfiguredScanning int `json:"misconfigured_scanning"`
	// AttackingScanning is |honeypot ∩ telescope sources|.
	AttackingScanning int `json:"attacking_scanning"`
	// AllThree is the triple intersection.
	AllThree int `json:"all_three"`
}

// Watermark stamps every published snapshot with the simulated-time position
// it reflects: responses carrying equal watermarks are byte-identical across
// runs, worker counts, and kill/resume cycles.
type Watermark struct {
	// Cycle is the number of completed cycles (simulated days).
	Cycle int `json:"cycle"`
	// Month is the attack month the next cycle belongs to.
	Month int `json:"month"`
	// Sweep is the scan sweep currently in flight.
	Sweep int `json:"sweep"`
	// SweepsComplete is how many full prefix sweeps have finished.
	SweepsComplete int `json:"sweeps_complete"`
	// TargetsFed is the cumulative (address, port) pairs probed.
	TargetsFed uint64 `json:"targets_fed"`
	// AttackEvents and TelescopeFlows/TelescopePackets are the cumulative
	// per-leg volumes folded so far.
	AttackEvents     int    `json:"attack_events"`
	TelescopeFlows   int    `json:"telescope_flows"`
	TelescopePackets uint64 `json:"telescope_packets"`
}

// Aggregates is the daemon's complete derived state. It is mutated only by
// the single-threaded cycle driver and read only through deep-copied
// published snapshots, so it needs no locking; it encodes deterministically
// (sorted maps, sorted IP sets, no wall-clock fields), as JSON for the -out
// artifact and in the checkpoint's binary payload (codec.go).
//
// Two unexported caches ride along and are never encoded: the Section 5.3
// join counts, kept on insert once counted, and the rendered bytes of the
// sealed trend rows (publish.go). Both are pure functions of the encoded
// fields, so a decoded Aggregates, which starts without them, counts the
// join on its first Correlation call and renders the rows on its first
// publish — kill history cannot reach either.
type Aggregates struct {
	Exposure  ExposureState  `json:"exposure"`
	Trends    TrendState     `json:"trends"`
	Correlate CorrelateState `json:"correlate"`
	// TargetsFed is the cumulative scan targets across sweeps, including
	// the in-flight one.
	TargetsFed uint64 `json:"targets_fed"`
	// ScanStats accumulates the deterministic scanner stat counters
	// (probed, timeouts, breaker_skipped, ...) across finished sweeps; the
	// in-flight sweep's counters live in its SegmentedState until it closes.
	ScanStats map[string]uint64 `json:"scan_stats,omitempty"`

	// join sizes the Section 5.3 join over Correlate; counted says whether
	// it does yet (the inserts below keep it once Correlation has counted).
	join    correlate.Counts
	counted bool
	// trendRows holds the trends body's sealed rows rendered so far — the
	// first sealedRows of Trends.Days — indented at their depth in the body.
	trendRows  []byte
	sealedRows int
}

// FoldSegment folds one drained scan segment into the in-flight sweep's
// exposure table: honeypot fingerprints are filtered exactly as the batch
// pipeline does, the genuine responders are classified, and misconfigured
// addresses join the correlation set. Results arrive sorted by (IP, Port)
// from the scanner's OnSegment hook, so the fold order — and therefore the
// aggregate bytes — are worker-count independent.
func (a *Aggregates) FoldSegment(proto iot.Protocol, targets int, results []*scan.Result) {
	if a.Exposure.Current == nil {
		a.Exposure.Current = make(map[string]*ProtocolExposure)
	}
	cur := a.Exposure.Current[string(proto)]
	if cur == nil {
		cur = &ProtocolExposure{}
		a.Exposure.Current[string(proto)] = cur
	}
	cur.Targets += uint64(targets)
	a.TargetsFed += uint64(targets)
	genuine, pots := fingerprint.Filter(results)
	cur.Responded += uint64(len(results))
	cur.Honeypots += uint64(len(pots))
	for _, r := range genuine {
		f := classify.Classify(r)
		if !f.Misconfigured() {
			continue
		}
		cur.Misconfigured++
		if cur.ByClass == nil {
			cur.ByClass = make(map[string]uint64)
		}
		cur.ByClass[f.Misconfig.String()]++
		a.addMisconfigured(r.IP)
	}
}

// FoldSweepStats folds a finished sweep's per-module scanner stats into the
// cumulative counters (wall-clock Elapsed excluded via Counters).
func (a *Aggregates) FoldSweepStats(stats map[iot.Protocol]scan.Stats) {
	for _, st := range stats {
		for name, v := range st.Counters() {
			if a.ScanStats == nil {
				a.ScanStats = make(map[string]uint64)
			}
			a.ScanStats[name] += v
		}
	}
}

// FinishSweep closes the in-flight sweep: its table becomes Complete, folds
// into Total, and the counters advance to the next sweep.
func (a *Aggregates) FinishSweep() {
	a.Exposure.Complete = a.Exposure.Current
	a.Exposure.Current = nil
	for proto, e := range a.Exposure.Complete {
		if a.Exposure.Total == nil {
			a.Exposure.Total = make(map[string]*ProtocolExposure)
		}
		tot := a.Exposure.Total[proto]
		if tot == nil {
			tot = &ProtocolExposure{}
			a.Exposure.Total[proto] = tot
		}
		tot.add(e)
	}
	a.Exposure.SweepsComplete++
	a.Exposure.Sweep++
}

// FoldAttackDay folds one drained campaign day into the trend row for the
// absolute day cycle: event volume by attack type, the day's distinct
// sources, and the honeypot-source correlation set. The campaign stamps a
// day's events inside that day and joins every conversation before the
// clock moves, so the drained slice is exactly the row; counts and sets do not
// depend on its order.
func (a *Aggregates) FoldAttackDay(cycle int, events []honeypot.Event) {
	row := a.Trends.day(cycle)
	row.AttackEvents = len(events)
	var sources correlate.IPSet
	for _, ev := range events {
		if row.AttacksByType == nil {
			row.AttacksByType = make(map[string]int)
		}
		row.AttacksByType[string(ev.Type)]++
		sources.Add(ev.Src)
		a.addHoneypotSource(ev.Src)
	}
	row.AttackSources = len(sources)
}

// FoldDarknetDay folds one darknet day, as the generator's FoldDay returns
// it, into the trend row for the absolute day cycle: flow/packet volume, the
// hourly rotation buckets, and the telescope-source correlation set, which
// takes each unit's fresh sources once. The set only grows and the kept join
// counts are insert-order free, so a source a restored generator reports
// fresh again is a no-op.
func (a *Aggregates) FoldDarknetDay(cycle int, units []attack.UnitFold) {
	row := a.Trends.day(cycle)
	row.TelescopeFlows, row.TelescopePackets = 0, 0
	row.HourlyPackets = make([]uint64, 24)
	for i := range units {
		u := &units[i]
		row.TelescopeFlows += u.Flows
		row.TelescopePackets += u.Packets
		for h, n := range u.Hourly {
			row.HourlyPackets[h] += n
		}
		for _, ip := range u.Fresh {
			a.addTelescopeSource(ip)
		}
	}
}

// addMisconfigured inserts ip into the misconfigured set; a new member
// joins the subset its attack-source memberships put it in.
func (a *Aggregates) addMisconfigured(ip netsim.IPv4) {
	c := &a.Correlate
	if !insert(&c.Misconfigured, ip) || !a.counted {
		return
	}
	switch hp, tel := c.HoneypotSources.Contains(ip), c.TelescopeSources.Contains(ip); {
	case hp && tel:
		a.join.Both++
	case hp:
		a.join.HoneypotOnly++
	case tel:
		a.join.TelescopeOnly++
	}
}

// addHoneypotSource inserts ip into the honeypot-source set.
func (a *Aggregates) addHoneypotSource(ip netsim.IPv4) {
	c := &a.Correlate
	a.addSource(&c.HoneypotSources, c.TelescopeSources, ip, &a.join.HoneypotOnly, &a.join.TelescopeOnly)
}

// addTelescopeSource inserts ip into the telescope-source set.
func (a *Aggregates) addTelescopeSource(ip netsim.IPv4) {
	c := &a.Correlate
	a.addSource(&c.TelescopeSources, c.HoneypotSources, ip, &a.join.TelescopeOnly, &a.join.HoneypotOnly)
}

// addSource inserts ip into the attack-source set own, whose dataset's
// only-subset of the join is ownOnly; other is the other dataset's set,
// with otherOnly. A new member other holds too is a shared source, and a
// misconfigured one moves from otherOnly to both, or joins ownOnly.
func (a *Aggregates) addSource(own *correlate.IPSet, other correlate.IPSet, ip netsim.IPv4, ownOnly, otherOnly *int) {
	if !insert(own, ip) || !a.counted {
		return
	}
	shared := other.Contains(ip)
	if shared {
		a.join.SharedSources++
	}
	switch {
	case !a.Correlate.Misconfigured.Contains(ip):
	case shared:
		*otherOnly--
		a.join.Both++
	default:
		*ownOnly++
	}
}

// insert adds ip to s and reports whether it is new there, with one map
// operation.
func insert(s *correlate.IPSet, ip netsim.IPv4) bool {
	n := len(*s)
	s.Add(ip)
	return len(*s) > n
}

// Correlation renders the correlation join counts, sized by the same join
// the batch report's headline lists: counted with correlate.Count on the
// first call, then kept on insert by the folds.
func (a *Aggregates) Correlation() Correlation {
	c := a.Correlate
	if !a.counted {
		a.join, a.counted = correlate.Count(c.Misconfigured, c.HoneypotSources, c.TelescopeSources), true
	}
	j := a.join
	return Correlation{
		Misconfigured:          len(c.Misconfigured),
		HoneypotSources:        len(c.HoneypotSources),
		TelescopeSources:       len(c.TelescopeSources),
		MisconfiguredAttacking: j.HoneypotOnly + j.Both,
		MisconfiguredScanning:  j.TelescopeOnly + j.Both,
		AttackingScanning:      j.SharedSources,
		AllThree:               j.Both,
	}
}

// Watermark stamps the aggregate state after cycle cycles have completed.
func (a *Aggregates) Watermark(cycle int) Watermark {
	w := Watermark{
		Cycle:          cycle,
		Month:          cycle / monthDays,
		Sweep:          a.Exposure.Sweep,
		SweepsComplete: a.Exposure.SweepsComplete,
		TargetsFed:     a.TargetsFed,
	}
	for _, row := range a.Trends.Days {
		w.AttackEvents += row.AttackEvents
		w.TelescopeFlows += row.TelescopeFlows
		w.TelescopePackets += row.TelescopePackets
	}
	return w
}
