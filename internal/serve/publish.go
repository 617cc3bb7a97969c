package serve

import (
	"encoding/json"
	"sync/atomic"
)

// Published is one immutable query-API snapshot: every endpoint's body is
// pre-rendered at publish time, so serving a request is a pointer load plus
// a buffer write — arbitrary concurrent readers never touch the cycle
// driver's live state, and a snapshot's bytes for a given watermark are
// identical across runs, worker counts and kill/resume cycles.
type Published struct {
	Watermark Watermark
	// Exposure, Trends, Correlate and Status are the rendered JSON bodies.
	Exposure  []byte
	Trends    []byte
	Correlate []byte
	Status    []byte
}

// Publisher hands immutable snapshots from the cycle driver to the API
// handlers, copy-on-write: the driver renders a fresh Published and swaps
// the pointer; readers load whatever snapshot is current. Same pattern as
// the netsim lookup tables — writers never mutate what readers hold.
type Publisher struct {
	cur atomic.Pointer[Published]
}

// Publish swaps in a new snapshot.
func (p *Publisher) Publish(s *Published) { p.cur.Store(s) }

// Snapshot returns the current snapshot, or nil before the first publish.
func (p *Publisher) Snapshot() *Published { return p.cur.Load() }

// statusBody is the /api/status rendering: the watermark plus the resolved
// run parameters, so a client can tell which (seed, config, watermark)
// triple a response belongs to.
type statusBody struct {
	Watermark Watermark `json:"watermark"`
	Seed      uint64    `json:"seed"`
	Prefix    string    `json:"prefix"`
	Intensity float64   `json:"intensity"`
	Scale     float64   `json:"scale"`
	// SegmentsPerCycle and SegmentTargets describe the scan cadence.
	SegmentsPerCycle int `json:"segments_per_cycle"`
	SegmentTargets   int `json:"segment_targets"`
	// Ops is the operational-health block. Everything in it is wall-clock
	// self-profiling — excluded from determinism comparisons, which scrub
	// this key before diffing status bodies.
	Ops *OpsStatus `json:"ops,omitempty"`
}

// OpsStatus reports the daemon's operational health on /api/status.
type OpsStatus struct {
	// CyclesCompleted mirrors the watermark cycle for dashboards.
	CyclesCompleted int `json:"cycles_completed"`
	// LastCycleWallNS is the previous cycle's total wall time; LegWallNS
	// attributes it across the legs (campaign/telescope/honeypots/scan/commit).
	LastCycleWallNS int64            `json:"last_cycle_wall_ns"`
	LegWallNS       map[string]int64 `json:"leg_wall_ns,omitempty"`
	// CheckpointLag is cycles completed since the last durable checkpoint
	// (equals CyclesCompleted when checkpointing is off).
	CheckpointLag int `json:"checkpoint_lag"`
	// TSDBRetentionCycles and TSDBSeries describe the observatory's raw
	// retention window and sim-stream series count.
	TSDBRetentionCycles int `json:"tsdb_retention_cycles"`
	TSDBSeries          int `json:"tsdb_series"`
}

// exposureBody is the /api/exposure rendering.
type exposureBody struct {
	Watermark Watermark     `json:"watermark"`
	Exposure  ExposureState `json:"exposure"`
}

// trendsBody is the /api/trends rendering.
type trendsBody struct {
	Watermark Watermark  `json:"watermark"`
	Trends    TrendState `json:"trends"`
}

// correlateBody is the /api/correlate rendering.
type correlateBody struct {
	Watermark   Watermark   `json:"watermark"`
	Correlation Correlation `json:"correlation"`
}

// render builds the immutable snapshot for the aggregate state after cycle
// completed cycles. Marshalling deep-copies everything the handlers will
// ever see, so the driver is free to keep mutating the live aggregates.
func render(a *Aggregates, cycle int, st statusBody) (*Published, error) {
	w := a.Watermark(cycle)
	st.Watermark = w
	out := &Published{Watermark: w}
	var err error
	if out.Exposure, err = marshalBody(exposureBody{w, a.Exposure}); err != nil {
		return nil, err
	}
	if out.Trends, err = marshalBody(trendsBody{w, a.Trends}); err != nil {
		return nil, err
	}
	if out.Correlate, err = marshalBody(correlateBody{w, a.Correlation()}); err != nil {
		return nil, err
	}
	if out.Status, err = marshalBody(st); err != nil {
		return nil, err
	}
	return out, nil
}

// marshalBody renders one endpoint body: indented for humans, newline-
// terminated for curl — json.MarshalIndent(v, "", "  ") plus a newline,
// byte for byte. encoding/json's indent pass runs its full validating
// scanner over every byte and costs several times the marshal itself;
// json.Marshal's output is valid and compact, so indentBody only has to
// track strings.
func marshalBody(v any) ([]byte, error) {
	data, err := json.Marshal(v)
	if err != nil {
		return nil, err
	}
	return append(indentBody(make([]byte, 0, 2*len(data)), data), '\n'), nil
}

// indentBody appends compact, valid JSON src to dst indented as json.Indent
// does with no prefix and a two-space indent: a newline after every opening
// bracket and comma and before every closing bracket, ": " after a key, and
// empty objects and arrays kept as {} and []. Strings and other literals are
// copied whole; src is valid, so every string has its closing quote.
func indentBody(dst, src []byte) []byte {
	const margin = "\n                                " // a newline and 16 levels
	depth := 0
	open := false
	newline := func() {
		if n := 1 + 2*depth; n <= len(margin) {
			dst = append(dst, margin[:n]...)
			return
		}
		dst = append(dst, '\n')
		for i := 0; i < depth; i++ {
			dst = append(dst, ' ', ' ')
		}
	}
	for i := 0; i < len(src); i++ {
		c := src[i]
		if open && c != '}' && c != ']' {
			// The first member of a non-empty object or array.
			open = false
			depth++
			newline()
		}
		switch c {
		case '{', '[':
			open = true
			dst = append(dst, c)
		case ',':
			dst = append(dst, c)
			newline()
		case ':':
			dst = append(dst, c, ' ')
		case '}', ']':
			if open {
				open = false
			} else {
				depth--
				newline()
			}
			dst = append(dst, c)
		case '"':
			j := i + 1
			for ; src[j] != '"'; j++ {
				if src[j] == '\\' {
					j++
				}
			}
			dst = append(dst, src[i:j+1]...)
			i = j
		default:
			// A number or true/false/null runs to the next punctuation.
			j := i + 1
			for j < len(src) && !isPunct(src[j]) {
				j++
			}
			dst = append(dst, src[i:j]...)
			i = j - 1
		}
	}
	return dst
}

// isPunct reports whether c ends a JSON literal in compact input.
func isPunct(c byte) bool {
	switch c {
	case ',', ':', '{', '}', '[', ']':
		return true
	}
	return false
}
