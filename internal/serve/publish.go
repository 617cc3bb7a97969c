package serve

import (
	"encoding/json"
	"math"
	"sort"
	"strconv"
	"sync/atomic"

	"openhire/internal/obs/tsdb"
)

// Published is one immutable query-API snapshot: every endpoint's body is
// pre-rendered at publish time into a slice of its own (the trends body
// copies the sealed rows Aggregates keeps rendered, never aliases them), so
// serving a request is a pointer load plus a buffer write — arbitrary
// concurrent readers never touch the cycle driver's live state, and a
// snapshot's bytes for a given watermark are identical across runs, worker
// counts and kill/resume cycles.
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
	// attributes it across the legs (month, on the cycles that build one,
	// then campaign/telescope/honeypots/scan/commit/publish).
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

// render builds the snapshot's three aggregate bodies — exposure, trends
// and correlate — for the state after cycle completed cycles; Loop.publish
// adds the status body and swaps it in. The bodies are fresh byte slices,
// so the driver is free to keep mutating the live aggregates. The
// correlate body reads the join counts the folds keep on insert, and the
// trends body copies the sealed rows a has rendered before (trendsBody):
// the cost of a publish is the cycle's delta, not the uptime.
func render(a *Aggregates, cycle int) (*Published, error) {
	w := a.Watermark(cycle)
	out := &Published{Watermark: w}
	var err error
	if out.Exposure, err = marshalBody(exposureBody{w, a.Exposure}); err != nil {
		return nil, err
	}
	if out.Trends, err = a.trendsBody(w, cycle); err != nil {
		return nil, err
	}
	if out.Correlate, err = marshalBody(correlateBody{w, a.Correlation()}); err != nil {
		return nil, err
	}
	return out, nil
}

// The trends body around its rows: marshalBody(trendsBody{...}) is the
// watermark indented one level inside trendsHead and trendsMid, the rows
// each on a new line three levels deep, comma-separated, then trendsTail.
const (
	trendsHead   = "{\n  \"watermark\": "
	trendsMid    = ",\n  \"trends\": {\n    \"days\": ["
	trendsRowPad = "\n      "
	trendsTail   = "\n    ]\n  }\n}\n"
)

// trendsBody renders the /api/trends body, marshalBody(trendsBody{w,
// a.Trends}) byte for byte. Row d is final once cycle d commits — only that
// cycle's two folds write it — so the rows before cycle are sealed: each is
// rendered once into a.trendRows, and a publish renders only the rows
// sealed since the last one, and the watermark, then makes one exact-size
// copy. Rows at or after cycle (none in the loop, which publishes after
// each cycle's folds) are rendered every time and not kept. cycle never
// decreases for one Aggregates.
func (a *Aggregates) trendsBody(w Watermark, cycle int) ([]byte, error) {
	days := a.Trends.Days
	if len(days) == 0 {
		return marshalBody(trendsBody{w, a.Trends})
	}
	sealed := min(cycle, len(days))
	var err error
	for ; a.sealedRows < sealed; a.sealedRows++ {
		if a.trendRows, err = appendTrendRow(a.trendRows, a.sealedRows, days[a.sealedRows]); err != nil {
			return nil, err
		}
	}
	var open []byte
	for d := sealed; d < len(days); d++ {
		if open, err = appendTrendRow(open, d, days[d]); err != nil {
			return nil, err
		}
	}
	wm, err := json.Marshal(w)
	if err != nil {
		return nil, err
	}
	wm = indentBody(make([]byte, 0, 2*len(wm)), wm, 1)
	out := make([]byte, 0, len(trendsHead)+len(wm)+len(trendsMid)+len(a.trendRows)+len(open)+len(trendsTail))
	out = append(out, trendsHead...)
	out = append(out, wm...)
	out = append(out, trendsMid...)
	out = append(out, a.trendRows...)
	out = append(out, open...)
	return append(out, trendsTail...), nil
}

// appendTrendRow appends row d of the trends body's days array: a comma
// after the row before, a new line, and the row indented three levels deep.
// On an error dst comes back as it was.
func appendTrendRow(dst []byte, d int, row DayTrend) ([]byte, error) {
	data, err := json.Marshal(row)
	if err != nil {
		return dst, err
	}
	if d > 0 {
		dst = append(dst, ',')
	}
	dst = append(dst, trendsRowPad...)
	return indentBody(dst, data, 3), nil
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
	return append(indentBody(make([]byte, 0, 2*len(data)), data, 0), '\n'), nil
}

// resultBody renders a /api/timeseries data answer, marshalBody(res) byte
// for byte, with an append encoder instead of reflection: range answers are
// the largest bodies rendered per request, and they grow with the history.
// A NaN or an infinity, which encoding/json refuses, falls back to
// marshalBody for its error.
func resultBody(res tsdb.Result) ([]byte, error) {
	for _, s := range res.Series {
		for _, p := range s.Points {
			if !finite(p.Value) {
				return marshalBody(res)
			}
		}
		for _, k := range s.Buckets {
			if !finite(k.Sum) || !finite(k.Min) || !finite(k.Max) || !finite(k.Last) {
				return marshalBody(res)
			}
		}
	}
	return appendResult(res), nil
}

// finite reports whether encoding/json can render f.
func finite(f float64) bool { return !math.IsNaN(f) && !math.IsInf(f, 0) }

// appendResult writes res, whose values are all finite, as marshalBody
// does — tsdb.Result's fields in order, every omitempty honored, label keys
// sorted, strings escaped by json.Marshal — into a buffer presized from the
// point and bucket counts.
func appendResult(res tsdb.Result) []byte {
	size := 96 + len(res.Metric) + len(res.Tier)
	for _, s := range res.Series {
		size += 64 + len(s.Name) + 72*len(s.Points) + 240*len(s.Buckets)
		for k, v := range s.Labels {
			size += 16 + len(k) + len(v)
		}
	}
	b := make([]byte, 0, size)
	b = append(b, "{\n  \"metric\": "...)
	b = appendString(b, res.Metric)
	b = append(b, ",\n  \"tier\": "...)
	b = appendString(b, res.Tier)
	if res.Step != 0 {
		b = append(b, ",\n  \"step\": "...)
		b = strconv.AppendInt(b, int64(res.Step), 10)
	}
	b = append(b, ",\n  \"from\": "...)
	b = strconv.AppendInt(b, res.From, 10)
	b = append(b, ",\n  \"to\": "...)
	b = strconv.AppendInt(b, res.To, 10)
	if len(res.Series) > 0 {
		b = append(b, ",\n  \"series\": ["...)
	}
	for i, s := range res.Series {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, "\n    {\n      \"name\": "...)
		b = appendString(b, s.Name)
		if len(s.Labels) > 0 {
			b = append(b, ",\n      \"labels\": {"...)
			keys := make([]string, 0, len(s.Labels))
			for k := range s.Labels {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			for j, k := range keys {
				if j > 0 {
					b = append(b, ',')
				}
				b = append(b, "\n        "...)
				b = appendString(b, k)
				b = append(b, ": "...)
				b = appendString(b, s.Labels[k])
			}
			b = append(b, "\n      }"...)
		}
		if len(s.Points) > 0 {
			b = append(b, ",\n      \"points\": ["...)
			for j, p := range s.Points {
				if j > 0 {
					b = append(b, ',')
				}
				b = append(b, "\n        {\n          \"c\": "...)
				b = strconv.AppendInt(b, p.Cycle, 10)
				b = append(b, ",\n          \"v\": "...)
				b = appendFloat(b, p.Value)
				b = append(b, "\n        }"...)
			}
			b = append(b, "\n      ]"...)
		}
		if len(s.Buckets) > 0 {
			b = append(b, ",\n      \"buckets\": ["...)
			for j, k := range s.Buckets {
				if j > 0 {
					b = append(b, ',')
				}
				b = append(b, "\n        {\n          \"start\": "...)
				b = strconv.AppendInt(b, k.Start, 10)
				b = append(b, ",\n          \"count\": "...)
				b = strconv.AppendUint(b, k.Count, 10)
				b = append(b, ",\n          \"sum\": "...)
				b = appendFloat(b, k.Sum)
				b = append(b, ",\n          \"min\": "...)
				b = appendFloat(b, k.Min)
				b = append(b, ",\n          \"max\": "...)
				b = appendFloat(b, k.Max)
				b = append(b, ",\n          \"last\": "...)
				b = appendFloat(b, k.Last)
				b = append(b, "\n        }"...)
			}
			b = append(b, "\n      ]"...)
		}
		if s.Dropped != 0 {
			b = append(b, ",\n      \"dropped\": "...)
			b = strconv.AppendUint(b, s.Dropped, 10)
		}
		b = append(b, "\n    }"...)
	}
	if len(res.Series) > 0 {
		b = append(b, "\n  ]"...)
	}
	return append(b, "\n}\n"...)
}

// appendString appends s as encoding/json renders a string.
func appendString(b []byte, s string) []byte {
	data, _ := json.Marshal(s) // a string always marshals
	return append(b, data...)
}

// appendFloat appends finite f as encoding/json renders a float64: the
// shortest form, in exponent notation below 1e-6 and from 1e21 up, with a
// one-digit negative exponent unpadded (e-9, not e-09).
func appendFloat(b []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if n := len(b); format == 'e' && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b[n-2] = b[n-1]
		b = b[:n-1]
	}
	return b
}

// indentBody appends compact, valid JSON src to dst indented as json.Indent
// does with no prefix and a two-space indent: a newline after every opening
// bracket and comma and before every closing bracket, ": " after a key, and
// empty objects and arrays kept as {} and []. Strings and other literals are
// copied whole; src is valid, so every string has its closing quote. depth
// is how many levels deep src sits in the document it is part of (0 for a
// whole body).
func indentBody(dst, src []byte, depth int) []byte {
	const margin = "\n                                " // a newline and 16 levels
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
