package main

import (
	"encoding/json"
	"os"
	"time"
)

// span is one traced call into a layer. Times are nanoseconds since the
// process started; Parent is the index of the enclosing span (-1 for a
// root) and Unit numbers the pass, cycle or day the span belongs to, so the
// spans of one operation share an identifier.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
	Parent int    `json:"parent"`
	Unit   int    `json:"unit"`
}

// tracer records spans in memory from the harness's own call sites, around
// the layers' public functions; nothing inside the program is instrumented.
// A nil tracer records nothing, so the end-to-end run makes the same calls
// without the bookkeeping. Only the workload's driving goroutine uses it.
type tracer struct {
	epoch time.Time
	spans []span
}

func newTracer(epoch time.Time) *tracer { return &tracer{epoch: epoch} }

// begin opens a span and returns its index (-1 on a nil tracer).
func (t *tracer) begin(name string, parent, unit int) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{Name: name, Start: time.Since(t.epoch).Nanoseconds(), Parent: parent, Unit: unit})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	t.spans[id].End = time.Since(t.epoch).Nanoseconds()
}

// addChild records a span the harness did not time itself: dur nanoseconds
// long, starting offset nanoseconds into its parent.
func (t *tracer) addChild(name string, parent int, offset, dur int64) {
	if t == nil {
		return
	}
	start := t.spans[parent].Start + offset
	t.spans = append(t.spans, span{Name: name, Start: start, End: start + dur, Parent: parent, Unit: t.spans[parent].Unit})
}

// in runs f inside a span.
func (t *tracer) in(name string, parent, unit int, f func()) {
	id := t.begin(name, parent, unit)
	f()
	t.end(id)
}

// totalsFrom sums span durations by name over the units >= firstUnit, in
// nanoseconds: the timed units, without the set-up ones before them.
func (t *tracer) totalsFrom(firstUnit int) map[string]int64 {
	out := make(map[string]int64)
	if t == nil {
		return out
	}
	for _, s := range t.spans {
		if s.Unit >= firstUnit {
			out[s.Name] += s.End - s.Start
		}
	}
	return out
}

// selfTime is a span's duration minus the part its direct children cover.
func (t *tracer) selfTime(id int) int64 {
	self := t.spans[id].End - t.spans[id].Start
	for _, s := range t.spans[id+1:] {
		if s.Parent == id {
			self -= s.End - s.Start
		}
	}
	return self
}

// writeFile dumps the spans as JSON when the run ends.
func (t *tracer) writeFile(path string) error {
	data, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
