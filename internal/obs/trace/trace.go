// Package trace is the pipeline's flight recorder: structured per-target
// lifecycle events — probe transmissions, retransmits, outcomes and breaker
// skips for the scan leg; session open/command/close for the honeypots; flow
// ingest and rotation for the telescope — recorded into shard-local buffers
// off the hot paths and flushed to a JSONL artifact whose digest lands in
// the run manifest.
//
// The recorder inherits the obs package's zero-perturbation invariant and
// adds one of its own: **determinism**. Sampling is a pure hash of
// (seed, target address), so the sampled set is identical across worker
// counts and runs; every recorded value (outcomes, backoff delays, fault
// plans, simulated timestamps) is itself a pure function of (seed, config);
// and the flush orders events by a canonical key. All events for one key are
// emitted by exactly one goroutine in program order — the worker that owns a
// target's retransmit loop, the single-threaded feed, or a post-run
// derivation — and land in one shard in that order, which a stable sort
// preserves. Two runs of the same (seed, config, build) therefore produce
// byte-identical trace files, which is what lets `openhire-inspect diff`
// treat any divergence as a real regression.
package trace

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"

	"openhire/internal/prng"
)

// Kind names one lifecycle event class.
type Kind string

// Event kinds, grouped by pipeline leg.
const (
	// KindMeta is the trace artifact's first JSONL record (see Meta).
	KindMeta Kind = "trace.meta"

	// Scan leg: one target's retransmit loop plus feed/classify moments.
	KindProbeSent       Kind = "probe.sent"
	KindProbeAnswered   Kind = "probe.answered"
	KindProbeTimeout    Kind = "probe.timeout"
	KindProbeReset      Kind = "probe.reset"
	KindProbePartial    Kind = "probe.partial"
	KindProbeNegative   Kind = "probe.negative"
	KindProbeRetransmit Kind = "probe.retransmit"
	KindProbeAbandoned  Kind = "probe.abandoned"
	KindBreakerSkip     Kind = "breaker.skip"
	KindClassified      Kind = "probe.classified"

	// Honeypot leg: sessions derived from the canonical event log.
	KindSessionOpen  Kind = "session.open"
	KindSessionEvent Kind = "session.event"
	KindSessionClose Kind = "session.close"
	KindCampaignDay  Kind = "campaign.day"

	// Telescope leg: capture ingest and rotation.
	KindFlowIngest  Kind = "flow.ingest"
	KindFlowRotate  Kind = "flow.rotate"
	KindDarknetUnit Kind = "darknet.unit"
)

// Event is one JSONL trace record. Fields are optional per kind; zero
// values are omitted so the artifact stays compact at scan scale.
type Event struct {
	Kind     Kind   `json:"kind"`
	Protocol string `json:"protocol,omitempty"`
	IP       string `json:"ip,omitempty"`
	Port     uint16 `json:"port,omitempty"`
	// Attempt is the retransmission ordinal for probe events.
	Attempt uint32 `json:"attempt,omitempty"`
	// Day is the simulated-day ordinal for day/rotate/unit events.
	Day int `json:"day,omitempty"`
	// SimNS is the simulated duration or offset attached to the event:
	// injected latency for transmissions, patience for timeouts, backoff for
	// retransmits, offset from experiment start for session/flow events.
	SimNS int64 `json:"sim_ns,omitempty"`
	// Count carries a cardinality where one exists (session events, flow
	// packets, rotated flows).
	Count uint64 `json:"count,omitempty"`
	// Peer names the counterpart ("cowrie" for sessions).
	Peer string `json:"peer,omitempty"`
	// Detail is free-form evidence ("syn-drop", "brute-force: ...").
	Detail string `json:"detail,omitempty"`

	// ipKey is the numeric address used for sharding and canonical
	// ordering; never serialized (IP carries the dotted form).
	ipKey uint64
}

// Meta is the first JSONL line of every trace artifact.
type Meta struct {
	Kind        Kind   `json:"kind"`
	Binary      string `json:"binary"`
	Seed        uint64 `json:"seed"`
	SampleOneIn uint64 `json:"sample_one_in"`
	Events      int    `json:"events"`
}

// recorderShards is the buffer stripe count — comfortably above the scan
// worker parallelism so concurrent emitters rarely collide on a lock.
const recorderShards = 64

// Hash domains for sampling and shard selection, disjoint from every other
// derived-stream label in the repo.
const (
	sampleLabel = 0x7ace5a
	shardLabel  = 0x7ace5b
)

// Recorder accumulates events into lock-striped shards. A nil *Recorder is
// a valid no-op sink — Sampled reports false and Record discards — so
// adapters can thread an optional recorder without nil checks.
//
// Shards are selected by hashing an event's full canonical key
// (protocol, address, port), so all events for one key land in one shard in
// append order regardless of which goroutine count produced them; Events
// concatenates the shards and stable-sorts by the same key, restoring one
// deterministic global order.
type Recorder struct {
	binary      string
	seed        uint64
	sampleOneIn uint64
	root        *prng.Source
	shards      [recorderShards]recorderShard
}

// recorderShard is one append stripe, padded against false sharing.
type recorderShard struct {
	mu  sync.Mutex
	evs []Event
	_   [64]byte
}

// NewRecorder builds a recorder for the named binary. sampleOneIn selects
// one of every N target addresses by pure hash of (seed, address); values
// below 2 record every target.
func NewRecorder(binary string, seed, sampleOneIn uint64) *Recorder {
	if sampleOneIn < 1 {
		sampleOneIn = 1
	}
	return &Recorder{binary: binary, seed: seed, sampleOneIn: sampleOneIn, root: prng.New(seed)}
}

// Sampled reports whether the target address is in the recorded sample. It
// is a pure function of (seed, address) — never of worker count, arrival
// order, or anything consumed from a shared stream — which is what makes
// the sampled set identical across runs and parallelism levels.
func (r *Recorder) Sampled(ip uint64) bool {
	if r == nil {
		return false
	}
	if r.sampleOneIn <= 1 {
		return true
	}
	return r.root.Hash64(sampleLabel, ip)%r.sampleOneIn == 0
}

// Record appends one event. ipKey is the event's numeric address (0 for
// addressless events like day boundaries); callers have already applied
// Sampled where sampling is wanted. Safe for concurrent use.
func (r *Recorder) Record(ipKey uint64, ev Event) {
	if r == nil {
		return
	}
	ev.ipKey = ipKey
	sh := &r.shards[r.root.Hash64(shardLabel, prng.HashString(ev.Protocol), ipKey, uint64(ev.Port))%recorderShards]
	sh.mu.Lock()
	sh.evs = append(sh.evs, ev)
	sh.mu.Unlock()
}

// Len returns the number of events recorded so far.
func (r *Recorder) Len() int {
	if r == nil {
		return 0
	}
	n := 0
	for i := range r.shards {
		sh := &r.shards[i]
		sh.mu.Lock()
		n += len(sh.evs)
		sh.mu.Unlock()
	}
	return n
}

// Events returns all recorded events in canonical order: ascending
// (protocol, numeric address, port), ties left in append order by the
// stable sort. Because one goroutine owns each key's emission and one shard
// holds it, the result is deterministic across worker counts.
func (r *Recorder) Events() []Event {
	if r == nil {
		return nil
	}
	var all []Event
	for i := range r.shards {
		sh := &r.shards[i]
		sh.mu.Lock()
		all = append(all, sh.evs...)
		sh.mu.Unlock()
	}
	sort.SliceStable(all, func(i, j int) bool {
		a, b := &all[i], &all[j]
		if a.Protocol != b.Protocol {
			return a.Protocol < b.Protocol
		}
		if a.ipKey != b.ipKey {
			return a.ipKey < b.ipKey
		}
		return a.Port < b.Port
	})
	return all
}

// WriteJSONL flushes the trace: one Meta line, then every event in
// canonical order, one JSON object per line.
func (r *Recorder) WriteJSONL(w io.Writer) error {
	evs := r.Events()
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	meta := Meta{Kind: KindMeta, Events: len(evs)}
	if r != nil {
		meta.Binary, meta.Seed, meta.SampleOneIn = r.binary, r.seed, r.sampleOneIn
	}
	if err := enc.Encode(meta); err != nil {
		return err
	}
	for i := range evs {
		if err := enc.Encode(&evs[i]); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// SavedEvent is one recorded event plus the shard key Record was called
// with, which Event itself never serializes. Checkpoints carry these so a
// resumed recorder re-records each event under its original key and the
// final canonical order is unchanged.
type SavedEvent struct {
	IPKey uint64 `json:"ip_key,omitempty"`
	Ev    Event  `json:"ev"`
}

// DumpEvents snapshots the recorder's contents for checkpointing, in the
// same canonical order Events uses. Within one shard, events of different
// keys interleave by worker completion — scheduling noise that must not
// reach checkpoint bytes, which are a pure function of (seed, config,
// cadence point). The stable sort erases the interleaving while keeping
// every key's events in their single-writer append order, so restoring the
// dump reproduces each key's sequence exactly.
func (r *Recorder) DumpEvents() []SavedEvent {
	if r == nil {
		return nil
	}
	var out []SavedEvent
	for i := range r.shards {
		sh := &r.shards[i]
		sh.mu.Lock()
		for _, ev := range sh.evs {
			out = append(out, SavedEvent{IPKey: ev.ipKey, Ev: ev})
		}
		sh.mu.Unlock()
	}
	sort.SliceStable(out, func(i, j int) bool {
		a, b := &out[i].Ev, &out[j].Ev
		if a.Protocol != b.Protocol {
			return a.Protocol < b.Protocol
		}
		if out[i].IPKey != out[j].IPKey {
			return out[i].IPKey < out[j].IPKey
		}
		return a.Port < b.Port
	})
	for i := range out {
		out[i].Ev.ipKey = 0
	}
	return out
}

// RestoreEvents re-records a DumpEvents snapshot.
func (r *Recorder) RestoreEvents(evs []SavedEvent) {
	for i := range evs {
		r.Record(evs[i].IPKey, evs[i].Ev)
	}
}

// Read parses a trace stream back into its meta line and events (in file —
// canonical — order).
func Read(rd io.Reader) (Meta, []Event, error) {
	sc := bufio.NewScanner(rd)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	var meta Meta
	var evs []Event
	first := true
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		if first {
			first = false
			if err := json.Unmarshal(line, &meta); err != nil {
				return meta, nil, fmt.Errorf("trace meta: %w", err)
			}
			if meta.Kind != KindMeta {
				return meta, nil, fmt.Errorf("not a trace file: first record kind %q", meta.Kind)
			}
			continue
		}
		var ev Event
		if err := json.Unmarshal(line, &ev); err != nil {
			return meta, nil, err
		}
		evs = append(evs, ev)
	}
	return meta, evs, sc.Err()
}

// ReadFile parses a trace artifact from disk.
func ReadFile(path string) (Meta, []Event, error) {
	f, err := os.Open(path)
	if err != nil {
		return Meta{}, nil, err
	}
	defer f.Close()
	return Read(f)
}

// ReadLenient parses a trace stream, tolerating exactly one unparseable
// final line — the torn tail a kill mid-write leaves behind. It returns
// truncated=true when such a tail was dropped. A malformed line anywhere
// else (or a malformed meta line) is still an error: only the last line of
// the file can legitimately be half-written.
func ReadLenient(rd io.Reader) (meta Meta, evs []Event, truncated bool, err error) {
	sc := bufio.NewScanner(rd)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	var lines [][]byte
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		lines = append(lines, append([]byte(nil), line...))
	}
	if err = sc.Err(); err != nil {
		return meta, nil, false, err
	}
	if len(lines) == 0 {
		return meta, nil, false, nil
	}
	if err = json.Unmarshal(lines[0], &meta); err != nil {
		return meta, nil, false, fmt.Errorf("trace meta: %w", err)
	}
	if meta.Kind != KindMeta {
		return meta, nil, false, fmt.Errorf("not a trace file: first record kind %q", meta.Kind)
	}
	for i, line := range lines[1:] {
		var ev Event
		if uerr := json.Unmarshal(line, &ev); uerr != nil {
			if i == len(lines)-2 {
				return meta, evs, true, nil
			}
			return meta, nil, false, uerr
		}
		evs = append(evs, ev)
	}
	return meta, evs, false, nil
}

// ReadFileLenient is ReadLenient over a file on disk.
func ReadFileLenient(path string) (Meta, []Event, bool, error) {
	f, err := os.Open(path)
	if err != nil {
		return Meta{}, nil, false, err
	}
	defer f.Close()
	return ReadLenient(f)
}
