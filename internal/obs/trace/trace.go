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
	"cmp"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
	"strings"
	"sync"

	"openhire/internal/checkpoint/wire"
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
	// logged counts the leading events already in a checkpoint log frame.
	logged int
	_      [64]byte
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
// (protocol, numeric address, port), ties left in append order. Because one
// goroutine owns each key's emission and one shard holds it, the result is
// deterministic across worker counts.
func (r *Recorder) Events() []Event {
	if r == nil {
		return nil
	}
	refs := r.take(false)
	out := make([]Event, len(refs))
	for i, ev := range refs {
		out[i] = *ev
	}
	return out
}

// take returns the shards' events in canonical order: ascending
// (protocol, numeric address, port), ties in shard append order. With
// unlogged set it takes only the events not yet in a log frame, and marks
// them logged. The pointers stay valid: appends never move or rewrite an
// event already recorded, and a slice that grows leaves the old array to
// its readers.
func (r *Recorder) take(unlogged bool) []*Event {
	// The sort key sits beside each pointer, so comparisons never chase it.
	type ref struct {
		proto string
		ip    uint64
		port  uint16
		n     int
		ev    *Event
	}
	refs := make([]ref, 0, r.Len())
	for i := range r.shards {
		sh := &r.shards[i]
		sh.mu.Lock()
		from := 0
		if unlogged {
			from, sh.logged = sh.logged, len(sh.evs)
		}
		for j := from; j < len(sh.evs); j++ {
			ev := &sh.evs[j]
			refs = append(refs, ref{ev.Protocol, ev.ipKey, ev.Port, len(refs), ev})
		}
		sh.mu.Unlock()
	}
	slices.SortFunc(refs, func(a, b ref) int {
		if c := strings.Compare(a.proto, b.proto); c != 0 {
			return c
		}
		if c := cmp.Compare(a.ip, b.ip); c != 0 {
			return c
		}
		if c := cmp.Compare(a.port, b.port); c != 0 {
			return c
		}
		return cmp.Compare(a.n, b.n)
	})
	out := make([]*Event, len(refs))
	for i := range refs {
		out[i] = refs[i].ev
	}
	return out
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

// AppendNew appends the events recorded since the last AppendNew or
// ReadEvents to b for a checkpoint log frame, in canonical order: within a
// shard, events of different keys interleave by worker completion, noise
// that must not reach the log, while each key's events keep their
// single-writer order, so re-recording the frames in log order reproduces
// every key's sequence. A nil recorder appends an empty list.
func (r *Recorder) AppendNew(b []byte) []byte {
	if r == nil {
		return wire.AppendUint(b, 0)
	}
	evs := r.take(true)
	b = slices.Grow(b, len(evs)*(eventMinBytes+24)) // an address and a detail run ~24 bytes
	b = wire.AppendInt(b, len(evs))
	for _, ev := range evs {
		for _, s := range [...]string{string(ev.Kind), ev.Protocol, ev.IP, ev.Peer, ev.Detail} {
			b = wire.AppendString(b, s)
		}
		for _, v := range [...]uint64{uint64(ev.Port), uint64(ev.Attempt), uint64(ev.Day), uint64(ev.SimNS), ev.Count, ev.ipKey} {
			b = wire.AppendUint(b, v)
		}
	}
	return b
}

// eventMinBytes is the smallest encoded event: eleven one-byte fields.
const eventMinBytes = 11

// ReadEvents decodes a list AppendNew wrote and re-records each event under
// its original key, as logged. A nil recorder decodes and discards them.
func (r *Recorder) ReadEvents(rd *wire.Reader) {
	n := rd.Count(eventMinBytes)
	for i := 0; i < n && rd.Err() == nil; i++ {
		ev := Event{Kind: Kind(rd.Str()), Protocol: rd.Str(), IP: rd.Str(), Peer: rd.Str(), Detail: rd.Str()}
		port, attempt := rd.Uint(), rd.Uint()
		if port > math.MaxUint16 || attempt > math.MaxUint32 {
			rd.Fail("event port %d attempt %d", port, attempt)
		}
		ev.Port, ev.Attempt, ev.Day, ev.SimNS, ev.Count = uint16(port), uint32(attempt), rd.Int(), rd.Int64(), rd.Uint()
		if key := rd.Uint(); rd.Err() == nil {
			r.Record(key, ev)
		}
	}
	if r == nil {
		return
	}
	for i := range r.shards {
		sh := &r.shards[i]
		sh.mu.Lock()
		sh.logged = len(sh.evs)
		sh.mu.Unlock()
	}
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
