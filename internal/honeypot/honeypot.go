// Package honeypot implements the measurement-side honeypot framework and
// the six deployed honeypot profiles of the paper (Section 3.3): Cowrie,
// HosTaGe, Conpot, Dionaea, ThingPot and U-Pot. Each profile assembles the
// protocol servers of the product it models, normalizes their observations
// into attack events, and feeds the shared event log that Tables 7/12 and
// Figures 3/4/7/8/9 aggregate.
package honeypot

import (
	"bytes"
	"cmp"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"openhire/internal/iot"
	"openhire/internal/netsim"
)

// AttackType buckets events the way Figure 4/7 present them.
type AttackType string

// Attack types observed by the paper's honeypots (Sections 4.3, 5.1).
const (
	AttackScan       AttackType = "scanning"     // connection/discovery probes
	AttackBruteForce AttackType = "brute-force"  // credential guessing
	AttackDictionary AttackType = "dictionary"   // systematic credential lists
	AttackMalware    AttackType = "malware"      // dropper / payload delivery
	AttackPoisoning  AttackType = "poisoning"    // data modification
	AttackDoS        AttackType = "dos"          // floods
	AttackReflection AttackType = "reflection"   // spoofed-source amplification
	AttackExploit    AttackType = "exploit"      // protocol exploit (EternalBlue, S7 job flood)
	AttackWebScrape  AttackType = "web-scraping" // HTTP content harvesting
)

// Event is one normalized attack event.
type Event struct {
	Time     time.Time
	Honeypot string
	Protocol iot.Protocol
	Src      netsim.IPv4
	Type     AttackType
	// Username/Password carry credential attempts (Table 12).
	Username string
	Password string
	// Payload carries dropped malware bytes or poisoned values.
	Payload []byte
	// Detail is free-form evidence ("$SYS subscription", "Trans2 exploit").
	Detail string
}

// Log is the shared, thread-safe event store. Appends land on one of
// logShards lock-striped shards chosen round-robin by a global sequence
// counter, so concurrent attack workers never serialize on a single mutex;
// Events merges the shards back into (Time, sequence) order. A shard stores
// its events in fixed-size chunks, so an append never copies what earlier
// appends stored. The zero value is ready to use.
type Log struct {
	seq    atomic.Uint64
	shards [logShards]logShard
}

// logShards is the append stripe count — comfortably above the replay's
// worker parallelism on any host this runs on.
const logShards = 32

// logChunk is the events one chunk holds: a shard's storage grows a chunk
// at a time, and at most one chunk per shard is partly empty.
const logChunk = 16

// logShard is one append stripe, padded so adjacent shard headers do not
// share a cache line under concurrent append. Every chunk but the last is
// full; a chunk is never written again once full.
type logShard struct {
	mu     sync.Mutex
	chunks []*[logChunk]seqEvent
	n      int // events held
	_      [64]byte
}

// seqEvent pairs an event with its global arrival sequence number.
type seqEvent struct {
	seq uint64
	ev  Event
}

// Append records an event.
func (l *Log) Append(ev Event) {
	s := l.seq.Add(1)
	sh := &l.shards[s&(logShards-1)]
	sh.mu.Lock()
	if sh.n%logChunk == 0 {
		sh.chunks = append(sh.chunks, new([logChunk]seqEvent))
	}
	sh.chunks[sh.n/logChunk][sh.n%logChunk] = seqEvent{seq: s, ev: ev}
	sh.n++
	sh.mu.Unlock()
}

// Events returns a snapshot of all events ordered by (Time, arrival
// sequence). For a single sequential appender this is exactly append order —
// the contract the pre-sharding log kept; concurrent appenders get a stable
// chronological linearization.
func (l *Log) Events() []Event {
	return l.snapshot(false)
}

// Drain returns the events appended since the last drain, in Events order,
// and empties the log — the mirror of telescope.Drain. Every event is
// returned by exactly one drain, however appends interleave with it; an
// append that lands after its shard was visited waits for the next one.
func (l *Log) Drain() []Event {
	return l.snapshot(true)
}

// snapshot gathers the shards in (Time, arrival sequence) order, emptying
// each under its own lock when drain is set. It sorts pointers into the
// chunks and copies each event once, into the result. The slots it points
// at stay as they are after the lock is released: a later append writes
// only slots past the count it read, and a drain hands the chunks over.
func (l *Log) snapshot(drain bool) []Event {
	refs := make([]*seqEvent, 0, l.Len())
	for i := range l.shards {
		sh := &l.shards[i]
		sh.mu.Lock()
		for j := 0; j < sh.n; j++ {
			refs = append(refs, &sh.chunks[j/logChunk][j%logChunk])
		}
		if drain {
			sh.chunks, sh.n = nil, 0
		}
		sh.mu.Unlock()
	}
	slices.SortFunc(refs, func(a, b *seqEvent) int {
		if c := a.ev.Time.Compare(b.ev.Time); c != 0 {
			return c
		}
		return cmp.Compare(a.seq, b.seq)
	})
	out := make([]Event, len(refs))
	for i, r := range refs {
		out[i] = r.ev
	}
	return out
}

// Len returns the number of events currently held: appended and not yet
// drained.
func (l *Log) Len() int {
	n := 0
	for i := range l.shards {
		sh := &l.shards[i]
		sh.mu.Lock()
		n += sh.n
		sh.mu.Unlock()
	}
	return n
}

// SortEventsCanonical orders events by content alone — every field, ties
// broken field by field — removing scheduling artifacts. Two replays of the
// same plan under different worker counts produce logs whose canonical
// sorts are element-wise identical; the equivalence tests rely on this.
func SortEventsCanonical(evs []Event) {
	sort.Slice(evs, func(i, j int) bool {
		a, b := &evs[i], &evs[j]
		if !a.Time.Equal(b.Time) {
			return a.Time.Before(b.Time)
		}
		if a.Honeypot != b.Honeypot {
			return a.Honeypot < b.Honeypot
		}
		if a.Protocol != b.Protocol {
			return a.Protocol < b.Protocol
		}
		if a.Src != b.Src {
			return a.Src < b.Src
		}
		if a.Type != b.Type {
			return a.Type < b.Type
		}
		if a.Username != b.Username {
			return a.Username < b.Username
		}
		if a.Password != b.Password {
			return a.Password < b.Password
		}
		if a.Detail != b.Detail {
			return a.Detail < b.Detail
		}
		return bytes.Compare(a.Payload, b.Payload) < 0
	})
}

// Service is one listening port on a honeypot.
type Service struct {
	Port      uint16
	Transport netsim.Transport
	Protocol  iot.Protocol
	Stream    netsim.StreamHandler
	Datagram  netsim.DatagramHandler
}

// Honeypot is one deployed instance: a named device profile exposing
// services and logging attacks.
type Honeypot struct {
	Name    string
	Profile string // simulated device profile (Table 7 column 2)
	IP      netsim.IPv4
	Clock   *netsim.SimClock
	log     *Log

	mu       sync.RWMutex
	services map[uint16]Service

	floods [floodShards]floodShard
}

// floodKey tracks per-source daily request counts for DoS detection.
type floodKey struct {
	proto iot.Protocol
	src   netsim.IPv4
	day   int64
}

// floodShards stripes the flood counters by source address so concurrent
// workers hammering one honeypot from different sources do not serialize on
// one counter lock.
const floodShards = 16

// floodShard is one stripe of the flood-counter map, cache-line padded.
type floodShard struct {
	mu     sync.Mutex
	counts map[floodKey]int
	_      [64]byte
}

// floodThreshold is the per-day per-source event count beyond which further
// events are classified as a DoS flood. Connectionless and stateless
// protocols cannot distinguish one discovery probe from a flood except by
// rate, which is how the paper's honeypots (e.g. HosTaGe's DoS detection)
// identify the UDP floods dominating Figure 7.
const floodThreshold = 3

// floodUpgrade re-labels ev as DoS when its source exceeded the daily rate
// threshold on the protocol. It must be called before Record. Counters are
// striped by source low bits; one (protocol, source, day) key always lands on
// one stripe, so the upgrade decision sequence per key is unaffected.
func (h *Honeypot) floodUpgrade(ev *Event) {
	key := floodKey{proto: ev.Protocol, src: ev.Src, day: ev.Time.Unix() / 86400}
	sh := &h.floods[uint32(ev.Src)&(floodShards-1)]
	sh.mu.Lock()
	if sh.counts == nil {
		sh.counts = make(map[floodKey]int)
	}
	sh.counts[key]++
	count := sh.counts[key]
	sh.mu.Unlock()
	if count > floodThreshold {
		ev.Type = AttackDoS
		if ev.Detail == "" {
			ev.Detail = "rate threshold exceeded"
		}
	}
}

// New builds an empty honeypot bound to the shared log. clock, the
// simulation's, stamps datagram-service events.
func New(name, profile string, ip netsim.IPv4, clock *netsim.SimClock, log *Log) *Honeypot {
	return &Honeypot{
		Name: name, Profile: profile, IP: ip, Clock: clock, log: log,
		services: make(map[uint16]Service),
	}
}

// AddService registers a listening service.
func (h *Honeypot) AddService(s Service) {
	h.mu.Lock()
	h.services[s.Port] = s
	h.mu.Unlock()
}

// Log returns the shared event log.
func (h *Honeypot) Log() *Log { return h.log }

// Record appends an event stamped with this honeypot's name.
func (h *Honeypot) Record(ev Event) {
	ev.Honeypot = h.Name
	h.log.Append(ev)
}

// Protocols lists the protocols this honeypot emulates.
func (h *Honeypot) Protocols() []iot.Protocol {
	h.mu.RLock()
	defer h.mu.RUnlock()
	seen := make(map[iot.Protocol]bool)
	var out []iot.Protocol
	for _, s := range h.services {
		if !seen[s.Protocol] {
			seen[s.Protocol] = true
			out = append(out, s.Protocol)
		}
	}
	return out
}

// StreamService implements netsim.Host.
func (h *Honeypot) StreamService(port uint16) netsim.StreamHandler {
	h.mu.RLock()
	defer h.mu.RUnlock()
	if s, ok := h.services[port]; ok && s.Transport == netsim.TCP {
		return s.Stream
	}
	return nil
}

// DatagramService implements netsim.Host.
func (h *Honeypot) DatagramService(port uint16) netsim.DatagramHandler {
	h.mu.RLock()
	defer h.mu.RUnlock()
	if s, ok := h.services[port]; ok && s.Transport == netsim.UDP {
		return s.Datagram
	}
	return nil
}

// staticHost adapts a single honeypot to netsim.HostProvider for
// registration at its address.
type staticHost struct {
	hp *Honeypot
}

// Host implements netsim.HostProvider.
func (s staticHost) Host(ip netsim.IPv4) netsim.Host {
	if ip == s.hp.IP {
		return s.hp
	}
	return nil
}

// Register wires the honeypot into the network fabric at its address.
func (h *Honeypot) Register(n *netsim.Network) {
	n.AddProvider(netsim.NewPrefix(h.IP, 32), staticHost{hp: h})
}
