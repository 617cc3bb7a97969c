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
	"sort"
	"sync"
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

// Log is the shared, thread-safe event store: one mutex over the events in
// arrival order, held in fixed-size chunks so an append never copies what
// earlier appends stored. The zero value is ready to use.
type Log struct {
	mu     sync.Mutex
	chunks []*[logChunk]Event // every chunk but the last is full
	n      int                // events held
}

// logChunk is the events one chunk holds: the log grows a chunk at a time,
// and only its last chunk is partly empty.
const logChunk = 256

// Append records an event.
func (l *Log) Append(ev Event) {
	l.mu.Lock()
	if l.n%logChunk == 0 {
		l.chunks = append(l.chunks, new([logChunk]Event))
	}
	l.chunks[l.n/logChunk][l.n%logChunk] = ev
	l.n++
	l.mu.Unlock()
}

// Drain returns the events appended since the last drain in canonical
// order and empties the log — the mirror of telescope.Drain. Every event is
// returned by exactly one drain, however appends interleave with it. The
// canonical order is a function of content alone (see compareEvents), so
// the same events drain the same way whatever order concurrent appenders
// delivered them in, and every consumer reads the drained slice as it is:
// the -export files, the checkpoint frames and the session trace are all
// written in it. Events drained after each simulated day concatenate to
// the month-end drain, because every event of a day carries that day's
// clock.
func (l *Log) Drain() []Event {
	l.mu.Lock()
	chunks, n := l.chunks, l.n
	l.chunks, l.n = nil, 0
	l.mu.Unlock()
	out := make([]Event, 0, n)
	for _, c := range chunks {
		out = append(out, c[:min(logChunk, n-len(out))]...)
	}
	sort.Slice(out, func(i, j int) bool { return compareEvents(&out[i], &out[j]) < 0 })
	return out
}

// compareEvents is the canonical order: every field, ties broken field by
// field in the order Time, Honeypot, Protocol, Src, Type, Username,
// Password, Detail, Payload.
func compareEvents(a, b *Event) int {
	if c := a.Time.Compare(b.Time); c != 0 {
		return c
	}
	if c := cmp.Compare(a.Honeypot, b.Honeypot); c != 0 {
		return c
	}
	if c := cmp.Compare(a.Protocol, b.Protocol); c != 0 {
		return c
	}
	if c := cmp.Compare(a.Src, b.Src); c != 0 {
		return c
	}
	if c := cmp.Compare(a.Type, b.Type); c != 0 {
		return c
	}
	if c := cmp.Compare(a.Username, b.Username); c != 0 {
		return c
	}
	if c := cmp.Compare(a.Password, b.Password); c != 0 {
		return c
	}
	if c := cmp.Compare(a.Detail, b.Detail); c != 0 {
		return c
	}
	return bytes.Compare(a.Payload, b.Payload)
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

	floodMu sync.Mutex
	floods  map[floodKey]int
}

// floodKey tracks per-source daily request counts for DoS detection.
type floodKey struct {
	proto iot.Protocol
	src   netsim.IPv4
	day   int64
}

// floodThreshold is the per-day per-source event count beyond which further
// events are classified as a DoS flood. Connectionless and stateless
// protocols cannot distinguish one discovery probe from a flood except by
// rate, which is how the paper's honeypots (e.g. HosTaGe's DoS detection)
// identify the UDP floods dominating Figure 7.
const floodThreshold = 3

// floodUpgrade re-labels ev as DoS when its source exceeded the daily rate
// threshold on the protocol. It must be called before Record.
func (h *Honeypot) floodUpgrade(ev *Event) {
	key := floodKey{proto: ev.Protocol, src: ev.Src, day: ev.Time.Unix() / 86400}
	h.floodMu.Lock()
	h.floods[key]++
	count := h.floods[key]
	h.floodMu.Unlock()
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
		services: make(map[uint16]Service), floods: make(map[floodKey]int),
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
