package netsim

import (
	"errors"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// StreamHandler is a TCP-like service on a simulated host. Every dial mints a
// fresh Stepper — the per-conversation state machine the engine runs inline
// on the dialing goroutine (see stepper.go).
type StreamHandler interface {
	NewStepper() Stepper
}

// DatagramHandler answers one UDP-like query on a simulated host.
// A nil response means the datagram is dropped (no reply), matching a
// service that silently ignores malformed probes.
type DatagramHandler interface {
	HandleDatagram(from Endpoint, payload []byte) []byte
}

// DatagramHandlerFunc adapts a function to a DatagramHandler.
type DatagramHandlerFunc func(from Endpoint, payload []byte) []byte

// HandleDatagram calls f.
func (f DatagramHandlerFunc) HandleDatagram(from Endpoint, payload []byte) []byte {
	return f(from, payload)
}

// ServiceConn is one endpoint of an engine conversation, as returned by Dial:
// a byte stream (Read, Write, Close) that carries the simulated timestamp of
// the dial, letting services log events in simulation time. ServiceConns are
// allocated per dial and never pooled, so the fault flags below remain
// readable after Close even though the conversation object underneath has
// been recycled.
type ServiceConn struct {
	convConn
	DialTime time.Time
	// RTT is the simulated round-trip latency the fault model assigned to
	// the dial (zero when no fault model is installed).
	RTT time.Duration

	faultTruncated atomic.Bool
	faultReset     atomic.Bool
}

// FaultTruncated reports whether the peer's stream was cut by a tarpit
// pathology: the bytes read so far are a genuine prefix of the banner, but
// the rest never arrived.
func (c *ServiceConn) FaultTruncated() bool { return c.faultTruncated.Load() }

// FaultReset reports whether the conversation was torn down mid-stream by an
// injected TCP RST.
func (c *ServiceConn) FaultReset() bool { return c.faultReset.Load() }

// Host describes a simulated machine: which ports answer, and how.
// Implementations must be safe for concurrent use; the lazily derived IoT
// population returns stateless value hosts, while honeypots are stateful.
type Host interface {
	// StreamService returns the handler for a TCP port, or nil if closed.
	StreamService(port uint16) StreamHandler
	// DatagramService returns the handler for a UDP port, or nil if closed.
	DatagramService(port uint16) DatagramHandler
}

// HostProvider resolves an address to a host. Returning nil means no machine
// exists there (the address is dark). Providers must be safe for concurrent
// use and SHOULD be cheap: the scanner calls Host for every probed address.
type HostProvider interface {
	Host(ip IPv4) Host
}

// HostProviderFunc adapts a function to a HostProvider.
type HostProviderFunc func(ip IPv4) Host

// Host calls f.
func (f HostProviderFunc) Host(ip IPv4) Host { return f(ip) }

// PortProber is the port-level fast path a HostProvider may add. A sweep asks
// about one port of millions of mostly dark addresses; a provider that
// derives its hosts (the IoT universe) answers that without assembling the
// host. Providers that hold their hosts ready (static honeypots, test
// fixtures) don't implement it and are asked for Host(ip) instead.
type PortProber interface {
	// PortOpen reports whether the provider has a host at ip that listens on
	// the port: exactly Host(ip) != nil && its StreamService(port) (TCP) or
	// DatagramService(port) (UDP) != nil.
	PortOpen(ip IPv4, transport Transport, port uint16) bool
}

// Stats counts traffic carried by the network.
type Stats struct {
	Dials       atomic.Uint64 // TCP dial attempts
	DialsOK     atomic.Uint64 // successful dials
	Finished    atomic.Uint64 // conversations whose server side has ended
	Refused     atomic.Uint64 // host present, port closed
	Unreachable atomic.Uint64 // no host at address
	Datagrams   atomic.Uint64 // UDP queries sent
	Responses   atomic.Uint64 // UDP responses returned
	Dropped     atomic.Uint64 // probes lost to the fault model (SYN or datagram)
}

// Open is how many successful dials' conversations have not ended yet.
func (s *Stats) Open() uint64 { return s.DialsOK.Load() - s.Finished.Load() }

// FaultPlan is the set of pathologies the fault model injects into one probe
// or flow. The zero value is a perfectly healthy network path.
type FaultPlan struct {
	// Latency is the simulated round trip. A reply slower than the sender's
	// ProbeOptions.Timeout is indistinguishable from loss and reported as a
	// timeout.
	Latency time.Duration
	// DropSYN loses a TCP SYN (or its SYN-ACK): the dial times out.
	DropSYN bool
	// DropDatagram loses a UDP probe or its response: silence.
	DropDatagram bool
	// HostDown marks the destination as flapped off the network: the address
	// is dark for the duration of the current churn epoch.
	HostDown bool
	// TruncateAfter, when > 0, tarpits the flow: the server's stream is cut
	// after that many bytes, as seen by a dialer that gave up on the drip.
	TruncateAfter int
	// ResetAfter, when > 0, resets the flow (TCP RST) after that many bytes,
	// discarding anything in flight.
	ResetAfter int
}

// FaultModel decides the pathologies applied to traffic. Implementations
// MUST be pure functions of (their seed, the arguments): the scan and attack
// legs rely on probe outcomes being independent of worker count and run
// order. Attempt is the sender's retransmission ordinal, giving every
// retransmit an independent draw.
type FaultModel interface {
	// PlanProbe decides the fate of one probe/flow.
	PlanProbe(src IPv4, dst Endpoint, transport Transport, attempt uint32, now time.Time) FaultPlan
	// Blackholed reports whether dst sits in a prefix that administratively
	// drops all of src's probes — the signal (ICMP admin-prohibited in the
	// real world) a scanner's circuit breaker keys on.
	Blackholed(src IPv4, dst IPv4) bool
}

// Network is the simulated Internet fabric. Hosts come from registered
// providers (checked most-specific first).
//
// The probe hot path (lookupHost, Sweep) is lock-free: registrations live in
// an immutable snapshot behind an atomic pointer, rebuilt copy-on-write by
// AddProvider. Readers pay one atomic load per probe and never contend with
// each other or with writers.
type Network struct {
	writeMu sync.Mutex // serializes copy-on-write snapshot rebuilds
	state   atomic.Pointer[netState]
	clock   *SimClock

	// faults, when non-nil, injects deterministic network pathologies into
	// every probe. Behind an atomic pointer so installing a model does not
	// race with in-flight traffic; the nil fast path costs one atomic load.
	faults atomic.Pointer[faultsHolder]

	stats Stats
}

// faultsHolder boxes the FaultModel interface for atomic.Pointer.
type faultsHolder struct{ model FaultModel }

// SetFaults installs (or, with nil, removes) the network's fault model.
func (n *Network) SetFaults(m FaultModel) {
	if m == nil {
		n.faults.Store(nil)
		return
	}
	n.faults.Store(&faultsHolder{model: m})
}

// Faults returns the installed fault model, or nil for a perfect network.
func (n *Network) Faults() FaultModel {
	if h := n.faults.Load(); h != nil {
		return h.model
	}
	return nil
}

// PlanFor replays the installed fault model's decision for one probe at the
// current simulated time. FaultModel implementations are pure functions of
// (their seed, the arguments), so out-of-band consumers — the flight
// recorder annotates sampled probes with the latency and pathology the
// fabric injected — can read the plan without touching the probe path or
// perturbing the run. The second return is false on a perfect network.
func (n *Network) PlanFor(src IPv4, dst Endpoint, transport Transport, attempt uint32) (FaultPlan, bool) {
	fm := n.Faults()
	if fm == nil {
		return FaultPlan{}, false
	}
	return fm.PlanProbe(src, dst, transport, attempt, n.clock.Now()), true
}

// netState is one immutable snapshot of the network's registrations.
type netState struct {
	// providers is sorted most-specific (longest prefix) first; within
	// equal lengths, later registrations sort first. lookupHost takes the
	// first entry that yields a host, which reproduces the documented
	// precedence (most-specific wins, ties to the later registration,
	// nil hosts fall through to less-specific providers).
	providers []providerEntry
	// byOctet holds, per destination top octet, the providers whose prefix
	// can cover an address with that octet, in providers' order: a lookup
	// walks only those, so a probe of the universe never tests the deployed
	// honeypots' /32s in other octets. Nil until a provider is registered.
	byOctet *[256][]providerEntry
}

type providerEntry struct {
	prefix   Prefix
	seq      int // registration order, for the equal-length tie-break
	provider HostProvider
	ports    PortProber // provider's port-level fast path, nil if it has none
}

// NewNetwork returns an empty network fabric on the given simulated clock.
func NewNetwork(clock *SimClock) *Network {
	n := &Network{clock: clock}
	n.state.Store(&netState{})
	return n
}

// Clock returns the network's time source.
func (n *Network) Clock() *SimClock { return n.clock }

// Stats returns the network's traffic counters.
func (n *Network) Stats() *Stats { return &n.stats }

// AddProvider registers a host provider for a prefix. When prefixes overlap,
// the most specific (longest) prefix wins; ties go to the later
// registration. A provider returning a nil host does not shadow
// less-specific providers — lookup falls through.
func (n *Network) AddProvider(prefix Prefix, p HostProvider) {
	n.writeMu.Lock()
	defer n.writeMu.Unlock()
	cur := n.state.Load()
	next := &netState{
		providers: make([]providerEntry, len(cur.providers), len(cur.providers)+1),
	}
	copy(next.providers, cur.providers)
	ports, _ := p.(PortProber)
	next.providers = append(next.providers, providerEntry{prefix: prefix, seq: len(cur.providers), provider: p, ports: ports})
	sort.SliceStable(next.providers, func(i, j int) bool {
		a, b := next.providers[i], next.providers[j]
		if a.prefix.Bits != b.prefix.Bits {
			return a.prefix.Bits > b.prefix.Bits // most specific first
		}
		return a.seq > b.seq // later registration first
	})
	next.byOctet = octetTable(next.providers)
	n.state.Store(next)
}

// octetRange returns the first and last top octet of p's addresses.
func octetRange(p Prefix) (lo, hi uint32) {
	return uint32(p.First()) >> 24, uint32(p.Last()) >> 24
}

// octetTable files each provider under every top octet its prefix reaches,
// keeping the providers' precedence order within each octet.
func octetTable(providers []providerEntry) *[256][]providerEntry {
	var t [256][]providerEntry
	for _, e := range providers {
		lo, hi := octetRange(e.prefix)
		for o := lo; o <= hi; o++ {
			t[o] = append(t[o], e)
		}
	}
	return &t
}

// candidates returns, in precedence order, the providers that can cover ip.
func (st *netState) candidates(ip IPv4) []providerEntry {
	if st.byOctet == nil {
		return nil
	}
	return st.byOctet[uint32(ip)>>24]
}

// lookupHost resolves ip through the registered providers.
func (n *Network) lookupHost(ip IPv4) Host {
	for _, e := range n.state.Load().candidates(ip) {
		if e.prefix.Contains(ip) {
			if h := e.provider.Host(ip); h != nil {
				return h
			}
		}
	}
	return nil
}

// portOpen resolves one port of ip through the registered providers, with
// lookupHost's precedence: the first provider that has a host at ip decides,
// whether or not the port is open on it.
func (st *netState) portOpen(ip IPv4, transport Transport, port uint16) bool {
	providers := st.candidates(ip)
	for i, e := range providers {
		if !e.prefix.Contains(ip) {
			continue
		}
		if e.ports != nil {
			if e.ports.PortOpen(ip, transport, port) {
				return true
			}
			// Not open here. A less specific provider only gets a say when
			// this one has no host at ip at all, so unless one covers ip
			// the answer is final and the host is never built.
			if !covered(providers[i+1:], ip) {
				return false
			}
		}
		if h := e.provider.Host(ip); h != nil {
			if transport == UDP {
				return h.DatagramService(port) != nil
			}
			return h.StreamService(port) != nil
		}
	}
	return false
}

// covered reports whether any of the providers' prefixes contains ip.
func covered(providers []providerEntry, ip IPv4) bool {
	for _, e := range providers {
		if e.prefix.Contains(ip) {
			return true
		}
	}
	return false
}

// ProbeOptions are a sender's retransmission ordinal and patience.
type ProbeOptions struct {
	// Attempt is the retransmission ordinal (0 = first transmission). Fault
	// draws derive from (dst, attempt), so each retransmit sees independent
	// loss and jitter regardless of worker scheduling.
	Attempt uint32
	// Timeout, when > 0, is the sender's patience in simulated time: a path
	// whose simulated latency exceeds it behaves as a lost probe. Zero means
	// the sender waits out any latency (only hard drops time out).
	Timeout time.Duration
}

// timedOut reports whether the plan's pathologies defeat this probe: an
// outright drop, or latency beyond the sender's patience.
func (o ProbeOptions) timedOut(plan FaultPlan, drop bool) bool {
	return drop || (o.Timeout > 0 && plan.Latency > o.Timeout)
}

// Verdict is what a stateless liveness probe learns about one port.
type Verdict uint8

// Sweep verdicts.
const (
	// Silent means nothing answered and nothing will: a dark address, a
	// closed port, or a host flapped off the network. A true negative.
	Silent Verdict = iota
	// Open means something listens on the port: a Dial or Query for the same
	// (dst, attempt) reaches it.
	Open
	// Lost means the fault model dropped the probe or its reply, or delayed
	// it past the sender's patience. A retransmission draws again.
	Lost
)

// Sweep is the stateless liveness probe, ZMap's half of a scan: one SYN (or
// one datagram) from src to dst, and a verdict. No connection state is
// created, no host is assembled for the millions of addresses that do not
// answer, and nothing is sent to the service. The fault plan — a pure
// function of (dst, transport, attempt), so the grab that follows an Open
// verdict meets the same pathologies — and provider precedence are those of
// Dial (TCP) and QueryX (UDP).
func (n *Network) Sweep(src IPv4, dst Endpoint, transport Transport, opts ProbeOptions) Verdict {
	if fm := n.Faults(); fm != nil {
		plan := fm.PlanProbe(src, dst, transport, opts.Attempt, n.clock.Now())
		if plan.HostDown {
			return Silent
		}
		drop := plan.DropSYN
		if transport == UDP {
			drop = plan.DropDatagram
		}
		if opts.timedOut(plan, drop) {
			return Lost
		}
	}
	if n.state.Load().portOpen(dst.IP, transport, dst.Port) {
		return Open
	}
	return Silent
}

// SynProbe is the TCP sweep from a source port of the caller's choosing: it
// reports whether a host at dst accepts connections on the port. The fabric
// reads only the source address.
func (n *Network) SynProbe(src Endpoint, dst Endpoint, opts ProbeOptions) bool {
	return n.Sweep(src.IP, dst, TCP, opts) == Open
}

// ErrConnRefused is returned by Dial when the destination host exists but
// does not listen on the requested port (the TCP RST case).
var ErrConnRefused = errors.New("netsim: connection refused")

// ErrHostUnreachable is returned by Dial and Query when no host exists at the
// destination address (darknet space).
var ErrHostUnreachable = errors.New("netsim: host unreachable")

// ErrProbeTimeout is returned by Dial when the network's fault model drops
// the SYN, the host is rate-limiting the source, or the simulated round-trip
// exceeds the sender's ProbeOptions.Timeout. Unlike ErrConnRefused and
// ErrHostUnreachable it is a *transient* verdict: retransmitting with a
// higher ProbeOptions.Attempt draws fresh loss and jitter and may succeed.
var ErrProbeTimeout = errors.New("netsim: probe timed out")

// Dial establishes a TCP-like connection from src to dst. The conversation
// runs on the discrete-event engine: the destination service's Stepper
// executes inline, resumed on this goroutine after the dial and after every
// client write or close, so a dial starts no goroutine and allocates no
// channel. The client reads and writes the returned stream; a read that
// finds nothing buffered returns ErrWouldBlock at once. Closing it runs the
// server to its end, which Stats.Finished counts: once every dialed
// connection is closed, Finished equals DialsOK.
func (n *Network) Dial(src IPv4, dst Endpoint, opts ProbeOptions) (*ServiceConn, error) {
	n.stats.Dials.Add(1)
	now := n.clock.Now()
	srcEP := Endpoint{IP: src, Port: ephemeralPort(src, dst)}
	var plan FaultPlan
	if fm := n.Faults(); fm != nil {
		plan = fm.PlanProbe(src, dst, TCP, opts.Attempt, now)
		if plan.HostDown {
			n.stats.Unreachable.Add(1)
			return nil, ErrHostUnreachable
		}
		if opts.timedOut(plan, plan.DropSYN) {
			n.stats.Dropped.Add(1)
			return nil, ErrProbeTimeout
		}
	}
	h := n.lookupHost(dst.IP)
	if h == nil {
		n.stats.Unreachable.Add(1)
		return nil, ErrHostUnreachable
	}
	handler := h.StreamService(dst.Port)
	if handler == nil {
		n.stats.Refused.Add(1)
		return nil, ErrConnRefused
	}
	n.stats.DialsOK.Add(1)

	cv := convPool.Get().(*conv)
	cv.n = n
	if plan.ResetAfter > 0 {
		cv.fault.active, cv.fault.reset, cv.fault.remaining = true, true, plan.ResetAfter
	} else if plan.TruncateAfter > 0 {
		cv.fault.active, cv.fault.remaining = true, plan.TruncateAfter
	}

	pair := &convPair{}
	client, server := &pair.client, &pair.server
	client.convConn = convConn{cv: cv, gen: cv.gen, client: true, remote: dst}
	server.convConn = convConn{cv: cv, gen: cv.gen, remote: srcEP}
	client.DialTime, client.RTT = now, plan.Latency
	server.DialTime, server.RTT = now, plan.Latency
	cv.clientSC = client

	cv.party.start(handler.NewStepper(), server)
	// Run the server's opening burst (negotiation, banner, first prompt) so
	// the client's first read finds it buffered.
	cv.runServer()
	return client, nil
}

// Converse dials one conversation with s as its server, on a fabric that
// holds nothing but server: the dial is Network.Dial, so s runs on the
// engine exactly as a deployed service does. It is the fixture for tests
// that drive one protocol session through a real client; closing the
// returned connection runs s to completion.
func Converse(s Stepper, client IPv4, server Endpoint, dialTime time.Time) *ServiceConn {
	n := NewNetwork(NewSimClock(dialTime))
	n.AddProvider(NewPrefix(server.IP, 32), HostProviderFunc(func(IPv4) Host {
		return stepperHost{port: server.Port, s: s}
	}))
	conn, err := n.Dial(client, server, ProbeOptions{})
	if err != nil {
		panic(err) // unreachable: the one host is there and listens
	}
	return conn
}

// stepperHost listens on one TCP port and serves its one Stepper there.
type stepperHost struct {
	port uint16
	s    Stepper
}

func (h stepperHost) StreamService(port uint16) StreamHandler {
	if port != h.port {
		return nil
	}
	return h
}

func (h stepperHost) NewStepper() Stepper                  { return h.s }
func (stepperHost) DatagramService(uint16) DatagramHandler { return nil }

// QueryOutcome explains a silent Query. A real scanner can distinguish a
// closed port (ICMP port unreachable) from plain silence; the simulation
// additionally separates a service that ignored the probe from a datagram
// the fault model lost, because only the latter is worth retransmitting —
// stateless services answer a retransmit exactly as they answered the
// original.
type QueryOutcome uint8

// Query outcomes.
const (
	QueryAnswered QueryOutcome = iota // response returned
	QueryDark                         // no host at the address
	QueryClosed                       // host up, nothing listens on the port
	QueryIgnored                      // service saw the datagram, chose silence
	QueryDropped                      // lost to the fault model; retransmit may recover
)

// Query sends a UDP datagram from src to dst and returns the response, or
// nil if the destination does not answer (dark address, closed port, or the
// service dropped the probe).
func (n *Network) Query(src IPv4, dst Endpoint, payload []byte, opts ProbeOptions) []byte {
	resp, _ := n.QueryX(src, dst, payload, opts)
	return resp
}

// QueryX is Query plus the reason no response came back.
func (n *Network) QueryX(src IPv4, dst Endpoint, payload []byte, opts ProbeOptions) ([]byte, QueryOutcome) {
	n.stats.Datagrams.Add(1)
	now := n.clock.Now()
	srcEP := Endpoint{IP: src, Port: ephemeralPort(src, dst)}
	if fm := n.Faults(); fm != nil {
		plan := fm.PlanProbe(src, dst, UDP, opts.Attempt, now)
		if plan.HostDown {
			return nil, QueryDark
		}
		if opts.timedOut(plan, plan.DropDatagram) {
			n.stats.Dropped.Add(1)
			return nil, QueryDropped
		}
	}
	h := n.lookupHost(dst.IP)
	if h == nil {
		return nil, QueryDark
	}
	handler := h.DatagramService(dst.Port)
	if handler == nil {
		return nil, QueryClosed
	}
	resp := handler.HandleDatagram(srcEP, payload)
	if resp == nil {
		return nil, QueryIgnored
	}
	n.stats.Responses.Add(1)
	return resp, QueryAnswered
}

// ephemeralPort derives a stable pseudo-ephemeral source port for a flow, so
// the remote endpoint a service sees is realistic and consistent per flow.
func ephemeralPort(src IPv4, dst Endpoint) uint16 {
	h := uint32(src) * 2654435761
	h ^= uint32(dst.IP) * 2246822519
	h ^= uint32(dst.Port) * 3266489917
	h = (h >> 16) ^ h
	return uint16(32768 + h%28232) // IANA ephemeral range 32768..60999
}
