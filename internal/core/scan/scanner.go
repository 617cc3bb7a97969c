package scan

import (
	"context"
	"errors"
	"time"

	"openhire/internal/iot"
	"openhire/internal/netsim"
	"openhire/internal/prng"
)

// Result is one responsive host observed by the scan: the raw banner or UDP
// response plus protocol-specific metadata, stored for classification
// exactly as the paper stores ZGrab output in its database (Section 3.1.1).
type Result struct {
	Time      time.Time
	IP        netsim.IPv4
	Port      uint16
	Protocol  iot.Protocol
	Transport netsim.Transport
	// Banner is the raw application-layer bytes for TCP protocols.
	Banner []byte
	// Response is the raw datagram for UDP protocols.
	Response []byte
	// Meta carries parsed fields ("mqtt.code", "amqp.version",
	// "xmpp.mechanisms", "upnp.server", ...).
	Meta map[string]string
}

// Outcome classifies one probe attempt. Separating the transient failures
// (timeouts, resets, partial banners) from true negatives is what lets the
// misconfiguration pipeline degrade gracefully on a lossy network: a lost
// probe is retransmitted and an unclassifiable host is counted as such,
// instead of both silently deflating the exposure numbers.
type Outcome uint8

// Probe outcomes.
const (
	// OutcomeNone is a true negative: dark address, closed port, or a
	// conversation that cleanly ended without the protocol answering.
	OutcomeNone Outcome = iota
	// OutcomeOK means the endpoint responded; the Result is valid.
	OutcomeOK
	// OutcomeTimeout means the probe (or its reply) was lost or outlasted
	// the per-attempt deadline. Worth retransmitting.
	OutcomeTimeout
	// OutcomeReset means the conversation was torn down mid-stream (RST).
	OutcomeReset
	// OutcomePartial means a tarpit delivered only a banner prefix: the
	// host is responsive but unclassifiable from what arrived.
	OutcomePartial
)

// ProbeSpec carries the per-attempt parameters a module forwards into
// netsim.ProbeOptions: which retransmission this is, and how much simulated
// patience the scanner has per attempt.
type ProbeSpec struct {
	Attempt uint32
	Timeout time.Duration
}

// Options converts the spec to transport options.
func (s ProbeSpec) Options() netsim.ProbeOptions {
	return netsim.ProbeOptions{Attempt: s.Attempt, Timeout: s.Timeout}
}

// DialOutcome maps a Dial error to the scanner's outcome taxonomy.
func DialOutcome(err error) Outcome {
	if errors.Is(err, netsim.ErrProbeTimeout) {
		return OutcomeTimeout
	}
	return OutcomeNone // refused or unreachable: a true negative
}

// ConnOutcome inspects a finished conversation for injected stream
// pathologies: fault resets and tarpit truncations outrank whatever the
// protocol parser made of the bytes.
func ConnOutcome(conn *netsim.ServiceConn) (Outcome, bool) {
	switch {
	case conn.FaultReset():
		return OutcomeReset, true
	case conn.FaultTruncated():
		return OutcomePartial, true
	default:
		return OutcomeNone, false
	}
}

// ProbeModule is one protocol's grab — the ZGrab half of the scan. The
// scanner sweeps every target statelessly itself (netsim.Network.Sweep, over
// the transport of Protocol()) and hands a module only the endpoints that
// answered. Implementations are stateless and safe for concurrent use.
type ProbeModule interface {
	// Protocol identifies the module.
	Protocol() iot.Protocol
	// Ports lists the ports to probe, in order.
	Ports() []uint16
	// Probe grabs one responsive endpoint once and classifies the attempt. A
	// non-nil Result is returned only with OutcomeOK. Retransmission is the
	// scanner's job: modules must not loop internally.
	Probe(ctx context.Context, net *netsim.Network, src netsim.IPv4, dst netsim.Endpoint, spec ProbeSpec) (*Result, Outcome)
}

// Config configures a scan run.
type Config struct {
	// Network is the fabric to scan.
	Network *netsim.Network
	// Source is the scanning host's address (the paper used a fixed
	// university address so targets could identify the research scan).
	Source netsim.IPv4
	// Prefix is the range to scan.
	Prefix netsim.Prefix
	// Seed drives the address permutation.
	Seed uint64
	// Blocklist excludes ranges (nil = DefaultBlocklist ∪ EuropeBlocklist).
	Blocklist *netsim.PrefixSet
	// Workers is the probe concurrency (0 = 64).
	Workers int

	// The robustness knobs below only engage when the network has a fault
	// model installed (Network.Faults() != nil). On a perfect fabric every
	// target is probed exactly once, preserving the zero-fault byte-identity
	// guarantee.

	// MaxAttempts bounds transmissions per target, ZMap-style (0 = 3).
	MaxAttempts int
	// ProbeTimeout is the per-attempt patience in simulated time (0 = 500ms):
	// a path slower than this counts as a timeout and is retransmitted.
	ProbeTimeout time.Duration
	// TargetBudget caps one target's total simulated spend across attempts,
	// waits and backoffs (0 = 4s); the retry loop stops when exceeded.
	TargetBudget time.Duration
	// BreakerThreshold is the circuit breaker's trip count: after this many
	// admin-prohibited targets inside one /24, the rest of that prefix is
	// skipped (0 = 8).
	BreakerThreshold int

	// Progress, when set, is called from the feed goroutine once per target
	// batch with the number of (address, port) pairs just enqueued, so live
	// progress advances inside a module and inside a segment. It runs
	// outside the probe hot path (one call per targetBatchSize targets at
	// most) and must not block; leaving it nil — the default — keeps the feed
	// loop exactly as fast and the scan byte-identical to an unobserved run.
	Progress func(targets uint64)

	// OnProbe, when set, receives one ProbeEvent per lifecycle moment of
	// every probed target: transmission, outcome, retransmit scheduling,
	// abandonment, and feed-side breaker skips. It is called from worker
	// goroutines (and from the single-threaded feed for breaker skips), so
	// implementations must be safe for concurrent use and must not block.
	// The hook only reads values the loop has already computed — outcomes
	// and backoff delays are pure functions of (seed, target, attempt) — so
	// a hooked run produces byte-identical results and stats to a bare one;
	// nil (the default) keeps the loop exactly as before the hook existed.
	OnProbe func(ProbeEvent)

	// OnSegment, when set, is called by Run once per fully probed segment —
	// on the calling goroutine, before onCommit — with the module's protocol,
	// the number of (address, port) targets the segment fed, and the
	// segment's results sorted by (IP, Port). The slice is
	// freshly sorted and not retained by the scanner, but its *Result
	// entries are shared with the accumulated state, so implementations
	// must treat them as read-only. Scheduling order inside a segment is
	// worker-count dependent; the sort makes the hook's view a pure
	// function of (seed, config, segment index), which is what lets the
	// serve daemon fold segments into aggregates without breaking
	// byte-identity across worker counts.
	OnSegment func(proto iot.Protocol, targets int, results []*Result)
}

// ProbeEventKind names one lifecycle moment in a target's retransmit loop.
type ProbeEventKind uint8

// Probe lifecycle events, in the order one target can emit them.
const (
	// ProbeSent marks a transmission leaving the scanner (Attempt is the
	// retransmission ordinal, 0 for the first transmission).
	ProbeSent ProbeEventKind = iota
	// ProbeAnswered marks an OutcomeOK conversation: a Result was emitted.
	ProbeAnswered
	// ProbeTimedOut marks an attempt lost or outlasting the per-attempt
	// patience (Sim carries ProbeTimeout).
	ProbeTimedOut
	// ProbeReset marks a conversation torn down mid-stream.
	ProbeReset
	// ProbePartial marks a tarpitted conversation: banner prefix only.
	ProbePartial
	// ProbeNegative marks a true negative: dark address, closed port, or a
	// clean no-answer conversation.
	ProbeNegative
	// ProbeRetransmit marks a follow-up transmission being scheduled after
	// the timed-out Attempt (Sim carries the backoff delay before it).
	ProbeRetransmit
	// ProbeAbandoned marks the retry loop giving up — attempt cap, target
	// budget, or cancellation (Sim carries the target's total simulated
	// spend).
	ProbeAbandoned
	// ProbeBreakerSkip marks the feed dropping a whole address inside a
	// circuit-broken /24 (Port is 0: the decision is per-address).
	ProbeBreakerSkip
)

// ProbeEvent is one lifecycle event delivered to Config.OnProbe.
type ProbeEvent struct {
	Kind     ProbeEventKind
	Protocol iot.Protocol
	IP       netsim.IPv4
	Port     uint16
	Attempt  uint32
	// Sim is the simulated duration attached to the event where one exists:
	// the per-attempt patience for timeouts, the backoff delay for
	// retransmits, the target's cumulative spend for abandons.
	Sim time.Duration
}

// Stats summarizes one protocol scan. Probed counts transmissions (like
// ZMap's sent-packet counter), so retransmits show up in it; the transient
// failure classes are broken out so lost probes are never silently folded
// into the true negatives.
type Stats struct {
	Probed uint64
	// Blocked counts addresses the blocklist excluded from this scan's
	// permutation walk (addresses, not address×port targets: a blocklisted
	// address is dropped before ports fan out).
	Blocked   uint64
	Responded uint64
	// Timeouts counts attempts lost to drops, rate limiting or latency
	// beyond the per-attempt deadline.
	Timeouts uint64
	// Resets counts conversations torn down mid-stream.
	Resets uint64
	// Partials counts tarpitted conversations that yielded only a banner
	// prefix: responsive hosts the classifier cannot type.
	Partials uint64
	// Negatives counts true-negative attempts: dark addresses, closed ports,
	// or conversations that cleanly ended without the protocol answering.
	// Every transmission lands in exactly one of Responded, Timeouts,
	// Resets, Partials or Negatives, so Probed is their sum — the
	// conservation law the accounting tests pin.
	Negatives uint64
	// Retransmits counts follow-up transmissions after a timeout.
	Retransmits uint64
	// BreakerSkipped counts targets skipped inside circuit-broken prefixes
	// (in address×port units, like Probed).
	BreakerSkipped uint64
	Elapsed        time.Duration
}

// Counters flattens the deterministic stat fields into a named map for the
// metrics registry and run manifest (Elapsed is wall-clock and excluded).
func (st Stats) Counters() map[string]uint64 {
	m := make(map[string]uint64, len(counterNames))
	for i, v := range st.counters() {
		m[counterNames[i]] = *v
	}
	return m
}

// counterNames name the deterministic stat fields, in counters order.
var counterNames = [...]string{"probed", "blocked", "responded", "timeouts", "resets",
	"partials", "negatives", "retransmits", "breaker_skipped"}

// counters lists the deterministic stat fields: everything but Elapsed.
func (st *Stats) counters() [len(counterNames)]*uint64 {
	return [...]*uint64{&st.Probed, &st.Blocked, &st.Responded, &st.Timeouts, &st.Resets,
		&st.Partials, &st.Negatives, &st.Retransmits, &st.BreakerSkipped}
}

// add accumulates o's counters into st. Blocked is included, so callers
// that track it from an iterator cursor assign it after adding; Elapsed is
// wall-clock and left alone.
func (st *Stats) add(o Stats) {
	theirs := o.counters()
	for i, v := range st.counters() {
		*v += *theirs[i]
	}
}

// Scanner runs probe modules over a prefix.
type Scanner struct {
	cfg  Config
	root *prng.Source // hash root for backoff jitter; never advanced
}

// NewScanner validates cfg and builds a Scanner.
func NewScanner(cfg Config) *Scanner {
	if cfg.Workers == 0 {
		cfg.Workers = 64
	}
	if cfg.Blocklist == nil {
		cfg.Blocklist = CombinedBlocklist(DefaultBlocklist(), EuropeBlocklist())
	}
	if cfg.MaxAttempts < 1 {
		cfg.MaxAttempts = 3
	}
	if cfg.ProbeTimeout <= 0 {
		cfg.ProbeTimeout = 500 * time.Millisecond
	}
	if cfg.TargetBudget <= 0 {
		cfg.TargetBudget = 4 * time.Second
	}
	if cfg.BreakerThreshold < 1 {
		cfg.BreakerThreshold = 8
	}
	return &Scanner{cfg: cfg, root: prng.New(cfg.Seed)}
}

// target is one (address, port) probe assignment.
type target struct {
	ip   netsim.IPv4
	port uint16
}

// workerShard is one worker's private counters and results for the segment
// in flight, folded into the segment after the barrier. Padded past a cache
// line so adjacent shards never false-share.
type workerShard struct {
	stats   Stats
	results []*Result
	_       [64]byte
}

// probeTarget drives one target through the paper's two phases and the
// retransmit loop around them. Every transmission is a stateless sweep; only
// an open verdict reaches the module's grab, a silent one is a negative that
// cost a couple of hashes, and a lost one — like a grab that timed out —
// backs off (in simulated time) and transmits again until the attempt cap or
// the target's time budget is exhausted. The budget is virtual — per-attempt
// timeouts and backoff delays are *counted*, never slept — so a lossy fabric
// costs bookkeeping, not wall-clock.
//
// Probed counts sweeps, as ZMap's sent counter does: the grab of a responder
// is not a second transmission. The fault plan is a pure function of (target,
// attempt), so the grab's dial re-draws the plan its sweep saw and resets and
// tarpits land in the grab.
func (s *Scanner) probeTarget(ctx context.Context, module ProbeModule, transport netsim.Transport,
	t target, shard *workerShard, maxAttempts int) {
	dst := netsim.Endpoint{IP: t.ip, Port: t.port}
	spec := ProbeSpec{Timeout: s.cfg.ProbeTimeout}
	var spent time.Duration
	trace := s.cfg.OnProbe
	var proto iot.Protocol
	if trace != nil {
		proto = module.Protocol()
	}
	event := func(kind ProbeEventKind, sim time.Duration) {
		trace(ProbeEvent{Kind: kind, Protocol: proto, IP: t.ip, Port: t.port,
			Attempt: spec.Attempt, Sim: sim})
	}
	for {
		if trace != nil {
			event(ProbeSent, 0)
		}
		var res *Result
		out := OutcomeNone
		switch s.cfg.Network.Sweep(s.cfg.Source, dst, transport, spec.Options()) {
		case netsim.Open:
			res, out = module.Probe(ctx, s.cfg.Network, s.cfg.Source, dst, spec)
		case netsim.Lost:
			out = OutcomeTimeout
		}
		shard.stats.Probed++
		switch out {
		case OutcomeOK:
			shard.stats.Responded++
			shard.results = append(shard.results, res)
			if trace != nil {
				event(ProbeAnswered, 0)
			}
			return
		case OutcomeReset:
			shard.stats.Resets++
			if trace != nil {
				event(ProbeReset, 0)
			}
			return
		case OutcomePartial:
			shard.stats.Partials++
			if trace != nil {
				event(ProbePartial, 0)
			}
			return
		case OutcomeTimeout:
			shard.stats.Timeouts++
			backoff := s.backoffDelay(t.ip, t.port, spec.Attempt)
			spent += s.cfg.ProbeTimeout + backoff
			if trace != nil {
				event(ProbeTimedOut, s.cfg.ProbeTimeout)
			}
			if int(spec.Attempt)+1 >= maxAttempts || spent > s.cfg.TargetBudget || ctx.Err() != nil {
				if trace != nil {
					event(ProbeAbandoned, spent)
				}
				return
			}
			shard.stats.Retransmits++
			if trace != nil {
				event(ProbeRetransmit, backoff)
			}
			spec.Attempt++
		default:
			shard.stats.Negatives++
			if trace != nil {
				event(ProbeNegative, 0)
			}
			return
		}
	}
}

// backoffLabel is the hash domain for retransmit jitter, disjoint from every
// other derived-stream label in the repo.
const backoffLabel = 0xb0ff

// retransmitBase seeds the exponential backoff between attempts (simulated
// time); retransmitCap bounds it.
const (
	retransmitBase = 100 * time.Millisecond
	retransmitCap  = 1600 * time.Millisecond
)

// backoffShiftMax caps the exponent in the backoff schedule. Even a 1ns base
// doubles past any sane cap within 32 attempts, so saturating the
// shift there loses nothing — and without a clamp, `base << attempt` wraps
// int64 once attempt reaches the high 30s: a wrapped-but-positive value below
// cap slipped through the old `d <= 0 || d > cap` guard and produced a
// non-monotone schedule for large -max-attempts.
const backoffShiftMax = 32

// backoffBase is the un-jittered delay before the retransmission that
// follows attempt: exponential in the attempt number, saturating at cap. The
// overflow-proof form compares base against cap>>attempt (right shifts never
// wrap), so the left shift is only evaluated when its result provably fits.
func backoffBase(base, cap time.Duration, attempt uint32) time.Duration {
	if attempt >= backoffShiftMax || base > cap>>attempt {
		return cap
	}
	return base << attempt
}

// backoffDelay is the simulated pause before the retransmission that follows
// attempt: exponential in the attempt number, capped, with jitter in
// [0, delay/2] drawn from the stream derived from (seed, ip, port, attempt).
// It is a pure function, so the schedule for any target is identical across
// runs and worker counts.
func (s *Scanner) backoffDelay(ip netsim.IPv4, port uint16, attempt uint32) time.Duration {
	d := backoffBase(retransmitBase, retransmitCap, attempt)
	jitter := time.Duration(s.root.Hash64(backoffLabel, uint64(ip), uint64(port), uint64(attempt)) % uint64(d/2+1))
	return d + jitter
}

// prefixBreaker is the scanner's circuit breaker for persistently dead
// prefixes. Operators who blackhole scan traffic do it for whole prefixes,
// so after BreakerThreshold addresses inside one /24 have hit the fault
// model's blackhole oracle, the rest of that /24 is skipped — the paper's
// graceful-degradation requirement without unbounded waiting. Only consulted
// from the single-threaded feed, in permutation order, so the set of skipped
// targets is a pure function of (seed, config) and independent of worker
// count; not safe for concurrent use.
type prefixBreaker struct {
	model     netsim.FaultModel
	src       netsim.IPv4
	threshold int
	hits      map[uint32]int // /24 prefix -> blackholed addresses fed so far
}

// skip reports whether ip should be dropped from the feed. The first
// threshold blackholed addresses in a /24 are still fed (the scanner has to
// burn timeouts on them to "learn" the prefix is dead, exactly like a real
// scan would); every later address in that /24 is skipped.
func (b *prefixBreaker) skip(ip netsim.IPv4) bool {
	if !b.model.Blackholed(b.src, ip) {
		return false
	}
	p24 := uint32(ip) >> 8
	if b.hits[p24] >= b.threshold {
		return true
	}
	b.hits[p24]++
	return false
}
