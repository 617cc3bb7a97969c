package mqtt

import (
	"slices"
	"strings"
	"sync"
	"time"

	"openhire/internal/netsim"
)

// EventKind classifies broker-side observations used by honeypot logging.
type EventKind uint8

// Broker event kinds.
const (
	EventConnect EventKind = iota
	EventSubscribe
	EventPublish
	EventSysAccess // subscription touching $SYS topics
)

// Event is one broker-side observation.
type Event struct {
	Time     time.Time
	Kind     EventKind
	Remote   netsim.IPv4
	ClientID string
	Username string
	Password string
	Code     ConnackCode
	Topic    string
	Payload  []byte
}

// BrokerConfig configures authentication and identity of a broker.
type BrokerConfig struct {
	// RequireAuth makes the broker reject CONNECT without credentials with
	// return code 5, and wrong credentials with code 4. The paper's
	// misconfigured brokers have this unset: CONNECT → code 0.
	RequireAuth bool
	// Username and Password are the one account a RequireAuth broker
	// admits: a device has exactly one. An empty Username admits no one.
	Username string
	Password string
	// Version is exposed at $SYS/broker/version.
	Version string
	// OnEvent, when non-nil, receives observations.
	OnEvent func(Event)
	// MaxPublishesPerConn guards against floods (0 = unlimited). Exceeding
	// it closes the session; honeypot profiles keep it unlimited so DoS
	// attacks are observable.
	MaxPublishesPerConn int
}

// Broker is an in-memory MQTT 3.1.1 broker.
type Broker struct {
	cfg BrokerConfig

	mu sync.Mutex
	// retained is the retained-message set, sorted by topic. A published
	// slice is never written again: a change builds a new one, so a
	// subscriber iterates its snapshot unlocked and Clone shares it.
	retained []retainedMsg
	// subs are the sessions registered from CONNACK acceptance until
	// session end, in registration order.
	subs []*session
}

// retainedMsg is one retained message.
type retainedMsg struct {
	topic   string
	payload []byte
}

// NewBroker returns a broker with a $SYS tree prepopulated the way a
// default Mosquitto-style install exposes it.
func NewBroker(cfg BrokerConfig) *Broker {
	if cfg.Version == "" {
		cfg.Version = "mosquitto version 1.6.9"
	}
	return &Broker{cfg: cfg, retained: []retainedMsg{ // sorted by topic
		{"$SYS/broker/clients/total", []byte("3")},
		{"$SYS/broker/uptime", []byte("86400 seconds")},
		{"$SYS/broker/version", []byte(cfg.Version)},
	}}
}

// Clone returns a broker for cfg that holds b's retained messages and no
// session: the broker NewBroker and the Retain calls that seeded b would
// build, for cfg (whose Version is not consulted: $SYS/broker/version is
// b's). The two share the retained set until either changes it, so a
// clone is one allocation however many messages it starts with. A device,
// rebuilt for every dial, is a clone of its model's broker.
func (b *Broker) Clone(cfg BrokerConfig) *Broker {
	b.mu.Lock()
	defer b.mu.Unlock()
	return &Broker{cfg: cfg, retained: b.retained}
}

// Retain stores a retained message, pre-seeding device topics
// ("homeassistant/light/...", "octoPrint/temperature/bed", Table 11).
func (b *Broker) Retain(topic string, payload []byte) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.setRetained(topic, append([]byte(nil), payload...), false)
}

// setRetained stores payload under topic, or with drop removes the topic,
// into a new slice (the old one may be shared). Called with b.mu held.
func (b *Broker) setRetained(topic string, payload []byte, drop bool) {
	i, found := slices.BinarySearchFunc(b.retained, topic, func(m retainedMsg, t string) int {
		return strings.Compare(m.topic, t)
	})
	switch {
	case drop && !found:
	case drop:
		b.retained = slices.Concat(b.retained[:i], b.retained[i+1:])
	case found:
		b.retained = slices.Clone(b.retained)
		b.retained[i].payload = payload
	default:
		b.retained = slices.Concat(b.retained[:i], []retainedMsg{{topic, payload}}, b.retained[i:])
	}
}

// RetainedValue returns the current retained payload for a topic.
func (b *Broker) RetainedValue(topic string) ([]byte, bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	for _, m := range b.retained {
		if m.topic == topic {
			return append([]byte(nil), m.payload...), true
		}
	}
	return nil, false
}

// session is one connected client.
type session struct {
	conn    *netsim.ServiceConn
	remote  netsim.IPv4
	filters []string // guarded by the broker's mu

	wmu  sync.Mutex
	wbuf []byte // encode buffer, reused by every send
}

func (s *session) send(p *Packet) error {
	s.wmu.Lock()
	defer s.wmu.Unlock()
	s.wbuf = p.appendTo(s.wbuf[:0])
	_, err := s.conn.Write(s.wbuf)
	return err
}

func (b *Broker) emit(ev Event) {
	if b.cfg.OnEvent != nil {
		b.cfg.OnEvent(ev)
	}
}

// NewStepper implements netsim.StreamHandler: a fresh per-session state
// machine for the conversation engine.
func (b *Broker) NewStepper() netsim.Stepper { return &brokerStepper{b: b} }

// brokerStepper is one MQTT session as a resumable state machine: the
// broker's packet dispatch over framePacket. Session registration and
// deregistration happen at the same points the classic blocking loop hit
// them, so cross-session fanout sees an identical subscriber set.
type brokerStepper struct {
	b         *Broker
	s         session
	connected bool // CONNECT accepted and session registered in b.subs
	publishes int
}

// Step implements netsim.Stepper. A framing or decode error, a packet that
// ends the session and EvEOF / EvBroken all land in finish, where a
// blocking ReadPacket loop would have returned.
func (t *brokerStepper) Step(c *netsim.ServerConv, ev netsim.ConvEvent) netsim.StepVerdict {
	switch ev {
	case netsim.EvOpen:
		t.s.conn, t.s.remote = c.Conn(), c.RemoteIP()
		return netsim.StepMore
	case netsim.EvData:
		if v, _ := netsim.Frames(c, framePacket, t.handlePacket); v == netsim.StepMore {
			return v
		}
	}
	return t.finish()
}

// handlePacket dispatches one decoded packet exactly as the blocking session
// loop did.
func (t *brokerStepper) handlePacket(c *netsim.ServerConv, p Packet) netsim.StepVerdict {
	b, s, pkt := t.b, &t.s, &p
	if !t.connected {
		if pkt.Type != CONNECT {
			return netsim.StepDone
		}
		code := b.authenticate(pkt)
		b.emit(Event{
			Time: c.DialTime(), Kind: EventConnect, Remote: s.remote,
			ClientID: pkt.ClientID, Username: pkt.Username, Password: pkt.Password,
			Code: code,
		})
		if err := s.send(&Packet{Type: CONNACK, ReturnCode: code}); err != nil {
			return netsim.StepDone
		}
		if code != ConnAccepted {
			return netsim.StepDone
		}
		b.mu.Lock()
		b.subs = append(b.subs, s)
		b.mu.Unlock()
		t.connected = true
		return netsim.StepMore
	}
	switch pkt.Type {
	case SUBSCRIBE:
		b.handleSubscribe(s, pkt, c.DialTime())
	case UNSUBSCRIBE:
		b.mu.Lock()
		s.filters = slices.DeleteFunc(s.filters, func(f string) bool {
			return slices.Contains(pkt.TopicFilter, f)
		})
		b.mu.Unlock()
		_ = s.send(&Packet{Type: UNSUBACK, PacketID: pkt.PacketID})
	case PUBLISH:
		t.publishes++
		if b.cfg.MaxPublishesPerConn > 0 && t.publishes > b.cfg.MaxPublishesPerConn {
			return netsim.StepDone
		}
		b.handlePublish(s, pkt, c.DialTime())
	case PINGREQ:
		_ = s.send(&Packet{Type: PINGRESP})
	case DISCONNECT:
		return netsim.StepDone
	default:
		return netsim.StepDone // protocol violation
	}
	return netsim.StepMore
}

// finish deregisters the session (the blocking loop's deferred cleanup) and
// ends the conversation. Fanout from other sessions observes the same
// subscriber set transitions as before: registered from CONNACK acceptance
// until session end.
func (t *brokerStepper) finish() netsim.StepVerdict {
	if t.connected {
		t.b.mu.Lock()
		if i := slices.Index(t.b.subs, &t.s); i >= 0 {
			t.b.subs = slices.Delete(t.b.subs, i, i+1)
		}
		t.b.mu.Unlock()
		t.connected = false
	}
	return netsim.StepDone
}

func (b *Broker) authenticate(pkt *Packet) ConnackCode {
	if !b.cfg.RequireAuth {
		return ConnAccepted
	}
	if !pkt.HasAuth {
		return ConnNotAuthorized
	}
	if b.cfg.Username != "" && pkt.Username == b.cfg.Username && pkt.Password == b.cfg.Password {
		return ConnAccepted
	}
	return ConnBadCredentials
}

// handleSubscribe registers the filters, acknowledges them, and delivers
// every retained message a filter matches — in topic order, once per
// matching filter.
func (b *Broker) handleSubscribe(s *session, pkt *Packet, now time.Time) {
	b.mu.Lock()
	for _, f := range pkt.TopicFilter {
		if !slices.Contains(s.filters, f) {
			s.filters = append(s.filters, f)
		}
	}
	retained := b.retained
	b.mu.Unlock()

	kind := EventSubscribe
	for _, f := range pkt.TopicFilter {
		if strings.HasPrefix(f, "$SYS") || f == "#" {
			kind = EventSysAccess
		}
		b.emit(Event{Time: now, Kind: kind, Remote: s.remote, Topic: f})
		kind = EventSubscribe
	}
	_ = s.send(&Packet{Type: SUBACK, PacketID: pkt.PacketID, GrantedQoS: qos0Codes(len(pkt.TopicFilter))})
	for _, m := range retained {
		for _, f := range pkt.TopicFilter {
			if TopicMatches(f, m.topic) {
				_ = s.send(&Packet{Type: PUBLISH, Topic: m.topic, Retain: true, Payload: m.payload})
			}
		}
	}
}

// qos0Codes is n QoS codes of 0: a SUBSCRIBE's requested levels or a
// SUBACK's granted ones, for n filters.
func qos0Codes(n int) []byte {
	if n <= len(qos0) {
		return qos0[:n]
	}
	return make([]byte, n)
}

// qos0 is read-only: packets encode from it.
var qos0 [16]byte

func (b *Broker) handlePublish(s *session, pkt *Packet, now time.Time) {
	b.emit(Event{
		Time: now, Kind: EventPublish, Remote: s.remote,
		Topic: pkt.Topic, Payload: append([]byte(nil), pkt.Payload...),
	})
	if pkt.Retain {
		b.mu.Lock()
		b.setRetained(pkt.Topic, append([]byte(nil), pkt.Payload...), len(pkt.Payload) == 0)
		b.mu.Unlock()
	}
	if pkt.QoS > 0 {
		_ = s.send(&Packet{Type: PUBACK, PacketID: pkt.PacketID})
	}
	// Fan out to live subscribers.
	b.mu.Lock()
	var targets []*session
	for _, sess := range b.subs {
		if sess == s {
			continue
		}
		for _, f := range sess.filters {
			if TopicMatches(f, pkt.Topic) {
				targets = append(targets, sess)
				break
			}
		}
	}
	b.mu.Unlock()
	for _, t := range targets {
		_ = t.send(&Packet{Type: PUBLISH, Topic: pkt.Topic, Payload: pkt.Payload})
	}
}
