package mqtt

import (
	"sort"
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
	// Credentials maps username → password when RequireAuth is set.
	Credentials map[string]string
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

	mu       sync.Mutex
	retained map[string][]byte
	subs     map[*session]map[string]bool
}

// NewBroker returns a broker with a $SYS tree prepopulated the way a
// default Mosquitto-style install exposes it.
func NewBroker(cfg BrokerConfig) *Broker {
	if cfg.Version == "" {
		cfg.Version = "mosquitto version 1.6.9"
	}
	b := &Broker{
		cfg:      cfg,
		retained: make(map[string][]byte),
		subs:     make(map[*session]map[string]bool),
	}
	b.retained["$SYS/broker/version"] = []byte(cfg.Version)
	b.retained["$SYS/broker/uptime"] = []byte("86400 seconds")
	b.retained["$SYS/broker/clients/total"] = []byte("3")
	return b
}

// Retain stores a retained message, pre-seeding device topics
// ("homeassistant/light/...", "octoPrint/temperature/bed", Table 11).
func (b *Broker) Retain(topic string, payload []byte) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.retained[topic] = append([]byte(nil), payload...)
}

// RetainedValue returns the current retained payload for a topic.
func (b *Broker) RetainedValue(topic string) ([]byte, bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	v, ok := b.retained[topic]
	if !ok {
		return nil, false
	}
	return append([]byte(nil), v...), true
}

// session is one connected client.
type session struct {
	conn   *netsim.ServiceConn
	remote netsim.IPv4
	wmu    sync.Mutex
}

func (s *session) send(p *Packet) error {
	s.wmu.Lock()
	defer s.wmu.Unlock()
	_, err := s.conn.Write(p.Encode())
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
// broker's packet dispatch over decodePacket. Session registration and
// deregistration happen at the same points the classic blocking loop hit
// them, so cross-session fanout sees an identical subscriber set.
type brokerStepper struct {
	b         *Broker
	s         *session
	connected bool // CONNECT accepted and session registered in b.subs
	publishes int
}

// Step implements netsim.Stepper. A framing or decode error, a packet that
// ends the session and EvEOF / EvBroken all land in finish, where a
// blocking ReadPacket loop would have returned.
func (t *brokerStepper) Step(c *netsim.ServerConv, ev netsim.ConvEvent) netsim.StepVerdict {
	switch ev {
	case netsim.EvOpen:
		t.s = &session{conn: c.Conn(), remote: c.RemoteIP()}
		return netsim.StepMore
	case netsim.EvData:
		if v, _ := netsim.Frames(c, decodePacket, t.handlePacket); v == netsim.StepMore {
			return v
		}
	}
	return t.finish()
}

// handlePacket dispatches one decoded packet exactly as the blocking session
// loop did.
func (t *brokerStepper) handlePacket(c *netsim.ServerConv, pkt *Packet) netsim.StepVerdict {
	b := t.b
	if !t.connected {
		if pkt.Type != CONNECT {
			return netsim.StepDone
		}
		code := b.authenticate(pkt)
		b.emit(Event{
			Time: c.DialTime(), Kind: EventConnect, Remote: t.s.remote,
			ClientID: pkt.ClientID, Username: pkt.Username, Password: pkt.Password,
			Code: code,
		})
		if err := t.s.send(&Packet{Type: CONNACK, ReturnCode: code}); err != nil {
			return netsim.StepDone
		}
		if code != ConnAccepted {
			return netsim.StepDone
		}
		b.mu.Lock()
		b.subs[t.s] = make(map[string]bool)
		b.mu.Unlock()
		t.connected = true
		return netsim.StepMore
	}
	switch pkt.Type {
	case SUBSCRIBE:
		b.handleSubscribe(t.s, pkt, c.DialTime())
	case UNSUBSCRIBE:
		b.mu.Lock()
		for _, f := range pkt.TopicFilter {
			delete(b.subs[t.s], f)
		}
		b.mu.Unlock()
		_ = t.s.send(&Packet{Type: UNSUBACK, PacketID: pkt.PacketID})
	case PUBLISH:
		t.publishes++
		if b.cfg.MaxPublishesPerConn > 0 && t.publishes > b.cfg.MaxPublishesPerConn {
			return netsim.StepDone
		}
		b.handlePublish(t.s, pkt, c.DialTime())
	case PINGREQ:
		_ = t.s.send(&Packet{Type: PINGRESP})
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
		delete(t.b.subs, t.s)
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
	if want, ok := b.cfg.Credentials[pkt.Username]; ok && want == pkt.Password {
		return ConnAccepted
	}
	return ConnBadCredentials
}

func (b *Broker) handleSubscribe(s *session, pkt *Packet, now time.Time) {
	granted := make([]byte, len(pkt.TopicFilter))
	var deliver []*Packet
	b.mu.Lock()
	for _, f := range pkt.TopicFilter {
		b.subs[s][f] = true
		for topic, payload := range b.retained {
			if TopicMatches(f, topic) {
				deliver = append(deliver, &Packet{
					Type: PUBLISH, Topic: topic, Retain: true,
					Payload: append([]byte(nil), payload...),
				})
			}
		}
	}
	b.mu.Unlock()
	sort.Slice(deliver, func(i, j int) bool { return deliver[i].Topic < deliver[j].Topic })

	kind := EventSubscribe
	for _, f := range pkt.TopicFilter {
		if strings.HasPrefix(f, "$SYS") || f == "#" {
			kind = EventSysAccess
		}
		b.emit(Event{Time: now, Kind: kind, Remote: s.remote, Topic: f})
		kind = EventSubscribe
	}
	_ = s.send(&Packet{Type: SUBACK, PacketID: pkt.PacketID, GrantedQoS: granted})
	for _, d := range deliver {
		_ = s.send(d)
	}
}

func (b *Broker) handlePublish(s *session, pkt *Packet, now time.Time) {
	b.emit(Event{
		Time: now, Kind: EventPublish, Remote: s.remote,
		Topic: pkt.Topic, Payload: append([]byte(nil), pkt.Payload...),
	})
	if pkt.Retain {
		b.mu.Lock()
		if len(pkt.Payload) == 0 {
			delete(b.retained, pkt.Topic)
		} else {
			b.retained[pkt.Topic] = append([]byte(nil), pkt.Payload...)
		}
		b.mu.Unlock()
	}
	if pkt.QoS > 0 {
		_ = s.send(&Packet{Type: PUBACK, PacketID: pkt.PacketID})
	}
	// Fan out to live subscribers.
	b.mu.Lock()
	var targets []*session
	for sess, filters := range b.subs {
		if sess == s {
			continue
		}
		for f := range filters {
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
