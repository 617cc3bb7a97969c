package xmpp

import (
	"bufio"
	"errors"
	"fmt"
	"strings"
	"time"

	"openhire/internal/netsim"
)

// EventKind classifies server-side observations.
type EventKind uint8

// Server event kinds.
const (
	EventStreamOpen EventKind = iota
	EventAuthAttempt
	EventStanza // post-auth stanza (IQ/message/presence)
)

// Event is one server observation; ThingPot-style honeypots log these.
type Event struct {
	Time      time.Time
	Kind      EventKind
	Remote    netsim.IPv4
	Mechanism string
	Username  string
	Password  string
	Success   bool
	Stanza    string
}

// ServerConfig configures the XMPP endpoint.
type ServerConfig struct {
	Features Features
	// Credentials maps username → password for PLAIN.
	Credentials map[string]string
	// AllowAnonymous admits ANONYMOUS binds — the Table 5 misconfiguration.
	AllowAnonymous bool
	// OnEvent, when non-nil, receives observations.
	OnEvent func(Event)
	// StanzaHandler, when non-nil, produces responses to post-auth stanzas.
	// The ThingPot Philips Hue profile implements light-state queries here.
	StanzaHandler func(stanza string) string
}

// Server implements netsim.StreamHandler for an XMPP endpoint.
type Server struct {
	cfg ServerConfig
}

// NewServer builds a Server.
func NewServer(cfg ServerConfig) *Server {
	if cfg.Features.Domain == "" {
		cfg.Features.Domain = "device.local"
	}
	if len(cfg.Features.Mechanisms) == 0 {
		cfg.Features.Mechanisms = []string{"PLAIN"}
	}
	return &Server{cfg: cfg}
}

func (s *Server) emit(ev Event) {
	if s.cfg.OnEvent != nil {
		s.cfg.OnEvent(ev)
	}
}

// NewStepper implements netsim.StreamHandler.
func (s *Server) NewStepper() netsim.Stepper { return &serverStepper{s: s} }

// serverStepper stages: the staged dialogue of an XMPP client session.
const (
	stStreamOpen uint8 = iota // awaiting the client's stream header
	stSASL                    // features sent, awaiting <auth>
	stStanzas                 // authenticated: IQ/message/presence stanzas
)

// Element terminators per stage. XMPP is a stream of XML fragments; exact
// parsing is unnecessary for the study.
var stageTerminators = [...][]string{
	stStreamOpen: {">"},
	stSASL:       {"</auth>", "/>"},
	stStanzas:    {"/>", "</iq>", "</message>", "</presence>", "</stream:stream>"},
}

// maxStanzas closes a session after this many post-auth stanzas.
const maxStanzas = 64

// serverStepper is one XMPP session: stream open → SASL → stanzas.
type serverStepper struct {
	s       *Server
	remote  netsim.IPv4
	state   uint8
	scanned int // input bytes already known not to end an element
	stanzas int
}

// Step implements netsim.Stepper.
func (t *serverStepper) Step(c *netsim.ServerConv, ev netsim.ConvEvent) netsim.StepVerdict {
	switch ev {
	case netsim.EvOpen:
		t.remote = c.RemoteIP()
		return netsim.StepMore
	case netsim.EvData:
		v, _ := netsim.Frames(c, t.decode, t.handleElement)
		return v
	default:
		return netsim.StepDone
	}
}

// decode frames the current stage's next element, remembering how much of
// an incomplete head it has already scanned.
func (t *serverStepper) decode(raw []byte) ([]byte, int, error) {
	n, err := scanElement(raw, t.scanned, stageTerminators[t.state]...)
	if err != nil {
		return nil, 0, err
	}
	if n == 0 {
		t.scanned = len(raw)
		return nil, len(raw) + 1, nil
	}
	t.scanned = 0
	return raw[:n], n, nil
}

// handleElement advances the dialogue by one complete element.
func (t *serverStepper) handleElement(c *netsim.ServerConv, raw []byte) netsim.StepVerdict {
	s := t.s
	el := string(raw)
	switch t.state {
	case stStreamOpen:
		s.emit(Event{Time: c.DialTime(), Kind: EventStreamOpen, Remote: t.remote})
		streamID := fmt.Sprintf("%s-%08x", s.cfg.Features.Software, uint32(t.remote))
		if _, err := c.Write([]byte(StreamResponse(s.cfg.Features, streamID))); err != nil {
			return netsim.StepDone
		}
		t.state = stSASL

	case stSASL:
		if !strings.Contains(el, "<auth") {
			break
		}
		mech, user, pass, err := ParseAuth(el)
		if err != nil {
			_, _ = c.Write([]byte(SASLFailure))
			break
		}
		ok := false
		switch strings.ToUpper(mech) {
		case "ANONYMOUS":
			ok = s.cfg.AllowAnonymous
		case "PLAIN":
			want, exists := s.cfg.Credentials[user]
			ok = exists && want == pass
		}
		s.emit(Event{Time: c.DialTime(), Kind: EventAuthAttempt, Remote: t.remote,
			Mechanism: mech, Username: user, Password: pass, Success: ok})
		if ok {
			_, _ = c.Write([]byte(SASLSuccess))
			t.state = stStanzas
		} else if _, err := c.Write([]byte(SASLFailure)); err != nil {
			return netsim.StepDone
		}

	case stStanzas:
		if strings.Contains(el, "</stream:stream>") {
			_, _ = c.Write([]byte("</stream:stream>"))
			return netsim.StepDone
		}
		s.emit(Event{Time: c.DialTime(), Kind: EventStanza, Remote: t.remote, Stanza: el})
		if s.cfg.StanzaHandler != nil {
			if resp := s.cfg.StanzaHandler(el); resp != "" {
				if _, err := c.Write([]byte(resp)); err != nil {
					return netsim.StepDone
				}
			}
		}
		if t.stanzas++; t.stanzas >= maxStanzas {
			return netsim.StepDone
		}
	}
	return netsim.StepMore
}

// maxElement bounds one accumulated element.
const maxElement = 64 << 10

// scanElement is the one element framer: it returns the length of the
// shortest prefix of raw that ends in any terminator, or 0 when raw holds no
// complete element yet. Prefixes no longer than from are known not to match
// (the caller scanned them on an earlier call). An element that cannot end
// within maxElement bytes is an error.
func scanElement(raw []byte, from int, terminators ...string) (int, error) {
	limit := len(raw)
	if limit > maxElement {
		limit = maxElement
	}
	for n := from + 1; n <= limit; n++ {
		for _, term := range terminators {
			if n >= len(term) && string(raw[n-len(term):n]) == term {
				return n, nil
			}
		}
	}
	if limit == maxElement {
		return 0, errors.New("xmpp: element too large")
	}
	return 0, nil
}

// readElement is the blocking reader over scanElement: it accumulates bytes
// until any terminator appears, never reading past it.
func readElement(r *bufio.Reader, terminators ...string) (string, error) {
	var buf []byte
	for {
		b, err := r.ReadByte()
		if err != nil {
			return string(buf), err
		}
		buf = append(buf, b)
		if n, err := scanElement(buf, len(buf)-1, terminators...); n > 0 || err != nil {
			return string(buf), err
		}
	}
}
