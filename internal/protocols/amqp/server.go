package amqp

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"time"

	"openhire/internal/netsim"
)

// EventKind classifies broker-side observations.
type EventKind uint8

// Broker event kinds.
const (
	EventHandshake EventKind = iota
	EventStartOK             // client answered connection.start (credentials seen)
	EventPublish             // basic.publish (queue poisoning / flood)
)

// Event is one broker observation.
type Event struct {
	Time      time.Time
	Kind      EventKind
	Remote    netsim.IPv4
	Mechanism string
	Username  string
	Exchange  string
	Body      []byte
}

// ServerConfig configures the minimal AMQP broker.
type ServerConfig struct {
	Properties ServerProperties
	// RequireAuth rejects ANONYMOUS/guest logins. Misconfigured brokers
	// (Table 5: 2,731 devices) leave this unset.
	RequireAuth bool
	// Credentials maps username → password for PLAIN auth.
	Credentials map[string]string
	// OnEvent, when non-nil, receives observations.
	OnEvent func(Event)
	// MaxPublishes closes the session after this many publishes (0 = 1000);
	// the flood guard mirrors the DoS behaviour seen on HosTaGe.
	MaxPublishes int
}

// Server is a minimal AMQP 0-9-1 broker: header exchange, start/start-ok,
// tune, open, then it accepts basic.publish frames.
type Server struct {
	cfg ServerConfig
}

// NewServer builds a Server.
func NewServer(cfg ServerConfig) *Server {
	if cfg.Properties.Product == "" {
		cfg.Properties = ServerProperties{
			Product: "RabbitMQ", Version: "3.8.9", Platform: "Erlang/OTP 23",
			Mechanisms: []string{"PLAIN", "AMQPLAIN"},
		}
	}
	if cfg.MaxPublishes == 0 {
		cfg.MaxPublishes = 1000
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

// serverStepper stages.
const (
	stHeader  uint8 = iota // awaiting the 8-byte protocol header
	stStartOK              // connection.start sent, awaiting start-ok
	stOpen                 // tune sent: consume whatever arrives
)

// serverStepper is one broker session: header exchange, start/start-ok,
// then tune and open-ok sent proactively while publishes are accepted.
type serverStepper struct {
	s         *Server
	remote    netsim.IPv4
	state     uint8
	publishes int
}

// Step implements netsim.Stepper.
func (t *serverStepper) Step(c *netsim.ServerConv, ev netsim.ConvEvent) netsim.StepVerdict {
	switch ev {
	case netsim.EvOpen:
		t.remote = c.RemoteIP()
		return netsim.StepMore
	case netsim.EvData:
		v, err := netsim.Frames(c, t.decode, t.handleFrame)
		if errors.Is(err, ErrBadHeader) {
			// Spec: answer a bad greeting with the supported header and close.
			_, _ = c.Write(ProtocolHeader)
		}
		return v
	default:
		return netsim.StepDone
	}
}

// decode frames the session: the 8-byte protocol header first, as a nil
// frame, then decodeFrame.
func (t *serverStepper) decode(raw []byte) (*Frame, int, error) {
	n := len(ProtocolHeader)
	switch {
	case t.state != stHeader:
		return decodeFrame(raw)
	case len(raw) < n:
		return nil, n, nil
	case !bytes.Equal(raw[:n], ProtocolHeader):
		return nil, 0, ErrBadHeader
	}
	return nil, n, nil
}

func writeFrame(c *netsim.ServerConv, f *Frame) bool {
	_, err := c.Write(f.Marshal())
	return err == nil
}

// handleFrame advances the session by one decoded frame.
func (t *serverStepper) handleFrame(c *netsim.ServerConv, f *Frame) netsim.StepVerdict {
	s := t.s
	if t.state == stHeader {
		s.emit(Event{Time: c.DialTime(), Kind: EventHandshake, Remote: t.remote})
		if !writeFrame(c, StartFrame(s.cfg.Properties)) {
			return netsim.StepDone
		}
		t.state = stStartOK
		return netsim.StepMore
	}
	if t.state == stStartOK {
		// connection.start-ok carries the client's mechanism and response.
		mech, user, pass := parseStartOK(f)
		s.emit(Event{Time: c.DialTime(), Kind: EventStartOK, Remote: t.remote,
			Mechanism: mech, Username: user})
		if s.cfg.RequireAuth {
			want, ok := s.cfg.Credentials[user]
			if mech == "ANONYMOUS" || !ok || want != pass {
				_ = writeFrame(c, methodFrame(ClassConnection, MethodClose, 403>>8, 403&0xFF))
				return netsim.StepDone
			}
		}
		// tune → (tune-ok) → open-ok handshake, heavily simplified: we send
		// tune proactively and then consume whatever arrives.
		var tune []byte
		tune = binary.BigEndian.AppendUint16(tune, 2047)   // channel-max
		tune = binary.BigEndian.AppendUint32(tune, 131072) // frame-max
		tune = binary.BigEndian.AppendUint16(tune, 60)     // heartbeat
		if !writeFrame(c, methodFrame(ClassConnection, MethodTune, tune...)) {
			return netsim.StepDone
		}
		t.state = stOpen
		return netsim.StepMore
	}

	if f.Type == FrameHeartbeat {
		_ = writeFrame(c, &Frame{Type: FrameHeartbeat})
		return netsim.StepMore
	}
	if f.Type != FrameMethod || len(f.Payload) < 4 {
		return netsim.StepMore
	}
	class := binary.BigEndian.Uint16(f.Payload[0:2])
	method := binary.BigEndian.Uint16(f.Payload[2:4])
	switch {
	case class == ClassConnection && method == MethodOpen:
		if !writeFrame(c, methodFrame(ClassConnection, MethodOpenOK, 0)) { // reserved shortstr
			return netsim.StepDone
		}
	case class == ClassConnection && method == MethodClose:
		_ = writeFrame(c, methodFrame(ClassConnection, MethodCloseOK))
		return netsim.StepDone
	case class == ClassBasic && method == MethodPublish:
		t.publishes++
		exchange, body := parsePublish(f)
		// The frame aliases the engine's input buffer; the event outlives it.
		s.emit(Event{Time: c.DialTime(), Kind: EventPublish, Remote: t.remote,
			Exchange: exchange, Body: append([]byte(nil), body...)})
		if t.publishes >= s.cfg.MaxPublishes {
			return netsim.StepDone
		}
	}
	return netsim.StepMore
}

// readFrame reads one frame from the stream.
func readFrame(conn io.Reader) (*Frame, error) {
	return netsim.ReadFramed(conn, decodeFrame)
}

// parseStartOK extracts mechanism and PLAIN credentials from start-ok.
func parseStartOK(f *Frame) (mech, user, pass string) {
	p := f.Payload
	if len(p) < 4 {
		return "", "", ""
	}
	p = p[4:] // class + method
	// client-properties table
	table, p, err := readLongBytes(p)
	if err != nil {
		return "", "", ""
	}
	_ = table
	// mechanism shortstr
	if len(p) < 1 || len(p) < 1+int(p[0]) {
		return "", "", ""
	}
	mech = string(p[1 : 1+int(p[0])])
	p = p[1+int(p[0]):]
	// response longstr: PLAIN is \x00user\x00pass
	resp, _, err := readLongBytes(p)
	if err != nil {
		return mech, "", ""
	}
	if mech == "PLAIN" {
		parts := bytes.Split(resp, []byte{0})
		if len(parts) == 3 {
			user, pass = string(parts[1]), string(parts[2])
		}
	}
	return mech, user, pass
}

// parsePublish extracts the exchange name; the body (if inlined by our
// simplified client after the method payload) follows a zero marker.
func parsePublish(f *Frame) (exchange string, body []byte) {
	p := f.Payload
	if len(p) < 6 {
		return "", nil
	}
	p = p[6:] // class, method, reserved-1
	if len(p) < 1 || len(p) < 1+int(p[0]) {
		return "", nil
	}
	exchange = string(p[1 : 1+int(p[0])])
	p = p[1+int(p[0]):]
	// routing key shortstr
	if len(p) >= 1 && len(p) >= 1+int(p[0]) {
		p = p[1+int(p[0]):]
	}
	if len(p) > 1 {
		body = p[1:] // skip flags octet
	}
	return exchange, body
}

// StartOKFrame builds a client start-ok answer with PLAIN credentials
// (empty user+pass probes anonymous access).
func StartOKFrame(mechanism, user, pass string) *Frame {
	var body []byte
	body = binary.BigEndian.AppendUint16(body, ClassConnection)
	body = binary.BigEndian.AppendUint16(body, MethodStartOK)
	body = binary.BigEndian.AppendUint32(body, 0) // empty client-properties
	body = append(body, byte(len(mechanism)))
	body = append(body, mechanism...)
	resp := "\x00" + user + "\x00" + pass
	if mechanism == "ANONYMOUS" {
		resp = ""
	}
	body = binary.BigEndian.AppendUint32(body, uint32(len(resp)))
	body = append(body, resp...)
	body = append(body, 5)
	body = append(body, "en_US"...)
	return &Frame{Type: FrameMethod, Payload: body}
}

// PublishFrame builds a simplified basic.publish frame carrying body inline.
func PublishFrame(exchange, routingKey string, body []byte) *Frame {
	var p []byte
	p = binary.BigEndian.AppendUint16(p, ClassBasic)
	p = binary.BigEndian.AppendUint16(p, MethodPublish)
	p = binary.BigEndian.AppendUint16(p, 0) // reserved-1
	p = append(p, byte(len(exchange)))
	p = append(p, exchange...)
	p = append(p, byte(len(routingKey)))
	p = append(p, routingKey...)
	p = append(p, 0) // flags
	p = append(p, body...)
	return &Frame{Type: FrameMethod, Payload: p}
}
