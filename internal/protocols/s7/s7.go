// Package s7 implements the S7comm protocol preamble used by Siemens PLCs
// and the Conpot honeypot profile: TPKT/COTP connection setup, the S7
// communication-setup job, and SZL identity reads that leak the PLC module
// name. It also models the ICSA-16-299-01 denial-of-service behaviour the
// paper observed: floods of PDU-type-1 (job) requests spawn work in the
// device and eventually wedge it (Section 5.1.4).
package s7

import (
	"encoding/binary"
	"errors"
	"io"
	"time"

	"openhire/internal/netsim"
)

// Port is the S7comm port.
const Port uint16 = 102

// COTP PDU types.
const (
	cotpConnectRequest = 0xE0
	cotpConnectConfirm = 0xD0
	cotpData           = 0xF0
)

// S7 PDU types.
const (
	PDUJob      = 0x01
	PDUAck      = 0x02
	PDUAckData  = 0x03
	PDUUserData = 0x07
)

// S7 job functions.
const (
	FuncSetupComm = 0xF0
	FuncRead      = 0x04
	FuncWrite     = 0x05
)

// ErrMalformed reports an invalid frame.
var ErrMalformed = errors.New("s7: malformed frame")

// Event logs one S7 request.
type Event struct {
	Time     time.Time
	Remote   netsim.IPv4
	PDUType  byte
	Function byte
	// JobFlood marks requests past the server's job budget: the
	// ICSA-16-299-01 DoS signature.
	JobFlood bool
}

// Config describes the S7 endpoint.
type Config struct {
	// Module is the PLC identity returned by SZL reads
	// ("6ES7 315-2EH14-0AB0").
	Module string
	// MaxJobs is the job budget before the device wedges (0 = 64) —
	// the ICSA-16-299-01 behaviour.
	MaxJobs int
	// OnEvent receives per-request observations.
	OnEvent func(Event)
}

// Server implements netsim.StreamHandler.
type Server struct {
	cfg Config
}

// NewServer builds a Server.
func NewServer(cfg Config) *Server {
	if cfg.Module == "" {
		cfg.Module = "6ES7 315-2EH14-0AB0"
	}
	if cfg.MaxJobs == 0 {
		cfg.MaxJobs = 64
	}
	return &Server{cfg: cfg}
}

// tpkt wraps a payload in TPKT (RFC 1006) framing.
func tpkt(payload []byte) []byte {
	out := []byte{3, 0, 0, 0}
	binary.BigEndian.PutUint16(out[2:4], uint16(4+len(payload)))
	return append(out, payload...)
}

// maxTPKT bounds one TPKT frame, header included.
const maxTPKT = 8192

// decodeTPKT is the one TPKT framer, in the shape netsim.ReadFramed and the
// server stepper share: it returns the payload of the frame at the head of
// raw (aliasing it) and the frame length n, or — when raw is still short
// (n > len(raw)) — how many bytes it needs to get further.
func decodeTPKT(raw []byte) ([]byte, int, error) {
	if len(raw) < 4 {
		return nil, 4, nil
	}
	if raw[0] != 3 || raw[1] != 0 { // version 3; RFC 1006 reserves byte 1 as 0
		return nil, 0, ErrMalformed
	}
	n := int(binary.BigEndian.Uint16(raw[2:4]))
	if n < 4 || n > maxTPKT {
		return nil, 0, ErrMalformed
	}
	if len(raw) < n {
		return nil, n, nil
	}
	return raw[4:n], n, nil
}

// ReadTPKT reads one TPKT frame payload; it aliases the stream's buffer
// until the next read.
func ReadTPKT(r io.Reader) ([]byte, error) {
	return netsim.ReadFramed(r, decodeTPKT)
}

// NewStepper implements netsim.StreamHandler.
func (s *Server) NewStepper() netsim.Stepper { return &serverStepper{s: s} }

// maxFrames closes a session after this many post-connect frames.
const maxFrames = 4096

// serverStepper is one S7 session: COTP connection setup, then S7 PDUs
// against the job budget.
type serverStepper struct {
	s         *Server
	remote    netsim.IPv4
	connected bool // COTP connect confirmed
	frames    int
	jobs      int
}

// Step implements netsim.Stepper.
func (t *serverStepper) Step(c *netsim.ServerConv, ev netsim.ConvEvent) netsim.StepVerdict {
	switch ev {
	case netsim.EvOpen:
		t.remote = c.RemoteIP()
		return netsim.StepMore
	case netsim.EvData:
		v, _ := netsim.Frames(c, decodeTPKT, t.handleFrame)
		return v
	default:
		return netsim.StepDone
	}
}

// handleFrame advances the session by one TPKT payload.
func (t *serverStepper) handleFrame(c *netsim.ServerConv, payload []byte) netsim.StepVerdict {
	s := t.s
	if !t.connected {
		// COTP connection setup.
		if len(payload) < 2 || payload[1] != cotpConnectRequest {
			return netsim.StepDone
		}
		t.connected = true
		// Connect confirm echoes the class-0 option.
		if _, err := c.Write(tpkt([]byte{6, cotpConnectConfirm, 0, 0, 0, 0, 0})); err != nil {
			return netsim.StepDone
		}
		return netsim.StepMore
	}
	t.frames++
	more := netsim.StepMore
	if t.frames >= maxFrames {
		more = netsim.StepDone
	}
	if len(payload) < 3 || payload[1] != cotpData {
		return more
	}
	s7pdu := payload[3:] // skip COTP data header (len, type, eot)
	if len(s7pdu) < 8 || s7pdu[0] != 0x32 {
		return more // not S7comm
	}
	pduType := s7pdu[1]
	var function byte
	if len(s7pdu) > 10 {
		function = s7pdu[10]
	}
	ev := Event{Time: c.DialTime(), Remote: t.remote, PDUType: pduType, Function: function}
	if pduType == PDUJob {
		t.jobs++
		ev.JobFlood = t.jobs > s.cfg.MaxJobs // device wedged: ICSA-16-299-01
	}
	if s.cfg.OnEvent != nil {
		s.cfg.OnEvent(ev)
	}
	if ev.JobFlood {
		return netsim.StepDone
	}
	var ack []byte
	switch {
	case pduType == PDUJob && function == FuncRead:
		ack = buildAck(FuncRead, []byte(s.cfg.Module))
	case pduType == PDUJob:
		ack = buildAck(function, nil)
	case pduType == PDUUserData:
		// SZL identity read → module name.
		ack = buildAck(0, []byte(s.cfg.Module))
	default:
		return more
	}
	if _, err := c.Write(tpkt(ack)); err != nil {
		return netsim.StepDone
	}
	return more
}

// buildAck renders a COTP-data-wrapped S7 ack-data PDU with optional data.
func buildAck(function byte, data []byte) []byte {
	s7 := []byte{0x32, PDUAckData, 0, 0, 0, 1, 0, 2, 0, byte(len(data)), function}
	s7 = append(s7, data...)
	return append([]byte{2, cotpData, 0x80}, s7...)
}

// BuildConnect renders the COTP connection request.
func BuildConnect() []byte {
	return tpkt([]byte{6, cotpConnectRequest, 0, 0, 0, 0, 0})
}

// BuildJob renders an S7 job PDU with the given function.
func BuildJob(function byte) []byte {
	s7 := []byte{0x32, PDUJob, 0, 0, 0, 1, 0, 2, 0, 0, function}
	return tpkt(append([]byte{2, cotpData, 0x80}, s7...))
}

// Connect performs COTP setup plus the S7 communication-setup job.
func Connect(conn io.ReadWriter) error {
	if _, err := conn.Write(BuildConnect()); err != nil {
		return err
	}
	payload, err := ReadTPKT(conn)
	if err != nil {
		return err
	}
	if len(payload) < 2 || payload[1] != cotpConnectConfirm {
		return ErrMalformed
	}
	if _, err := conn.Write(BuildJob(FuncSetupComm)); err != nil {
		return err
	}
	_, err = ReadTPKT(conn)
	return err
}

// ReadModule issues a read job and returns the module identity string.
func ReadModule(conn io.ReadWriter) (string, error) {
	if _, err := conn.Write(BuildJob(FuncRead)); err != nil {
		return "", err
	}
	payload, err := ReadTPKT(conn)
	if err != nil {
		return "", err
	}
	if len(payload) < 14 {
		return "", ErrMalformed
	}
	return string(payload[14:]), nil
}
