// Package smb implements the SMB negotiate handshake at the depth the
// study's honeypots observe attacks at: the SMB1 Negotiate Protocol
// request/response (dialect selection) plus detection of the EternalBlue
// exploit family's characteristic transaction requests.
//
// The paper's HosTaGe and Dionaea deployments saw SMB "largely targeted
// with the EternalBlue, EternalRomance, and the EternalChampion exploits"
// delivering WannaCry variants (Section 5.1.5). Low-interaction honeypots
// do not implement a file server; they recognize the exploit's first
// packets and capture the payload that follows, which is exactly what this
// package does.
package smb

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"time"

	"openhire/internal/netsim"
)

// Port is the SMB port.
const Port uint16 = 445

// SMB1 magic: 0xFF 'S' 'M' 'B'.
var smb1Magic = []byte{0xFF, 'S', 'M', 'B'}

// SMB1 command codes the honeypot distinguishes.
const (
	CmdNegotiate    = 0x72
	CmdSessionSetup = 0x73
	CmdTransaction2 = 0x32 // EternalBlue rides Trans2
	CmdNTTransact   = 0xA0 // EternalRomance/Champion ride NT Trans
)

// AttackKind classifies an SMB interaction.
type AttackKind uint8

// SMB interaction classes.
const (
	KindProbe AttackKind = iota // plain negotiate (scanning)
	KindSessionSetup
	KindEternalBlue
	KindEternalRomance
	KindPayloadDrop // exploit followed by payload bytes
)

// String names the kind.
func (k AttackKind) String() string {
	switch k {
	case KindProbe:
		return "probe"
	case KindSessionSetup:
		return "session-setup"
	case KindEternalBlue:
		return "eternalblue"
	case KindEternalRomance:
		return "eternalromance"
	case KindPayloadDrop:
		return "payload-drop"
	default:
		return "unknown"
	}
}

// Event logs one SMB session.
type Event struct {
	Time    time.Time
	Remote  netsim.IPv4
	Kind    AttackKind
	Dialect string
	Payload []byte // captured exploit payload bytes, if any
}

// Config describes the SMB endpoint.
type Config struct {
	// Dialect is what negotiate selects ("NT LM 0.12").
	Dialect string
	// OnEvent receives session records.
	OnEvent func(Event)
	// MaxPayload bounds captured exploit payloads (0 = 512 KiB).
	MaxPayload int
}

// Server implements netsim.StreamHandler.
type Server struct {
	cfg Config
}

// NewServer builds a Server.
func NewServer(cfg Config) *Server {
	if cfg.Dialect == "" {
		cfg.Dialect = "NT LM 0.12"
	}
	if cfg.MaxPayload == 0 {
		cfg.MaxPayload = 512 << 10
	}
	return &Server{cfg: cfg}
}

// ErrMalformed reports an invalid NetBIOS session header.
var ErrMalformed = errors.New("smb: malformed frame")

// netbiosFrame wraps an SMB message in the 4-byte NetBIOS session header.
func netbiosFrame(msg []byte) []byte {
	out := make([]byte, 4, 4+len(msg))
	binary.BigEndian.PutUint32(out, uint32(len(msg)))
	out[0] = 0 // session message
	return append(out, msg...)
}

// decodeNetbios is the one NetBIOS session-message framer, in the shape
// netsim.ReadFramed and the server stepper share: it returns the message at
// the head of raw (aliasing it) and its framed length n, or — when raw is
// still short (n > len(raw)) — how many bytes it needs to get further.
// The header is a zero byte and a 24-bit length (MS-SMB2 2.1, direct TCP);
// any other first byte, such as a NetBIOS keepalive's 0x85, is malformed.
func decodeNetbios(raw []byte, max int) ([]byte, int, error) {
	if len(raw) < 4 {
		return nil, 4, nil
	}
	if raw[0] != 0 {
		return nil, 0, ErrMalformed
	}
	size := int(binary.BigEndian.Uint32(raw))
	if size > max {
		return nil, 0, io.ErrShortBuffer
	}
	n := 4 + size
	if len(raw) < n {
		return nil, n, nil
	}
	return raw[4:n], n, nil
}

// netbiosDecoder binds decodeNetbios to a message size limit.
func netbiosDecoder(max int) func(raw []byte) ([]byte, int, error) {
	return func(raw []byte) ([]byte, int, error) { return decodeNetbios(raw, max) }
}

// ReadMessage reads one NetBIOS-framed message of at most 64 KiB; it aliases
// the stream's buffer until the next read.
func ReadMessage(r io.Reader) ([]byte, error) {
	return netsim.ReadFramed(r, netbiosDecoder(1<<16))
}

// NewStepper implements netsim.StreamHandler.
func (s *Server) NewStepper() netsim.Stepper { return &serverStepper{s: s} }

// maxMessages closes a session after this many NetBIOS messages.
const maxMessages = 16

// serverStepper is one SMB session: it answers each SMB1 message and
// classifies the interaction, capturing what follows an exploit command.
type serverStepper struct {
	s        *Server
	ev       Event
	messages int
}

// Step implements netsim.Stepper. Every path that falls out of the switch
// ends the session: the record is emitted once, below.
func (t *serverStepper) Step(c *netsim.ServerConv, ev netsim.ConvEvent) netsim.StepVerdict {
	switch ev {
	case netsim.EvOpen:
		t.ev = Event{Time: c.DialTime(), Kind: KindProbe}
		t.ev.Remote = c.RemoteIP()
		return netsim.StepMore
	case netsim.EvData:
		if v, _ := netsim.Frames(c, netbiosDecoder(t.s.cfg.MaxPayload), t.handleMessage); v == netsim.StepMore {
			return v
		}
	}
	if t.s.cfg.OnEvent != nil {
		t.s.cfg.OnEvent(t.ev)
	}
	return netsim.StepDone
}

// handleMessage answers one message; the session ends on a failed write or
// at maxMessages.
func (t *serverStepper) handleMessage(c *netsim.ServerConv, msg []byte) netsim.StepVerdict {
	t.messages++
	more := netsim.StepMore
	if t.messages >= maxMessages {
		more = netsim.StepDone
	}
	ev := &t.ev
	if len(msg) < 5 || !bytes.Equal(msg[:4], smb1Magic) {
		// Anything after an exploit command that is not SMB is treated
		// as the dropped payload.
		if ev.Kind == KindEternalBlue || ev.Kind == KindEternalRomance {
			ev.Payload = append(ev.Payload, msg...)
			ev.Kind = KindPayloadDrop
		}
		return more
	}
	var resp []byte
	switch msg[4] {
	case CmdNegotiate:
		ev.Dialect = t.s.cfg.Dialect
		resp = buildNegotiateResponse(t.s.cfg.Dialect)
	case CmdSessionSetup:
		if ev.Kind == KindProbe {
			ev.Kind = KindSessionSetup
		}
		resp = buildStatusResponse(msg[4], 0)
	case CmdTransaction2:
		ev.Kind = KindEternalBlue
		// STATUS_NOT_IMPLEMENTED, like patched/low-interaction targets.
		resp = buildStatusResponse(msg[4], 0xC0000002)
	case CmdNTTransact:
		ev.Kind = KindEternalRomance
		resp = buildStatusResponse(msg[4], 0xC0000002)
	default:
		resp = buildStatusResponse(msg[4], 0xC0000002)
	}
	if _, err := c.Write(netbiosFrame(resp)); err != nil {
		return netsim.StepDone
	}
	return more
}

// buildNegotiateResponse renders a minimal SMB1 negotiate response naming
// the selected dialect in the data section.
func buildNegotiateResponse(dialect string) []byte {
	msg := append([]byte{}, smb1Magic...)
	msg = append(msg, CmdNegotiate)
	msg = append(msg, make([]byte, 27)...) // status+flags+etc (zeroed)
	msg = append(msg, byte(len(dialect)))
	return append(msg, dialect...)
}

// buildStatusResponse renders a header-only response with an NT status.
func buildStatusResponse(cmd byte, status uint32) []byte {
	msg := append([]byte{}, smb1Magic...)
	msg = append(msg, cmd)
	var st [4]byte
	binary.LittleEndian.PutUint32(st[:], status)
	msg = append(msg, st[:]...)
	return append(msg, make([]byte, 23)...)
}

// BuildNegotiate renders the client's negotiate request listing dialects.
func BuildNegotiate(dialects ...string) []byte {
	msg := append([]byte{}, smb1Magic...)
	msg = append(msg, CmdNegotiate)
	msg = append(msg, make([]byte, 27)...)
	for _, d := range dialects {
		msg = append(msg, 0x02)
		msg = append(msg, d...)
		msg = append(msg, 0x00)
	}
	return netbiosFrame(msg)
}

// BuildExploit renders an EternalBlue-shaped Trans2 request followed by a
// payload frame, as the simulated WannaCry droppers send it.
func BuildExploit(kind AttackKind, payload []byte) []byte {
	cmd := byte(CmdTransaction2)
	if kind == KindEternalRomance {
		cmd = CmdNTTransact
	}
	msg := append([]byte{}, smb1Magic...)
	msg = append(msg, cmd)
	msg = append(msg, make([]byte, 27)...)
	out := netbiosFrame(msg)
	return append(out, netbiosFrame(payload)...)
}

// Probe sends a negotiate and returns the dialect named in the response.
func Probe(conn io.ReadWriter) (string, error) {
	if _, err := conn.Write(BuildNegotiate("NT LM 0.12", "SMB 2.002")); err != nil {
		return "", err
	}
	msg, err := ReadMessage(conn)
	if err != nil {
		return "", err
	}
	if len(msg) < 33 || !bytes.Equal(msg[:4], smb1Magic) {
		return "", io.ErrUnexpectedEOF
	}
	n := int(msg[32])
	if 33+n > len(msg) {
		return "", io.ErrUnexpectedEOF
	}
	return string(msg[33 : 33+n]), nil
}
