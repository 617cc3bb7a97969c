// Package modbus implements Modbus/TCP (MBAP framing plus the function
// codes the study observes). The Conpot honeypot profile exposes it as part
// of its Siemens PLC persona; the paper reports poisoning attacks against
// holding registers and notes that "only 10% of the Modbus traffic used
// valid function codes" (Section 5.1.4).
package modbus

import (
	"encoding/binary"
	"errors"
	"io"
	"sync"
	"time"

	"openhire/internal/netsim"
)

// Port is the Modbus/TCP port.
const Port uint16 = 502

// Function codes used by the study.
const (
	FuncReadHolding     = 0x03
	FuncWriteSingle     = 0x06
	FuncWriteMultiple   = 0x10
	FuncReportServerID  = 0x11
	FuncReadDeviceIdent = 0x2B
)

// Exception codes.
const (
	ExcIllegalFunction = 0x01
	ExcIllegalAddress  = 0x02
)

// ErrMalformed reports an invalid ADU.
var ErrMalformed = errors.New("modbus: malformed ADU")

// Request is a decoded Modbus ADU (a request, or a response read back by
// the client).
type Request struct {
	TransactionID uint16
	UnitID        byte
	Function      byte
	Data          []byte
}

// Event logs one request for the honeypot.
type Event struct {
	Time     time.Time
	Remote   netsim.IPv4
	Function byte
	Valid    bool // was it one of the implemented function codes
	Write    bool
	Address  uint16
	Value    uint16
}

// Config describes the Modbus endpoint.
type Config struct {
	// ServerID is returned by ReportServerID ("Siemens SIMATIC S7-200").
	ServerID string
	// Registers is the number of holding registers exposed (0 = 128).
	Registers int
	// OnEvent receives per-request observations.
	OnEvent func(Event)
}

// Server implements netsim.StreamHandler with a live register file.
type Server struct {
	cfg Config

	mu   sync.Mutex
	regs []uint16
}

// NewServer builds a Server.
func NewServer(cfg Config) *Server {
	if cfg.Registers == 0 {
		cfg.Registers = 128
	}
	if cfg.ServerID == "" {
		cfg.ServerID = "Siemens SIMATIC S7-200"
	}
	return &Server{cfg: cfg, regs: make([]uint16, cfg.Registers)}
}

// Register returns the live value of holding register addr.
func (s *Server) Register(addr int) (uint16, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if addr < 0 || addr >= len(s.regs) {
		return 0, false
	}
	return s.regs[addr], true
}

// SetRegister seeds a register value (device state).
func (s *Server) SetRegister(addr int, v uint16) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if addr >= 0 && addr < len(s.regs) {
		s.regs[addr] = v
	}
}

// NewStepper implements netsim.StreamHandler.
func (s *Server) NewStepper() netsim.Stepper { return &serverStepper{s: s} }

// maxRequests closes a session after this many requests.
const maxRequests = 256

// serverStepper is one Modbus/TCP session: a request/response loop.
type serverStepper struct {
	s        *Server
	remote   netsim.IPv4
	requests int
}

// Step implements netsim.Stepper.
func (t *serverStepper) Step(c *netsim.ServerConv, ev netsim.ConvEvent) netsim.StepVerdict {
	switch ev {
	case netsim.EvOpen:
		t.remote = c.RemoteIP()
		return netsim.StepMore
	case netsim.EvData:
		v, _ := netsim.Frames(c, decodeADU, t.handle)
		return v
	default:
		return netsim.StepDone
	}
}

// handle answers one request and logs it.
func (t *serverStepper) handle(c *netsim.ServerConv, req *Request) netsim.StepVerdict {
	resp, rev := t.s.handle(req)
	rev.Time = c.DialTime()
	rev.Remote = t.remote
	if t.s.cfg.OnEvent != nil {
		t.s.cfg.OnEvent(rev)
	}
	if _, err := c.Write(resp); err != nil {
		return netsim.StepDone
	}
	if t.requests++; t.requests >= maxRequests {
		return netsim.StepDone
	}
	return netsim.StepMore
}

func (s *Server) handle(req *Request) ([]byte, Event) {
	ev := Event{Function: req.Function}
	switch req.Function {
	case FuncReadHolding:
		ev.Valid = true
		if len(req.Data) < 4 {
			return buildException(req, ExcIllegalAddress), ev
		}
		addr := binary.BigEndian.Uint16(req.Data[0:2])
		count := binary.BigEndian.Uint16(req.Data[2:4])
		ev.Address = addr
		s.mu.Lock()
		if int(addr)+int(count) > len(s.regs) || count == 0 || count > 125 {
			s.mu.Unlock()
			return buildException(req, ExcIllegalAddress), ev
		}
		data := make([]byte, 1+2*count)
		data[0] = byte(2 * count)
		for i := 0; i < int(count); i++ {
			binary.BigEndian.PutUint16(data[1+2*i:], s.regs[int(addr)+i])
		}
		s.mu.Unlock()
		return buildResponse(req, data), ev
	case FuncWriteSingle:
		ev.Valid = true
		ev.Write = true
		if len(req.Data) < 4 {
			return buildException(req, ExcIllegalAddress), ev
		}
		addr := binary.BigEndian.Uint16(req.Data[0:2])
		val := binary.BigEndian.Uint16(req.Data[2:4])
		ev.Address, ev.Value = addr, val
		s.mu.Lock()
		if int(addr) >= len(s.regs) {
			s.mu.Unlock()
			return buildException(req, ExcIllegalAddress), ev
		}
		s.regs[addr] = val
		s.mu.Unlock()
		return buildResponse(req, req.Data[:4]), ev
	case FuncReportServerID:
		ev.Valid = true
		id := []byte(s.cfg.ServerID)
		data := append([]byte{byte(len(id) + 1)}, id...)
		data = append(data, 0xFF) // run indicator: ON
		return buildResponse(req, data), ev
	case FuncReadDeviceIdent:
		ev.Valid = true
		return buildResponse(req, []byte{0x0E, 0x01, 0x01, 0x00, 0x00, 0x01,
			byte(len(s.cfg.ServerID))}), ev
	default:
		return buildException(req, ExcIllegalFunction), ev
	}
}

// decodeADU is the one MBAP framer, in the shape netsim.ReadFramed and the
// server stepper share: it decodes the ADU at the head of raw and returns
// its length n, or — when raw is still short (n > len(raw)) — how many bytes
// it needs to get further. Data aliases raw.
func decodeADU(raw []byte) (*Request, int, error) {
	if len(raw) < 7 {
		return nil, 7, nil
	}
	if binary.BigEndian.Uint16(raw[2:4]) != 0 { // protocol id must be 0
		return nil, 0, ErrMalformed
	}
	length := int(binary.BigEndian.Uint16(raw[4:6]))
	if length < 2 || length > 256 {
		return nil, 0, ErrMalformed
	}
	n := 6 + length // the length field counts the unit id in raw[6]
	if len(raw) < n {
		return nil, n, nil
	}
	return &Request{
		TransactionID: binary.BigEndian.Uint16(raw[0:2]),
		UnitID:        raw[6],
		Function:      raw[7],
		Data:          raw[8:n],
	}, n, nil
}

func buildResponse(req *Request, data []byte) []byte {
	return buildADU(req.TransactionID, req.UnitID, req.Function, data)
}

func buildException(req *Request, code byte) []byte {
	return buildADU(req.TransactionID, req.UnitID, req.Function|0x80, []byte{code})
}

func buildADU(tid uint16, unit, function byte, data []byte) []byte {
	out := make([]byte, 7, 8+len(data))
	binary.BigEndian.PutUint16(out[0:2], tid)
	binary.BigEndian.PutUint16(out[4:6], uint16(2+len(data)))
	out[6] = unit
	out = append(out, function)
	return append(out, data...)
}

// BuildRequest renders a client request ADU.
func BuildRequest(tid uint16, unit, function byte, data []byte) []byte {
	return buildADU(tid, unit, function, data)
}

// ReadHolding issues a read of count registers at addr over conn.
func ReadHolding(conn io.ReadWriter, addr, count uint16) ([]uint16, error) {
	data := make([]byte, 4)
	binary.BigEndian.PutUint16(data[0:2], addr)
	binary.BigEndian.PutUint16(data[2:4], count)
	resp, err := roundTrip(conn, FuncReadHolding, data)
	if err != nil {
		return nil, err
	}
	if len(resp) < 1 || int(resp[0]) != len(resp)-1 {
		return nil, ErrMalformed
	}
	vals := make([]uint16, count)
	for i := range vals {
		vals[i] = binary.BigEndian.Uint16(resp[1+2*i:])
	}
	return vals, nil
}

// WriteSingle writes one register — the poisoning primitive.
func WriteSingle(conn io.ReadWriter, addr, value uint16) error {
	data := make([]byte, 4)
	binary.BigEndian.PutUint16(data[0:2], addr)
	binary.BigEndian.PutUint16(data[2:4], value)
	_, err := roundTrip(conn, FuncWriteSingle, data)
	return err
}

// ErrException is returned when the server answers with an exception.
var ErrException = errors.New("modbus: exception response")

func roundTrip(conn io.ReadWriter, function byte, data []byte) ([]byte, error) {
	if _, err := conn.Write(BuildRequest(1, 1, function, data)); err != nil {
		return nil, err
	}
	adu, err := netsim.ReadFramed(conn, decodeADU)
	if err != nil {
		return nil, err
	}
	if adu.Function == function|0x80 {
		return nil, ErrException
	}
	if adu.Function != function {
		return nil, ErrMalformed
	}
	return adu.Data, nil
}
