// Package amqp implements the AMQP 0-9-1 connection preamble: the protocol
// header exchange and the connection.start frame whose server-properties
// table leaks product, version and the supported SASL mechanisms.
//
// The paper scans port 5672 and inspects the connection.start metadata for
// product/version (matching known-vulnerable releases such as RabbitMQ
// 2.7.1/2.8.4, Table 2) and for servers that offer no meaningful
// authentication. Full channel/exchange semantics are out of scope for the
// probe; the broker side additionally accepts publishes so honeypots can
// observe queue-poisoning and flood attacks (Section 5.1.2).
package amqp

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sort"
	"strings"
)

// ProtocolHeader is the 8-byte AMQP 0-9-1 client greeting.
var ProtocolHeader = []byte{'A', 'M', 'Q', 'P', 0, 0, 9, 1}

// Port is the standard AMQP port the paper scans.
const Port uint16 = 5672

// Frame types (AMQP 0-9-1 §4.2.3).
const (
	FrameMethod    = 1
	FrameHeader    = 2
	FrameBody      = 3
	FrameHeartbeat = 8
	frameEnd       = 0xCE
)

// Method identifiers used by the preamble and the minimal broker.
const (
	ClassConnection = 10
	MethodStart     = 10
	MethodStartOK   = 11
	MethodTune      = 30
	MethodTuneOK    = 31
	MethodOpen      = 40
	MethodOpenOK    = 41
	MethodClose     = 50
	MethodCloseOK   = 51
	ClassBasic      = 60
	MethodPublish   = 40
)

// Errors returned by the codec.
var (
	ErrMalformed   = errors.New("amqp: malformed frame")
	ErrBadHeader   = errors.New("amqp: bad protocol header")
	ErrFrameTooBig = errors.New("amqp: frame exceeds limit")
)

// maxFrameSize bounds decoded frames.
const maxFrameSize = 1 << 20

// Frame is a raw AMQP frame.
type Frame struct {
	Type    byte
	Channel uint16
	Payload []byte
}

// Marshal renders the frame with the 0xCE end octet.
func (f *Frame) Marshal() []byte {
	out := make([]byte, 0, 8+len(f.Payload))
	out = append(out, f.Type)
	out = binary.BigEndian.AppendUint16(out, f.Channel)
	out = binary.BigEndian.AppendUint32(out, uint32(len(f.Payload)))
	out = append(out, f.Payload...)
	return append(out, frameEnd)
}

// decodeFrame is the one frame parser, in the shape netsim.ReadFramed and
// the server stepper share: it decodes the frame at the head of raw and
// returns its encoded length n, or — when raw is still short (n > len(raw))
// — how many bytes it needs to get further. The payload aliases raw.
func decodeFrame(raw []byte) (*Frame, int, error) {
	if len(raw) < 7 {
		return nil, 7, nil
	}
	size := binary.BigEndian.Uint32(raw[3:7])
	if size > maxFrameSize {
		return nil, 0, ErrFrameTooBig
	}
	n := 7 + int(size) + 1
	if len(raw) < n {
		return nil, n, nil
	}
	if raw[n-1] != frameEnd {
		return nil, 0, ErrMalformed
	}
	return &Frame{
		Type:    raw[0],
		Channel: binary.BigEndian.Uint16(raw[1:3]),
		Payload: raw[7 : n-1],
	}, n, nil
}

// ParseFrame decodes one frame from raw, returning the remainder. A
// truncated frame is malformed; the payload is a copy.
func ParseFrame(raw []byte) (*Frame, []byte, error) {
	f, n, err := decodeFrame(raw)
	if err == nil && f == nil {
		err = ErrMalformed
	}
	if err != nil {
		return nil, raw, err
	}
	f.Payload = append([]byte(nil), f.Payload...)
	return f, raw[n:], nil
}

// methodFrame renders a channel-0 method frame with the given arguments.
func methodFrame(class, method uint16, args ...byte) *Frame {
	var body []byte
	body = binary.BigEndian.AppendUint16(body, class)
	body = binary.BigEndian.AppendUint16(body, method)
	return &Frame{Type: FrameMethod, Payload: append(body, args...)}
}

// ServerProperties is the identity table carried in connection.start.
type ServerProperties struct {
	Product    string
	Version    string
	Platform   string
	Mechanisms []string // SASL mechanisms ("PLAIN", "AMQPLAIN", "ANONYMOUS")
	Locales    []string
}

// StartFrame renders the connection.start method frame.
func StartFrame(p ServerProperties) *Frame {
	var body []byte
	body = binary.BigEndian.AppendUint16(body, ClassConnection)
	body = binary.BigEndian.AppendUint16(body, MethodStart)
	body = append(body, 0, 9) // version-major, version-minor

	table := encodeTable(map[string]string{
		"product":  p.Product,
		"version":  p.Version,
		"platform": p.Platform,
	})
	body = binary.BigEndian.AppendUint32(body, uint32(len(table)))
	body = append(body, table...)

	mech := strings.Join(p.Mechanisms, " ")
	body = binary.BigEndian.AppendUint32(body, uint32(len(mech)))
	body = append(body, mech...)

	locales := strings.Join(orDefault(p.Locales, []string{"en_US"}), " ")
	body = binary.BigEndian.AppendUint32(body, uint32(len(locales)))
	body = append(body, locales...)

	return &Frame{Type: FrameMethod, Channel: 0, Payload: body}
}

func orDefault(v, def []string) []string {
	if len(v) == 0 {
		return def
	}
	return v
}

// encodeTable renders a field table of short-string → long-string pairs,
// sorted for deterministic wire bytes.
func encodeTable(m map[string]string) []byte {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var out []byte
	for _, k := range keys {
		out = append(out, byte(len(k)))
		out = append(out, k...)
		out = append(out, 'S')
		out = binary.BigEndian.AppendUint32(out, uint32(len(m[k])))
		out = append(out, m[k]...)
	}
	return out
}

// ParseStart decodes a connection.start frame back into ServerProperties.
// This is the probe's banner parser.
func ParseStart(f *Frame) (*ServerProperties, error) {
	if f.Type != FrameMethod {
		return nil, ErrMalformed
	}
	p := f.Payload
	if len(p) < 6 {
		return nil, ErrMalformed
	}
	if binary.BigEndian.Uint16(p[0:2]) != ClassConnection || binary.BigEndian.Uint16(p[2:4]) != MethodStart {
		return nil, fmt.Errorf("amqp: not connection.start")
	}
	p = p[6:] // skip class, method, version bytes

	table, p, err := readLongBytes(p)
	if err != nil {
		return nil, err
	}
	props := decodeTable(table)

	mech, p, err := readLongBytes(p)
	if err != nil {
		return nil, err
	}
	locales, _, err := readLongBytes(p)
	if err != nil {
		return nil, err
	}
	out := &ServerProperties{
		Product:  props["product"],
		Version:  props["version"],
		Platform: props["platform"],
	}
	if len(mech) > 0 {
		out.Mechanisms = strings.Fields(string(mech))
	}
	if len(locales) > 0 {
		out.Locales = strings.Fields(string(locales))
	}
	return out, nil
}

func readLongBytes(p []byte) ([]byte, []byte, error) {
	if len(p) < 4 {
		return nil, p, ErrMalformed
	}
	n := binary.BigEndian.Uint32(p)
	if int(n) > len(p)-4 {
		return nil, p, ErrMalformed
	}
	return p[4 : 4+n], p[4+n:], nil
}

func decodeTable(t []byte) map[string]string {
	out := make(map[string]string)
	for len(t) > 0 {
		klen := int(t[0])
		if len(t) < 1+klen+1 {
			return out
		}
		key := string(t[1 : 1+klen])
		t = t[1+klen:]
		typ := t[0]
		t = t[1:]
		if typ != 'S' || len(t) < 4 {
			return out // only long-strings supported; stop on anything else
		}
		vlen := int(binary.BigEndian.Uint32(t))
		if len(t) < 4+vlen {
			return out
		}
		out[key] = string(t[4 : 4+vlen])
		t = t[4+vlen:]
	}
	return out
}

// KnownVulnerableVersions are the versions whose presence alone the paper
// counts as misconfigurations (Table 2: "Version: 2.7.1", "Version: 2.8.4"
// — ancient RabbitMQ releases with published CVEs and default-open guest
// access).
var KnownVulnerableVersions = map[string]bool{
	"2.7.1": true,
	"2.8.4": true,
}
