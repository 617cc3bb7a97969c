// Package mqtt implements the MQTT 3.1.1 protocol (OASIS standard) at wire
// level: packet codec, a small broker used by simulated IoT devices and the
// Dionaea/HosTaGe honeypot profiles, and a probing client.
//
// The paper scans port 1883 and flags brokers that answer CONNECT without
// credentials with return code 0 ("MQTT Connection Code:0", Table 2). Its
// honeypots observed $SYS topic access, topic data poisoning and message
// floods (Section 5.1.2); the broker here supports all of those behaviours.
package mqtt

import (
	"errors"
	"fmt"
	"io"
	"slices"

	"openhire/internal/netsim"
)

// PacketType identifies an MQTT control packet.
type PacketType byte

// MQTT 3.1.1 control packet types.
const (
	CONNECT     PacketType = 1
	CONNACK     PacketType = 2
	PUBLISH     PacketType = 3
	PUBACK      PacketType = 4
	SUBSCRIBE   PacketType = 8
	SUBACK      PacketType = 9
	UNSUBSCRIBE PacketType = 10
	UNSUBACK    PacketType = 11
	PINGREQ     PacketType = 12
	PINGRESP    PacketType = 13
	DISCONNECT  PacketType = 14
)

// String names the packet type.
func (t PacketType) String() string {
	switch t {
	case CONNECT:
		return "CONNECT"
	case CONNACK:
		return "CONNACK"
	case PUBLISH:
		return "PUBLISH"
	case PUBACK:
		return "PUBACK"
	case SUBSCRIBE:
		return "SUBSCRIBE"
	case SUBACK:
		return "SUBACK"
	case UNSUBSCRIBE:
		return "UNSUBSCRIBE"
	case UNSUBACK:
		return "UNSUBACK"
	case PINGREQ:
		return "PINGREQ"
	case PINGRESP:
		return "PINGRESP"
	case DISCONNECT:
		return "DISCONNECT"
	default:
		return fmt.Sprintf("TYPE(%d)", byte(t))
	}
}

// ConnackCode is the CONNACK return code. Code 0 is the paper's
// no-authentication misconfiguration indicator.
type ConnackCode byte

// CONNACK return codes (MQTT 3.1.1 §3.2.2.3).
const (
	ConnAccepted          ConnackCode = 0
	ConnBadProtocol       ConnackCode = 1
	ConnIDRejected        ConnackCode = 2
	ConnServerUnavailable ConnackCode = 3
	ConnBadCredentials    ConnackCode = 4
	ConnNotAuthorized     ConnackCode = 5
)

// Packet is a decoded MQTT control packet. Fields are populated according
// to Type; unused fields are zero.
type Packet struct {
	Type  PacketType
	Flags byte

	// CONNECT
	ClientID  string
	Username  string
	Password  string
	KeepAlive uint16
	HasAuth   bool

	// CONNACK
	ReturnCode     ConnackCode
	SessionPresent bool

	// PUBLISH
	Topic   string
	Payload []byte
	QoS     byte
	Retain  bool

	// SUBSCRIBE / SUBACK / UNSUBSCRIBE / acks
	PacketID    uint16
	TopicFilter []string
	GrantedQoS  []byte
}

// Wire-format errors.
var (
	ErrMalformed     = errors.New("mqtt: malformed packet")
	ErrPacketTooLong = errors.New("mqtt: remaining length exceeds limit")
)

// maxRemainingLength bounds decoded packets; real brokers allow 256 MB, we
// cap far lower since IoT payloads are small and floods should not allocate.
const maxRemainingLength = 1 << 20

// encodeRemainingLength appends the MQTT variable-length encoding of n.
func encodeRemainingLength(dst []byte, n int) []byte {
	for {
		b := byte(n % 128)
		n /= 128
		if n > 0 {
			b |= 0x80
		}
		dst = append(dst, b)
		if n == 0 {
			return dst
		}
	}
}

func appendString(dst []byte, s string) []byte {
	dst = append(dst, byte(len(s)>>8), byte(len(s)))
	return append(dst, s...)
}

func readString(p []byte) (string, []byte, error) {
	if len(p) < 2 {
		return "", nil, ErrMalformed
	}
	n := int(p[0])<<8 | int(p[1])
	if len(p) < 2+n {
		return "", nil, ErrMalformed
	}
	return string(p[2 : 2+n]), p[2+n:], nil
}

// Encode serializes the packet to wire format.
func (p *Packet) Encode() []byte { return p.appendTo(nil) }

// appendTo appends the packet's wire format to dst. The body is written
// after room for the longest remaining-length field and moved up against
// the actual one, so the packet is built in dst with no second buffer.
func (p *Packet) appendTo(dst []byte) []byte {
	start := len(dst)
	// Room for a probe's whole dialogue, so a reused buffer stops growing
	// after its first packet.
	dst = slices.Grow(dst, 64)
	dst = append(dst, byte(p.Type)<<4|p.fixedFlags(), 0, 0, 0, 0)
	bodyStart := len(dst)
	dst = p.appendBody(dst)
	n := len(dst) - bodyStart
	var rl [4]byte
	hdrEnd := start + 1 + copy(dst[start+1:], encodeRemainingLength(rl[:0], n))
	copy(dst[hdrEnd:], dst[bodyStart:])
	return dst[:hdrEnd+n]
}

// fixedFlags is the low nibble of the fixed header.
func (p *Packet) fixedFlags() byte {
	switch p.Type {
	case SUBSCRIBE, UNSUBSCRIBE:
		return 0x02 // required reserved flags
	case PUBLISH:
		flags := p.QoS << 1
		if p.Retain {
			flags |= 1
		}
		return flags
	}
	return p.Flags
}

// appendBody appends the packet's variable header and payload.
func (p *Packet) appendBody(body []byte) []byte {
	switch p.Type {
	case CONNECT:
		body = appendString(body, "MQTT")
		body = append(body, 4) // protocol level 3.1.1
		var flags byte = 0x02  // clean session
		if p.HasAuth {
			flags |= 0xC0 // username + password present
		}
		body = append(body, flags)
		body = append(body, byte(p.KeepAlive>>8), byte(p.KeepAlive))
		body = appendString(body, p.ClientID)
		if p.HasAuth {
			body = appendString(body, p.Username)
			body = appendString(body, p.Password)
		}
	case CONNACK:
		var sp byte
		if p.SessionPresent {
			sp = 1
		}
		body = append(body, sp, byte(p.ReturnCode))
	case PUBLISH:
		body = appendString(body, p.Topic)
		if p.QoS > 0 {
			body = append(body, byte(p.PacketID>>8), byte(p.PacketID))
		}
		body = append(body, p.Payload...)
	case PUBACK, UNSUBACK:
		body = append(body, byte(p.PacketID>>8), byte(p.PacketID))
	case SUBSCRIBE:
		body = append(body, byte(p.PacketID>>8), byte(p.PacketID))
		for i, f := range p.TopicFilter {
			body = appendString(body, f)
			var q byte
			if i < len(p.GrantedQoS) {
				q = p.GrantedQoS[i]
			}
			body = append(body, q)
		}
	case SUBACK:
		body = append(body, byte(p.PacketID>>8), byte(p.PacketID))
		body = append(body, p.GrantedQoS...)
	case UNSUBSCRIBE:
		body = append(body, byte(p.PacketID>>8), byte(p.PacketID))
		for _, f := range p.TopicFilter {
			body = appendString(body, f)
		}
	case PINGREQ, PINGRESP, DISCONNECT:
		// empty body
	}
	return body
}

// ReadPacket reads and decodes one packet from r.
func ReadPacket(r io.Reader) (*Packet, error) {
	return netsim.ReadFramed(r, decodePacket)
}

// decodePacket is framePacket handing out the packet by pointer, nil while
// raw is short or when it fails.
func decodePacket(raw []byte) (*Packet, int, error) {
	p, n, err := framePacket(raw)
	if err != nil || n > len(raw) {
		return nil, n, err
	}
	pp := new(Packet) // only a whole packet escapes
	*pp = p
	return pp, n, nil
}

// framePacket is the one MQTT framer, in the shape netsim.ReadFramed and the
// broker's stepper share: it decodes the packet at the head of raw (fixed
// header byte, remaining-length varint of at most four bytes, body) and
// returns its length n, or — while raw is still short (n > len(raw)) — how
// many bytes it needs to get further. Payload and GrantedQoS alias raw. The
// packet is a value, so the broker and the client decode without
// allocating one.
func framePacket(raw []byte) (Packet, int, error) {
	length, shift := 0, uint(0)
	for i := 1; i <= 4; i++ {
		if len(raw) <= i {
			return Packet{}, i + 1, nil
		}
		length |= int(raw[i]&0x7f) << shift
		if raw[i]&0x80 != 0 {
			shift += 7
			continue
		}
		if length > maxRemainingLength {
			return Packet{}, 0, ErrPacketTooLong
		}
		n := i + 1 + length
		if len(raw) < n {
			return Packet{}, n, nil
		}
		p, err := decode(raw[0], raw[i+1:n])
		return p, n, err
	}
	return Packet{}, 0, ErrMalformed // continuation bit set on the fourth length byte
}

func decode(hdr byte, body []byte) (Packet, error) {
	p := Packet{Type: PacketType(hdr >> 4), Flags: hdr & 0x0f}
	switch p.Type {
	case CONNECT:
		proto, rest, err := readString(body)
		if err != nil {
			return Packet{}, err
		}
		if proto != "MQTT" && proto != "MQIsdp" {
			return Packet{}, ErrMalformed
		}
		if len(rest) < 4 {
			return Packet{}, ErrMalformed
		}
		flags := rest[1]
		p.KeepAlive = uint16(rest[2])<<8 | uint16(rest[3])
		rest = rest[4:]
		if p.ClientID, rest, err = readString(rest); err != nil {
			return Packet{}, err
		}
		if flags&0x04 != 0 { // will flag: skip will topic + message
			if _, rest, err = readString(rest); err != nil {
				return Packet{}, err
			}
			if _, rest, err = readString(rest); err != nil {
				return Packet{}, err
			}
		}
		if flags&0x80 != 0 {
			p.HasAuth = true
			if p.Username, rest, err = readString(rest); err != nil {
				return Packet{}, err
			}
		}
		if flags&0x40 != 0 {
			p.HasAuth = true
			if p.Password, _, err = readString(rest); err != nil {
				return Packet{}, err
			}
		}
	case CONNACK:
		if len(body) != 2 {
			return Packet{}, ErrMalformed
		}
		p.SessionPresent = body[0]&1 != 0
		p.ReturnCode = ConnackCode(body[1])
	case PUBLISH:
		var err error
		var rest []byte
		if p.Topic, rest, err = readString(body); err != nil {
			return Packet{}, err
		}
		p.QoS = p.Flags >> 1 & 0x03
		p.Retain = p.Flags&1 != 0
		if p.QoS > 0 {
			if len(rest) < 2 {
				return Packet{}, ErrMalformed
			}
			p.PacketID = uint16(rest[0])<<8 | uint16(rest[1])
			rest = rest[2:]
		}
		p.Payload = rest
	case PUBACK, UNSUBACK:
		if len(body) < 2 {
			return Packet{}, ErrMalformed
		}
		p.PacketID = uint16(body[0])<<8 | uint16(body[1])
	case SUBSCRIBE, UNSUBSCRIBE:
		if len(body) < 2 {
			return Packet{}, ErrMalformed
		}
		p.PacketID = uint16(body[0])<<8 | uint16(body[1])
		rest := body[2:]
		for len(rest) > 0 {
			var f string
			var err error
			if f, rest, err = readString(rest); err != nil {
				return Packet{}, err
			}
			p.TopicFilter = append(p.TopicFilter, f)
			if p.Type == SUBSCRIBE {
				if len(rest) < 1 {
					return Packet{}, ErrMalformed
				}
				p.GrantedQoS = append(p.GrantedQoS, rest[0])
				rest = rest[1:]
			}
		}
		if len(p.TopicFilter) == 0 {
			return Packet{}, ErrMalformed
		}
	case SUBACK:
		if len(body) < 2 {
			return Packet{}, ErrMalformed
		}
		p.PacketID = uint16(body[0])<<8 | uint16(body[1])
		p.GrantedQoS = body[2:]
	case PINGREQ, PINGRESP, DISCONNECT:
		// empty
	default:
		return Packet{}, ErrMalformed
	}
	return p, nil
}

// TopicMatches reports whether topic matches filter under MQTT wildcard
// rules: '+' matches one level, '#' matches the remainder.
func TopicMatches(filter, topic string) bool {
	fi, ti := 0, 0
	for {
		fSeg, fNext := nextSegment(filter, fi)
		tSeg, tNext := nextSegment(topic, ti)
		switch {
		case fSeg == "#":
			return true
		case fi >= len(filter) && ti >= len(topic):
			return true
		case fi >= len(filter) || ti >= len(topic):
			return false
		case fSeg != "+" && fSeg != tSeg:
			return false
		}
		fi, ti = fNext, tNext
	}
}

func nextSegment(s string, i int) (string, int) {
	if i >= len(s) {
		return "", i
	}
	for j := i; j < len(s); j++ {
		if s[j] == '/' {
			return s[i:j], j + 1
		}
	}
	return s[i:], len(s) + 1
}
