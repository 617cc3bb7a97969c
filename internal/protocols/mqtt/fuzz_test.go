package mqtt

import (
	"bytes"
	"errors"
	"io"
	"reflect"
	"testing"

	"openhire/internal/netsim"
)

// FuzzReadPacket drives arbitrary bytes — including truncated packet
// prefixes, the shape a tarpitted broker conversation delivers — through the
// wire decoder. The decoder must never panic, must return a nil packet with
// every error, must decode the same packet or fail with the same error on
// the broker's path (the bytes arriving one at a time at a stepper) as
// through ReadPacket, and anything it accepts must survive re-encoding and
// re-decoding to the same packet type.
func FuzzReadPacket(f *testing.F) {
	// Well-formed packets of each family, so the fuzzer starts from inputs
	// that reach the per-type decoders rather than dying at the fixed header.
	for _, p := range []*Packet{
		{Type: CONNECT, ClientID: "probe-1", KeepAlive: 60},
		{Type: CONNECT, ClientID: "c", Username: "admin", Password: "admin", HasAuth: true},
		{Type: CONNACK, ReturnCode: ConnAccepted},
		{Type: CONNACK, ReturnCode: ConnBadCredentials, SessionPresent: true},
		{Type: PUBLISH, Topic: "sensors/temp", Payload: []byte("21.5"), Retain: true},
		{Type: PUBLISH, Topic: "a/b", Payload: nil, QoS: 1, PacketID: 7},
		{Type: SUBSCRIBE, PacketID: 2, TopicFilter: []string{"#"}},
		{Type: SUBACK, PacketID: 2, GrantedQoS: []byte{0}},
		{Type: UNSUBSCRIBE, PacketID: 3, TopicFilter: []string{"a/+/c"}},
		{Type: PINGREQ},
		{Type: DISCONNECT},
	} {
		f.Add(p.Encode())
	}
	// Malformed shapes seen from real scanners and cut-off streams.
	f.Add([]byte{})
	f.Add([]byte{0x10})                                     // CONNECT header, no length
	f.Add([]byte{0x10, 0x7f})                               // length larger than body
	f.Add([]byte{0x30, 0x02, 0x00})                         // PUBLISH with truncated topic
	f.Add([]byte{0x10, 0x04, 0x00, 0x04, 'M', 'Q'})         // protocol name cut mid-string
	f.Add([]byte{0xf0, 0x00})                               // reserved packet type
	f.Add([]byte{0x10, 0xff, 0xff, 0xff, 0xff})             // remaining length overlong
	f.Add(bytes.Repeat([]byte{0xff}, 64))                   // IAC-style garbage
	f.Add([]byte("GET / HTTP/1.1\r\nHost: broker\r\n\r\n")) // cross-protocol probe

	f.Fuzz(func(t *testing.T, raw []byte) {
		p, err := ReadPacket(bytes.NewReader(raw))
		// The broker's path: the same bytes arriving one at a time at a
		// stepper that pulls packets with netsim.Frames.
		sp, serr := firstPacketByteByByte(raw)
		switch {
		case errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF):
			if sp != nil || serr != nil {
				t.Fatalf("ReadPacket ran out of bytes, the stepper path got %+v, %v", sp, serr)
			}
		case serr != err || !reflect.DeepEqual(sp, p):
			t.Fatalf("stepper path %+v, %v; ReadPacket %+v, %v", sp, serr, p, err)
		}
		if err != nil {
			if p != nil {
				t.Fatalf("error %v returned alongside packet %+v", err, p)
			}
			return
		}
		// Whatever decoded must re-encode without panicking, and the encoded
		// form must decode back to the same packet type: the broker answers
		// clients with re-encoded packets, so an asymmetric codec would wedge
		// live conversations, not just the fuzzer.
		enc := p.Encode()
		p2, err := ReadPacket(bytes.NewReader(enc))
		if err != nil {
			t.Fatalf("re-decode of encoded %s failed: %v (bytes %x)", p.Type, err, enc)
		}
		if p2.Type != p.Type {
			t.Fatalf("type changed across re-encode: %s -> %s", p.Type, p2.Type)
		}
	})
}

// packetProbe is a stepper that pulls packets off its input the way the
// broker does and keeps a copy of the first, or the error that ended the
// session.
type packetProbe struct {
	pkt *Packet
	err error
}

func (p *packetProbe) Step(c *netsim.ServerConv, ev netsim.ConvEvent) netsim.StepVerdict {
	switch ev {
	case netsim.EvOpen:
		return netsim.StepMore
	case netsim.EvData:
		v, err := netsim.Frames(c, decodePacket, p.keep)
		p.err = err
		return v
	}
	return netsim.StepDone
}

// keep copies the packet, which aliases the input, and ends the session.
func (p *packetProbe) keep(_ *netsim.ServerConv, pkt *Packet) netsim.StepVerdict {
	cp := *pkt
	cp.Payload, cp.GrantedQoS = bytes.Clone(pkt.Payload), bytes.Clone(pkt.GrantedQoS)
	p.pkt = &cp
	return netsim.StepDone
}

// firstPacketByteByByte writes raw to a packetProbe one byte per write and
// reports what it decoded; both are nil when raw ends mid-packet.
func firstPacketByteByByte(raw []byte) (*Packet, error) {
	probe := &packetProbe{}
	client := netsim.Converse(probe, netsim.MustParseIPv4("192.0.2.9"),
		netsim.Endpoint{IP: netsim.MustParseIPv4("10.0.0.2"), Port: 1883}, netsim.ExperimentStart)
	for i := range raw {
		if _, err := client.Write(raw[i : i+1]); err != nil {
			break // the probe has its packet
		}
	}
	_ = client.Close()
	return probe.pkt, probe.err
}

// FuzzTopicMatches asserts the subscription matcher is total: any
// filter/topic pair — valid, hostile or truncated — returns without panic,
// and the multi-level wildcard alone matches everything.
func FuzzTopicMatches(f *testing.F) {
	f.Add("#", "any/topic/at/all")
	f.Add("a/+/c", "a/b/c")
	f.Add("a/b", "a/b/c")
	f.Add("", "")
	f.Add("+/+", "/")
	f.Add("a//b", "a//b")
	f.Add("$SYS/#", "$SYS/broker/uptime")

	f.Fuzz(func(t *testing.T, filter, topic string) {
		_ = TopicMatches(filter, topic)
		if !TopicMatches("#", topic) {
			t.Fatalf("multi-level wildcard rejected topic %q", topic)
		}
	})
}
