package smb

import (
	"bytes"
	"testing"

	"openhire/internal/netsim"
)

// fuzzMax is the message size limit the fuzzed framer runs under: the
// client's ReadMessage limit.
const fuzzMax = 1 << 16

// FuzzDecodeNetbios holds the NetBIOS session framer to what the honeypot
// needs from it on attacker bytes: it never panics, a decoded message framed
// again is exactly the bytes it was decoded from, and
// the server's path — the same bytes arriving one at a time at a stepper that
// pulls messages with netsim.Frames — yields the same first message, or the
// same error, as decoding the whole slice.
func FuzzDecodeNetbios(f *testing.F) {
	negotiate := BuildNegotiate("PC NETWORK PROGRAM 1.0", "NT LM 0.12")
	for _, raw := range [][]byte{
		negotiate,
		BuildExploit(KindEternalBlue, []byte("payload")), // two frames: only the first counts
		BuildExploit(KindEternalRomance, nil),
		netbiosFrame(buildNegotiateResponse("NT LM 0.12")),
	} {
		f.Add(raw)
	}
	// Short heads and bad length fields.
	f.Add([]byte{})
	f.Add(negotiate[:2])
	f.Add(negotiate[:4])
	f.Add(negotiate[:len(negotiate)-1])
	f.Add([]byte{0, 1, 0, 1, 0xff})         // length 65537: over the limit
	f.Add([]byte{0, 0, 0, 0})               // empty message
	f.Add([]byte{0x85, 0, 0, 0})            // NetBIOS keepalive: malformed
	f.Add([]byte("GET / HTTP/1.1\r\n\r\n")) // cross-protocol probe

	f.Fuzz(func(t *testing.T, raw []byte) {
		msg, n, err := decodeNetbios(raw, fuzzMax)
		smsg, serr := firstMessageByteByByte(raw)
		complete := err == nil && n <= len(raw)
		switch {
		case err == nil && !complete:
			if smsg != nil || serr != nil {
				t.Fatalf("whole slice needs %d bytes of %d, the stepper path got %x, %v", n, len(raw), smsg, serr)
			}
		case serr != err:
			t.Fatalf("stepper path error %v, whole slice %v", serr, err)
		case complete && !bytes.Equal(smsg, msg):
			t.Fatalf("stepper path message %x, whole slice %x", smsg, msg)
		}
		if !complete {
			return
		}
		if !bytes.Equal(netbiosFrame(msg), raw[:n]) {
			t.Fatalf("frame %x decoded to %d bytes, message %x", raw, n, msg)
		}
	})
}

// messageProbe is a stepper that pulls NetBIOS messages off its input the
// way the server does and keeps a copy of the first, or the error that ended
// the session.
type messageProbe struct {
	msg []byte
	err error
}

func (p *messageProbe) Step(c *netsim.ServerConv, ev netsim.ConvEvent) netsim.StepVerdict {
	switch ev {
	case netsim.EvOpen:
		return netsim.StepMore
	case netsim.EvData:
		v, err := netsim.Frames(c, netbiosDecoder(fuzzMax), p.keep)
		p.err = err
		return v
	}
	return netsim.StepDone
}

// keep copies the message, which aliases the input, and ends the session.
func (p *messageProbe) keep(_ *netsim.ServerConv, msg []byte) netsim.StepVerdict {
	p.msg = append([]byte{}, msg...)
	return netsim.StepDone
}

// firstMessageByteByByte writes raw to a messageProbe one byte per write and
// reports what it decoded; both are nil when raw ends mid-frame.
func firstMessageByteByByte(raw []byte) ([]byte, error) {
	probe := &messageProbe{}
	client := netsim.Converse(probe, netsim.MustParseIPv4("192.0.2.9"),
		netsim.Endpoint{IP: netsim.MustParseIPv4("10.0.0.2"), Port: 445}, netsim.ExperimentStart)
	for i := range raw {
		if _, err := client.Write(raw[i : i+1]); err != nil {
			break // the probe has its message or its error
		}
	}
	_ = client.Close()
	return probe.msg, probe.err
}
