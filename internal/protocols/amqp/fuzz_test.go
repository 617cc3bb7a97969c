package amqp

import (
	"bytes"
	"testing"

	"openhire/internal/netsim"
)

// FuzzDecodeFrame holds the AMQP frame parser to what the broker needs from
// it on attacker bytes: it never panics, a decoded frame is exactly what
// Marshal encodes for it, and the broker's path — the same bytes arriving one
// at a time at a stepper that pulls frames with netsim.Frames — yields the
// same first frame, or the same error, as decoding the whole slice.
func FuzzDecodeFrame(f *testing.F) {
	start := StartFrame(ServerProperties{Product: "RabbitMQ", Version: "2.8.4",
		Platform: "Erlang/OTP", Mechanisms: []string{"PLAIN", "AMQPLAIN"}, Locales: []string{"en_US"}}).Marshal()
	startOK := StartOKFrame("PLAIN", "guest", "guest").Marshal()
	for _, raw := range [][]byte{
		start,
		startOK,
		PublishFrame("amq.topic", "lights", []byte("off")).Marshal(),
		methodFrame(ClassConnection, MethodTuneOK, 0, 0, 0, 2, 0, 0, 0, 0).Marshal(),
		(&Frame{Type: FrameHeartbeat}).Marshal(),
		append(append([]byte{}, startOK...), start...), // two frames: only the first counts
	} {
		f.Add(raw)
	}
	// Short heads and bad length fields.
	f.Add([]byte{})
	f.Add(start[:3])
	f.Add(start[:7])
	f.Add(start[:len(start)-1])
	f.Add([]byte{FrameMethod, 0, 0, 0, 0x10, 0, 1, 0, frameEnd}) // size 1 MiB+1: over the cap
	f.Add([]byte{FrameMethod, 0, 0, 0, 0, 0, 1, 7, 0})           // wrong end octet
	f.Add([]byte{FrameBody, 0, 1, 0, 0, 0, 0, frameEnd})         // empty payload
	f.Add(ProtocolHeader)                                        // the greeting is not a frame
	f.Add([]byte("GET / HTTP/1.1\r\n\r\n"))                      // cross-protocol probe

	f.Fuzz(func(t *testing.T, raw []byte) {
		fr, n, err := decodeFrame(raw)
		sfr, serr := firstFrameByteByByte(raw)
		complete := err == nil && n <= len(raw)
		switch {
		case err == nil && !complete:
			if sfr != nil || serr != nil {
				t.Fatalf("whole slice needs %d bytes of %d, the stepper path got %+v, %v", n, len(raw), sfr, serr)
			}
		case serr != err:
			t.Fatalf("stepper path error %v, whole slice %v", serr, err)
		case complete && (sfr.Type != fr.Type || sfr.Channel != fr.Channel || !bytes.Equal(sfr.Payload, fr.Payload)):
			t.Fatalf("stepper path frame %+v, whole slice %+v", sfr, fr)
		}
		if !complete {
			return
		}
		if enc := fr.Marshal(); !bytes.Equal(enc, raw[:n]) {
			t.Fatalf("frame %x re-encodes as %x", raw[:n], enc)
		}
	})
}

// frameProbe is a stepper that pulls AMQP frames off its input the way the
// broker does and keeps a copy of the first, or the error that ended the
// session.
type frameProbe struct {
	frame *Frame
	err   error
}

func (p *frameProbe) Step(c *netsim.ServerConv, ev netsim.ConvEvent) netsim.StepVerdict {
	switch ev {
	case netsim.EvOpen:
		return netsim.StepMore
	case netsim.EvData:
		v, err := netsim.Frames(c, decodeFrame, p.keep)
		p.err = err
		return v
	}
	return netsim.StepDone
}

// keep copies the frame, whose payload aliases the input, and ends the
// session.
func (p *frameProbe) keep(_ *netsim.ServerConv, f *Frame) netsim.StepVerdict {
	cp := *f
	cp.Payload = bytes.Clone(f.Payload)
	p.frame = &cp
	return netsim.StepDone
}

// firstFrameByteByByte writes raw to a frameProbe one byte per write and
// reports what it decoded; both are nil when raw ends mid-frame.
func firstFrameByteByByte(raw []byte) (*Frame, error) {
	probe := &frameProbe{}
	client := netsim.Converse(probe, netsim.MustParseIPv4("192.0.2.9"),
		netsim.Endpoint{IP: netsim.MustParseIPv4("10.0.0.2"), Port: Port}, netsim.ExperimentStart)
	for i := range raw {
		if _, err := client.Write(raw[i : i+1]); err != nil {
			break // the probe has its frame or its error
		}
	}
	_ = client.Close()
	return probe.frame, probe.err
}
