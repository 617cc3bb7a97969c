package s7

import (
	"bytes"
	"testing"

	"openhire/internal/netsim"
)

// FuzzDecodeTPKT holds the TPKT framer to what the honeypot needs from it on
// attacker bytes: it never panics, a decoded frame is exactly what tpkt
// encodes for its payload, and the server's path — the same bytes arriving
// one at a time at a stepper that pulls frames with netsim.Frames — yields
// the same first payload, or the same error, as decoding the whole slice.
func FuzzDecodeTPKT(f *testing.F) {
	connect := BuildConnect()
	for _, raw := range [][]byte{
		connect,
		BuildJob(FuncSetupComm),
		BuildJob(FuncRead),
		BuildJob(FuncWrite),
		append(append([]byte{}, connect...), BuildJob(FuncRead)...), // two frames: only the first counts
	} {
		f.Add(raw)
	}
	// Short heads and bad length fields.
	f.Add([]byte{})
	f.Add(connect[:2])
	f.Add(connect[:4])
	f.Add(connect[:len(connect)-1])
	f.Add([]byte{3, 0, 0, 3})       // length below the header
	f.Add([]byte{3, 0, 0x20, 0x01}) // length 8193: over the cap
	f.Add([]byte{3, 0, 0, 4})       // empty payload
	f.Add([]byte{3, 9, 0, 5, 0})    // reserved byte set: malformed
	f.Add([]byte{4, 0, 0, 7, 2, 0xf0, 0x80})
	f.Add([]byte("GET / HTTP/1.1\r\n\r\n")) // cross-protocol probe

	f.Fuzz(func(t *testing.T, raw []byte) {
		payload, n, err := decodeTPKT(raw)
		spayload, serr := firstFrameByteByByte(raw)
		complete := err == nil && n <= len(raw)
		switch {
		case err == nil && !complete:
			if spayload != nil || serr != nil {
				t.Fatalf("whole slice needs %d bytes of %d, the stepper path got %x, %v", n, len(raw), spayload, serr)
			}
		case serr != err:
			t.Fatalf("stepper path error %v, whole slice %v", serr, err)
		case complete && !bytes.Equal(spayload, payload):
			t.Fatalf("stepper path payload %x, whole slice %x", spayload, payload)
		}
		if !complete {
			return
		}
		if !bytes.Equal(tpkt(payload), raw[:n]) {
			t.Fatalf("frame %x decoded to %d bytes, payload %x, which re-encodes as %x", raw, n, payload, tpkt(payload))
		}
	})
}

// frameProbe is a stepper that pulls TPKT frames off its input the way the
// server does and keeps a copy of the first payload, or the error that ended
// the session.
type frameProbe struct {
	payload []byte
	err     error
}

func (p *frameProbe) Step(c *netsim.ServerConv, ev netsim.ConvEvent) netsim.StepVerdict {
	switch ev {
	case netsim.EvOpen:
		return netsim.StepMore
	case netsim.EvData:
		v, err := netsim.Frames(c, decodeTPKT, p.keep)
		p.err = err
		return v
	}
	return netsim.StepDone
}

// keep copies the payload, which aliases the input, and ends the session.
func (p *frameProbe) keep(_ *netsim.ServerConv, payload []byte) netsim.StepVerdict {
	p.payload = append([]byte{}, payload...)
	return netsim.StepDone
}

// firstFrameByteByByte writes raw to a frameProbe one byte per write and
// reports what it decoded; both are nil when raw ends mid-frame.
func firstFrameByteByByte(raw []byte) ([]byte, error) {
	probe := &frameProbe{}
	client := netsim.Converse(probe, netsim.MustParseIPv4("192.0.2.9"),
		netsim.Endpoint{IP: netsim.MustParseIPv4("10.0.0.2"), Port: 102}, netsim.ExperimentStart)
	for i := range raw {
		if _, err := client.Write(raw[i : i+1]); err != nil {
			break // the probe has its frame or its error
		}
	}
	_ = client.Close()
	return probe.payload, probe.err
}
