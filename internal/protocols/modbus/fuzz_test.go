package modbus

import (
	"bytes"
	"reflect"
	"testing"

	"openhire/internal/netsim"
)

// FuzzDecodeADU holds the MBAP framer to what the honeypot needs from it on
// attacker bytes: it never panics, a decoded ADU re-encodes to exactly the
// bytes it was read from, and the server's path — the same bytes arriving
// one at a time at a stepper that pulls ADUs with netsim.Frames — yields the
// same first request, or the same error, as decoding the whole slice.
func FuzzDecodeADU(f *testing.F) {
	read := BuildRequest(1, 1, FuncReadHolding, []byte{0, 0, 0, 10})
	for _, raw := range [][]byte{
		read,
		BuildRequest(7, 0xff, FuncWriteSingle, []byte{0, 3, 0x12, 0x34}),
		BuildRequest(0xffff, 0, FuncReadDeviceIdent, []byte{0x0e, 0x01, 0x00}),
		BuildRequest(2, 1, FuncReportServerID, nil),
		append(append([]byte{}, read...), read...), // two ADUs: only the first counts
	} {
		f.Add(raw)
	}
	// Short heads and bad length fields.
	f.Add([]byte{})
	f.Add(read[:3])
	f.Add(read[:7])
	f.Add(read[:len(read)-1])
	f.Add([]byte{0, 1, 0, 0, 0, 1, 1})          // length 1: no function code
	f.Add([]byte{0, 1, 0, 0, 0x01, 0x01, 1, 3}) // length 257: over the cap
	f.Add([]byte{0, 1, 0, 9, 0, 6, 1, 3, 0, 0}) // protocol id 9
	f.Add([]byte("GET / HTTP/1.1\r\n\r\n"))     // cross-protocol probe

	f.Fuzz(func(t *testing.T, raw []byte) {
		req, n, err := decodeADU(raw)
		sreq, serr := firstADUByteByByte(raw)
		complete := err == nil && n <= len(raw)
		switch {
		case err == nil && !complete:
			if sreq != nil || serr != nil {
				t.Fatalf("whole slice needs %d bytes of %d, the stepper path got %+v, %v", n, len(raw), sreq, serr)
			}
		case serr != err:
			t.Fatalf("stepper path error %v, whole slice %v", serr, err)
		case complete && !reflect.DeepEqual(sreq, req):
			t.Fatalf("stepper path %+v, whole slice %+v", sreq, req)
		}
		if !complete {
			return
		}
		if enc := BuildRequest(req.TransactionID, req.UnitID, req.Function, req.Data); !bytes.Equal(enc, raw[:n]) {
			t.Fatalf("ADU %x re-encodes as %x", raw[:n], enc)
		}
	})
}

// aduProbe is a stepper that pulls ADUs off its input the way the server
// does and keeps a copy of the first, or the error that ended the session.
type aduProbe struct {
	req *Request
	err error
}

func (p *aduProbe) Step(c *netsim.ServerConv, ev netsim.ConvEvent) netsim.StepVerdict {
	switch ev {
	case netsim.EvOpen:
		return netsim.StepMore
	case netsim.EvData:
		v, err := netsim.Frames(c, decodeADU, p.keep)
		p.err = err
		return v
	}
	return netsim.StepDone
}

// keep copies the request, whose data aliases the input, and ends the
// session.
func (p *aduProbe) keep(_ *netsim.ServerConv, req *Request) netsim.StepVerdict {
	cp := *req
	cp.Data = bytes.Clone(req.Data)
	p.req = &cp
	return netsim.StepDone
}

// firstADUByteByByte writes raw to an aduProbe one byte per write and
// reports what it decoded; both are nil when raw ends mid-ADU.
func firstADUByteByByte(raw []byte) (*Request, error) {
	probe := &aduProbe{}
	client := netsim.Converse(probe, netsim.MustParseIPv4("192.0.2.9"),
		netsim.Endpoint{IP: netsim.MustParseIPv4("10.0.0.2"), Port: 502}, netsim.ExperimentStart)
	for i := range raw {
		if _, err := client.Write(raw[i : i+1]); err != nil {
			break // the probe has its ADU or its error
		}
	}
	_ = client.Close()
	return probe.req, probe.err
}
