package scan

import (
	"bytes"
	"context"
	"testing"
	"time"

	"openhire/internal/iot"
	"openhire/internal/netsim"
)

// The grab is the one place bytes chosen by the scanned side enter the
// scanner: a sweep learns a verdict, a grab parses a conversation. The
// fixtures below put a hostile endpoint behind every module.

// replayHost answers every port. Over TCP it plays script back in the
// fragments plan dictates; over UDP it answers every datagram with script
// (or, when script is empty, with silence).
type replayHost struct{ script, plan []byte }

func (h replayHost) StreamService(uint16) netsim.StreamHandler { return h }

func (h replayHost) NewStepper() netsim.Stepper {
	return &replayStepper{script: h.script, plan: h.plan}
}

func (h replayHost) DatagramService(uint16) netsim.DatagramHandler {
	return netsim.DatagramHandlerFunc(func(netsim.Endpoint, []byte) []byte {
		if len(h.script) == 0 {
			return nil
		}
		return h.script
	})
}

// replayStepper ignores what the client says and spends one plan byte each
// time it runs (on the dial, then after every client write): 0 hangs up on
// the spot, b > 0 sends the next b bytes of the script. Once the plan is
// spent the rest of the script goes out in one piece and the connection
// stays open, silent, until the client gives up.
type replayStepper struct{ script, plan []byte }

func (r *replayStepper) Step(c *netsim.ServerConv, ev netsim.ConvEvent) netsim.StepVerdict {
	if ev == netsim.EvEOF || ev == netsim.EvBroken {
		return netsim.StepDone
	}
	c.Consume(len(c.Input()))
	n := len(r.script)
	if len(r.plan) > 0 {
		if r.plan[0] == 0 {
			return netsim.StepDone
		}
		n = min(n, int(r.plan[0]))
		r.plan = r.plan[1:]
	}
	if _, err := c.Write(r.script[:n]); err != nil {
		return netsim.StepDone
	}
	r.script = r.script[n:]
	return netsim.StepMore
}

// fixtureAddr is where fixture hosts live.
var fixtureAddr = netsim.MustParseIPv4("203.0.113.7")

// fixtureNetwork is a fabric with h at fixtureAddr and nothing else.
func fixtureNetwork(h netsim.Host) *netsim.Network {
	n := netsim.NewNetwork(netsim.NewSimClock(netsim.ExperimentStart))
	n.AddProvider(netsim.NewPrefix(fixtureAddr, 32), netsim.HostProviderFunc(func(netsim.IPv4) netsim.Host { return h }))
	return n
}

// recordingProxy relays every conversation to the endpoint upstream on
// fabric n and keeps the bytes that came back: the genuine article, as a
// module's own grab elicits it.
type recordingProxy struct {
	n        *netsim.Network
	upstream netsim.Endpoint
	recorded *bytes.Buffer
}

func (p recordingProxy) StreamService(uint16) netsim.StreamHandler { return p }

func (p recordingProxy) NewStepper() netsim.Stepper { return &proxyStepper{recordingProxy: p} }

func (p recordingProxy) DatagramService(uint16) netsim.DatagramHandler {
	return netsim.DatagramHandlerFunc(func(from netsim.Endpoint, payload []byte) []byte {
		resp := p.n.Query(from.IP, p.upstream, payload, netsim.ProbeOptions{})
		p.recorded.Write(resp)
		return resp
	})
}

type proxyStepper struct {
	recordingProxy
	conn *netsim.ServiceConn
}

func (p *proxyStepper) Step(c *netsim.ServerConv, ev netsim.ConvEvent) netsim.StepVerdict {
	switch ev {
	case netsim.EvOpen:
		src := c.RemoteIP()
		conn, err := p.n.Dial(context.Background(), src, p.upstream, netsim.ProbeOptions{})
		if err != nil {
			return netsim.StepDone
		}
		p.conn = conn
	case netsim.EvData:
		_, _ = p.conn.Write(c.Input())
		c.Consume(len(c.Input()))
	default:
		p.conn.Close()
		return netsim.StepDone
	}
	// Relay whatever upstream said in reply. The engine has already run it
	// to quiescence, so a read past the buffered bytes returns at once.
	buf := make([]byte, 4096)
	for {
		n, err := p.conn.Read(buf)
		p.recorded.Write(buf[:n])
		if _, werr := c.Write(buf[:n]); werr != nil {
			return netsim.StepDone
		}
		if err != nil {
			return netsim.StepMore
		}
	}
}

// grabTarget is the endpoint a module's first port names on the fixture.
func grabTarget(m ProbeModule) netsim.Endpoint {
	return netsim.Endpoint{IP: fixtureAddr, Port: m.Ports()[0]}
}

// genuineTranscripts returns, per module, everything a genuine endpoint of
// its protocol sends while the module grabs it: the first endpoint of a
// boosted universe the module's grab, relayed by a recording proxy, gets an
// answer from.
func genuineTranscripts(t testing.TB) map[iot.Protocol][]byte {
	t.Helper()
	n, _, prefix := buildTestWorld(t, 400)
	src := netsim.MustParseIPv4("130.226.0.1")
	out := make(map[iot.Protocol][]byte)
	for _, m := range goldenModules() {
		tr := m.Protocol().Transport()
		for i := uint64(0); i < prefix.Size() && out[m.Protocol()] == nil; i++ {
			upstream := netsim.Endpoint{IP: prefix.Nth(i), Port: m.Ports()[0]}
			if n.Sweep(src, upstream, tr, m.SweepSize(), netsim.ProbeOptions{}) != netsim.Open {
				continue
			}
			var recorded bytes.Buffer
			proxy := fixtureNetwork(recordingProxy{n: n, upstream: upstream, recorded: &recorded})
			if _, outcome := m.Probe(context.Background(), proxy, src, grabTarget(m), ProbeSpec{}); outcome == OutcomeOK {
				out[m.Protocol()] = recorded.Bytes()
			}
		}
		if len(out[m.Protocol()]) == 0 {
			t.Fatalf("%s: no endpoint in the universe answered the grab", m.Protocol())
		}
	}
	return out
}

// TestGrabReplaysGenuineTranscripts closes the loop on the fixtures: every
// module accepts its protocol's recorded transcript replayed whole, and
// classifies the same transcript cut in half or hung up on as anything but a
// crash.
func TestGrabReplaysGenuineTranscripts(t *testing.T) {
	transcripts := genuineTranscripts(t)
	for _, m := range goldenModules() {
		script := transcripts[m.Protocol()]
		if res, out := m.Probe(context.Background(), fixtureNetwork(replayHost{script: script}),
			1, grabTarget(m), ProbeSpec{}); out != OutcomeOK || res == nil {
			t.Errorf("%s: genuine transcript replayed whole: outcome %v", m.Protocol(), out)
		}
		for _, plan := range [][]byte{{0}, {1, 0}, {1, 1, 1}} {
			checkGrab(t, m, script[:len(script)/2], plan)
			checkGrab(t, m, script, plan)
		}
	}
}

// checkGrab grabs the replay fixture with one module and holds it to the
// ProbeModule contract.
func checkGrab(t *testing.T, m ProbeModule, script, plan []byte) {
	t.Helper()
	n := fixtureNetwork(replayHost{script: script, plan: plan})
	res, out := m.Probe(context.Background(), n, 1, grabTarget(m), ProbeSpec{Timeout: 500 * time.Millisecond})
	if (res != nil) != (out == OutcomeOK) {
		t.Fatalf("%s: result %v with outcome %v", m.Protocol(), res, out)
	}
	if res != nil && (res.IP != fixtureAddr || res.Port != m.Ports()[0] || res.Protocol != m.Protocol()) {
		t.Fatalf("%s: result names %v:%d/%s", m.Protocol(), res.IP, res.Port, res.Protocol)
	}
	// The server side of the conversation must have ended too.
	n.Quiesce()
}

// FuzzGrab replays arbitrary bytes, arbitrarily fragmented and hung up on,
// at all eight grab modules. None may panic or block, and each must return a
// Result exactly when it reports OutcomeOK.
func FuzzGrab(f *testing.F) {
	transcripts := genuineTranscripts(f)
	for _, m := range goldenModules() {
		script := transcripts[m.Protocol()]
		f.Add(script, []byte{})                                                                 // genuine, in one piece
		f.Add(script, []byte{1, 2, 3, 250})                                                     // genuine, dribbled
		f.Add(script[:len(script)/2], []byte{})                                                 // truncated, then silence
		f.Add(script[:len(script)/2], []byte{255, 0})                                           // truncated, then hung up on
		f.Add(append(bytes.Repeat(script, 64), bytes.Repeat([]byte{0xff}, 1<<16)...), []byte{}) // oversized
	}
	f.Add([]byte{}, []byte{})
	f.Add([]byte{}, []byte{0})
	f.Fuzz(func(t *testing.T, script, plan []byte) {
		for _, m := range goldenModules() {
			checkGrab(t, m, script, plan)
		}
	})
}
