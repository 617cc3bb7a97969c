package netsim_test

// budget_test.go pins what a conversation allocates: the engine's own cost
// per dial, the grabs the scan makes, end to end through the scan module,
// and an attacker's SSH credential attempt. A budget is the count this code reaches, so a change that
// brings back a per-dial allocation the result does not keep fails here
// before it shows as GC work in a benchmark.

import (
	"context"
	"testing"

	"openhire/internal/core/scan"
	"openhire/internal/iot"
	"openhire/internal/netsim"
	"openhire/internal/protocols/ssh"
)

// echo answers every client batch with itself. Stateless, it is its own
// handler, so the engine's cost is all a dial allocates.
type echo struct{}

func (e echo) NewStepper() netsim.Stepper { return e }

func (echo) Step(c *netsim.ServerConv, ev netsim.ConvEvent) netsim.StepVerdict {
	if ev != netsim.EvData {
		return netsim.StepMore
	}
	in := c.Input()
	_, _ = c.Write(in)
	c.Consume(len(in))
	return netsim.StepMore
}

type echoHost struct{}

func (echoHost) StreamService(uint16) netsim.StreamHandler     { return echo{} }
func (echoHost) DatagramService(uint16) netsim.DatagramHandler { return nil }

// allocsPerRun is testing.AllocsPerRun, skipped under the race detector.
func allocsPerRun(t *testing.T, f func()) float64 {
	t.Helper()
	if raceEnabled {
		t.Skip("the race detector drops sync.Pool Puts at random")
	}
	return testing.AllocsPerRun(200, f)
}

// TestEngineDialAllocs: a dial, one request/response round trip and the
// close allocate the per-dial handle pair and nothing else.
func TestEngineDialAllocs(t *testing.T) {
	const budget = 1
	n := netsim.NewNetwork(netsim.NewSimClock(netsim.ExperimentStart))
	n.AddProvider(netsim.MustParsePrefix("10.0.0.1/32"), netsim.HostProviderFunc(func(netsim.IPv4) netsim.Host {
		return echoHost{}
	}))
	dst := netsim.Endpoint{IP: netsim.MustParseIPv4("10.0.0.1"), Port: 7}
	msg, buf := []byte("ping\n"), make([]byte, 64)
	got := allocsPerRun(t, func() {
		conn, err := n.Dial(1, dst, netsim.ProbeOptions{})
		if err != nil {
			t.Fatal(err)
		}
		_, _ = conn.Write(msg)
		if k, _ := conn.Read(buf); k != len(msg) {
			t.Fatalf("echo read %d bytes", k)
		}
		_ = conn.Close()
	})
	if got > budget {
		t.Fatalf("a dial allocates %v objects, budget %d", got, budget)
	}
}

// grabTarget finds the first device in a test universe that speaks p and
// satisfies ok, on a network that holds the universe.
func grabTarget(t *testing.T, p iot.Protocol, ok func(iot.DeviceSpec) bool) (*netsim.Network, netsim.Endpoint) {
	t.Helper()
	prefix := netsim.MustParsePrefix("100.0.0.0/16")
	u := iot.NewUniverse(iot.UniverseConfig{Seed: 11, Prefix: prefix, DensityBoost: 40})
	n := netsim.NewNetwork(netsim.NewSimClock(netsim.ExperimentStart))
	n.AddProvider(prefix, u)
	for i := uint64(0); i < prefix.Size(); i++ {
		ip := prefix.Nth(i)
		if _, pot := u.WildHoneypot(ip); pot {
			continue
		}
		if spec, found := u.Spec(ip, p); found && ok(spec) {
			port := p.DefaultPort()
			if p == iot.ProtoTelnet {
				port = u.TelnetPort(ip)
			}
			return n, netsim.Endpoint{IP: ip, Port: port}
		}
	}
	t.Fatalf("no %s device", p)
	return nil, netsim.Endpoint{}
}

// probeAllocs is what one probe of dst by m allocates, result included.
func probeAllocs(t *testing.T, m scan.ProbeModule, n *netsim.Network, dst netsim.Endpoint) float64 {
	t.Helper()
	return allocsPerRun(t, func() {
		if _, out := m.Probe(context.Background(), n, 1, dst, scan.ProbeSpec{}); out != scan.OutcomeOK {
			t.Fatalf("probe of %v: outcome %v", dst, out)
		}
	})
}

// TestTelnetGrabAllocs: grabbing a login-gated device's banner — the
// dominant Telnet grab — costs what the Result keeps (itself, its Meta map,
// the raw banner and its text), the negotiation commands the banner
// carries, and per dial the host, the spec's password, the device's session
// (config and state in one object) and the engine's handles.
func TestTelnetGrabAllocs(t *testing.T) {
	const budget = 10
	n, dst := grabTarget(t, iot.ProtoTelnet, func(s iot.DeviceSpec) bool {
		return s.Misconfig == iot.MisconfigNone && !s.WeakCredentials
	})
	if got := probeAllocs(t, scan.TelnetModule{}, n, dst); got > budget {
		t.Fatalf("a Telnet grab allocates %v objects, budget %d", got, budget)
	}
}

// TestMQTTGrabAllocs: an open broker's grab — CONNECT, CONNACK, and the
// retained-topic listing — on a clone of the model's broker. Packets decode
// by value and encode into per-session buffers, so what is left is the
// dial (host, spec, clone, stepper, handles), the strings the decoders
// copy out, and the topic listing the Result keeps.
func TestMQTTGrabAllocs(t *testing.T) {
	const budget = 28
	n, dst := grabTarget(t, iot.ProtoMQTT, func(s iot.DeviceSpec) bool {
		return s.Misconfig == iot.MQTTNoAuth
	})
	if got := probeAllocs(t, scan.MQTTModule{}, n, dst); got > budget {
		t.Fatalf("an MQTT grab allocates %v objects, budget %d", got, budget)
	}
}

// TestXMPPGrabAllocs: an anonymous-login device's XMPP grab — the stream
// open, then the stream header and features read in place off the
// conversation — costs the dial (host, the device's config, stepper,
// handles), the stream open the probe writes, the element and the stream
// id and header the server builds, and what the Result keeps: the banner,
// its parsed features and the Meta map.
func TestXMPPGrabAllocs(t *testing.T) {
	const budget = 26
	n, dst := grabTarget(t, iot.ProtoXMPP, func(s iot.DeviceSpec) bool {
		return s.Misconfig == iot.XMPPAnonymous
	})
	if got := probeAllocs(t, scan.XMPPModule{}, n, dst); got > budget {
		t.Fatalf("an XMPP grab allocates %v objects, budget %d", got, budget)
	}
}

// TestAMQPGrabAllocs: an open broker's grab — the protocol header, then
// connection.start read in place — costs the dial (host, stepper, handles),
// the start frame the server encodes, the frame the decoder hands out, the
// server properties parsed from it and the Result.
func TestAMQPGrabAllocs(t *testing.T) {
	const budget = 43
	n, dst := grabTarget(t, iot.ProtoAMQP, func(s iot.DeviceSpec) bool {
		return s.Misconfig == iot.AMQPNoAuth
	})
	if got := probeAllocs(t, scan.AMQPModule{}, n, dst); got > budget {
		t.Fatalf("an AMQP grab allocates %v objects, budget %d", got, budget)
	}
}

// TestSSHAttemptAllocs: one credential attempt, end to end — dial, banner,
// the version line and one "user password" line, the server's verdict,
// close — against a server that admits nothing. What is left is the dial
// (stepper, handles), the banner string, the two lines the client writes,
// and the version, credential and split the server keeps for its record.
func TestSSHAttemptAllocs(t *testing.T) {
	const budget = 9
	srv := ssh.NewServer(ssh.Config{Version: "SSH-2.0-OpenSSH_7.4"})
	n := netsim.NewNetwork(netsim.NewSimClock(netsim.ExperimentStart))
	n.AddProvider(netsim.MustParsePrefix("10.0.0.2/32"), netsim.HostProviderFunc(func(netsim.IPv4) netsim.Host {
		return sshHost{srv}
	}))
	dst := netsim.Endpoint{IP: netsim.MustParseIPv4("10.0.0.2"), Port: ssh.Port}
	got := allocsPerRun(t, func() {
		conn, err := n.Dial(1, dst, netsim.ProbeOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ssh.GrabBanner(conn); err != nil {
			t.Fatal(err)
		}
		if ok, err := ssh.Login(conn, "SSH-2.0-Go", "root", "admin"); ok || err != nil {
			t.Fatalf("login: %v, %v", ok, err)
		}
		_ = conn.Close()
	})
	if got > budget {
		t.Fatalf("an SSH credential attempt allocates %v objects, budget %d", got, budget)
	}
}

// sshHost serves one SSH server on every port.
type sshHost struct{ srv *ssh.Server }

func (h sshHost) StreamService(uint16) netsim.StreamHandler   { return h.srv }
func (sshHost) DatagramService(uint16) netsim.DatagramHandler { return nil }
