package netsim

import (
	"context"
	"errors"
	"math/rand/v2"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// portHost listens on exactly one port of one transport.
type portHost struct {
	transport Transport
	port      uint16
}

func (h portHost) StreamService(port uint16) StreamHandler {
	if h.transport == TCP && port == h.port {
		return echoHandler{}
	}
	return nil
}

func (h portHost) DatagramService(port uint16) DatagramHandler {
	if h.transport == UDP && port == h.port {
		return DatagramHandlerFunc(func(Endpoint, []byte) []byte { return []byte("pong") })
	}
	return nil
}

// derivedProvider is a provider with the port-level fast path, like the IoT
// universe: hosts maps the addresses it populates. hostBuilt counts Host
// calls so tests can see when the fast path spared one.
type derivedProvider struct {
	hosts     map[IPv4]portHost
	hostBuilt atomic.Int64
}

func (p *derivedProvider) Host(ip IPv4) Host {
	p.hostBuilt.Add(1)
	if h, ok := p.hosts[ip]; ok {
		return h
	}
	return nil
}

func (p *derivedProvider) PortOpen(ip IPv4, transport Transport, port uint16) bool {
	h, ok := p.hosts[ip]
	return ok && h.transport == transport && h.port == port
}

// TestSweepProviderPrecedence pins that the port-level lookup keeps
// lookupHost's precedence: for every (address, transport, port) of a fabric
// that stacks a static /32 and a more specific derived provider on a derived
// universe, Sweep answers Open exactly when Dial or QueryX reach a service.
func TestSweepProviderPrecedence(t *testing.T) {
	var (
		static   = MustParseIPv4("10.1.0.5") // static /32 inside both derived prefixes
		shadowed = MustParseIPv4("10.1.0.6") // the /16 has a host here, port 7 closed
		through  = MustParseIPv4("10.1.0.7") // the /16 has nothing here, the /8 does
		wideOnly = MustParseIPv4("10.2.0.1") // only the /8 covers it
		dark     = MustParseIPv4("10.3.0.1")
	)
	wide := &derivedProvider{hosts: map[IPv4]portHost{
		static:   {TCP, 7},
		shadowed: {TCP, 7},
		through:  {TCP, 7},
		wideOnly: {UDP, 9},
	}}
	mid := &derivedProvider{hosts: map[IPv4]portHost{shadowed: {TCP, 8}}}
	n := NewNetwork(NewSimClock(ExperimentStart))
	n.AddProvider(MustParsePrefix("10.0.0.0/8"), wide)
	n.AddProvider(MustParsePrefix("10.1.0.0/16"), mid)
	n.AddProvider(NewPrefix(static, 32), HostProviderFunc(func(IPv4) Host { return portHost{UDP, 9} }))

	want := map[Endpoint]map[Transport]bool{
		{IP: static, Port: 9}:   {UDP: true}, // the /32 wins ...
		{IP: static, Port: 7}:   {},          // ... and shadows the universe's open port
		{IP: shadowed, Port: 8}: {TCP: true}, // most specific derived host decides
		{IP: shadowed, Port: 7}: {},          // its closed port does not fall through
		{IP: through, Port: 7}:  {TCP: true}, // no host in the /16: falls through to the /8
		{IP: wideOnly, Port: 9}: {UDP: true},
		{IP: dark, Port: 7}:     {},
	}
	for dst, open := range want {
		for _, tr := range []Transport{TCP, UDP} {
			reached := false
			if tr == TCP {
				conn, err := n.Dial(context.Background(), 1, dst, ProbeOptions{})
				if reached = err == nil; reached {
					conn.Close()
				}
			} else {
				_, qo := n.QueryX(1, dst, []byte("x"), ProbeOptions{})
				reached = qo == QueryAnswered
			}
			if reached != open[tr] {
				t.Fatalf("%v/%v: grab reached a service = %v, want %v", dst, tr, reached, open[tr])
			}
			if got := n.Sweep(1, dst, tr, 1, ProbeOptions{}) == Open; got != reached {
				t.Errorf("%v/%v: Sweep open = %v, but the grab reached a service = %v", dst, tr, got, reached)
			}
		}
	}

	// Where no less specific provider covers the address, a closed verdict is
	// final without building the host.
	before := wide.hostBuilt.Load()
	if n.Sweep(1, Endpoint{IP: dark, Port: 7}, TCP, 0, ProbeOptions{}) != Silent {
		t.Fatal("dark address not silent")
	}
	if built := wide.hostBuilt.Load() - before; built != 0 {
		t.Fatalf("sweeping a dark address built %d hosts, want 0", built)
	}
}

// TestOctetTableEqualsLinearScan checks the per-top-octet provider table
// against the precedence rule it indexes, over generated fabrics: prefixes
// from a /0 and a /7 that span several top octets down to /32s, equal-length
// ties (the same prefix registered twice among them), providers with and
// without the port-level fast path whose nil hosts fall through, and an
// observer registered before, between or after the providers. For every
// address and port, Sweep, Dial and QueryX must reach a service exactly when
// a linear scan of the registrations — longest covering prefix with a host,
// ties to the later registration — finds one listening there.
func TestOctetTableEqualsLinearScan(t *testing.T) {
	r := rand.New(rand.NewPCG(33, 0))
	// Addresses come from four top octets and a few /24s in each, so
	// generated prefixes overlap.
	addr := func() IPv4 {
		return IPv4((10+r.Uint32N(4))<<24 | r.Uint32N(3)<<16 | r.Uint32N(2)<<8 | r.Uint32N(8))
	}
	bitsChoice := []int{0, 7, 8, 8, 15, 16, 16, 24, 24, 32}
	type registration struct {
		prefix Prefix
		host   func(IPv4) Host
	}
	for trial := 0; trial < 40; trial++ {
		n := NewNetwork(NewSimClock(ExperimentStart))
		var regs []registration
		const providers = 6
		observerAt := r.IntN(providers + 1)
		for k := 0; k <= providers; k++ {
			if k == observerAt {
				n.AddObserver(NewPrefix(addr(), 8), ObserverFunc(func(ProbeEvent) {}))
			}
			if k == providers {
				break
			}
			prefix := NewPrefix(addr(), bitsChoice[r.IntN(len(bitsChoice))])
			if k > 0 && r.IntN(4) == 0 {
				prefix = regs[r.IntN(k)].prefix // an exact tie
			}
			hosts := map[IPv4]portHost{}
			for i := 0; i < 24; i++ {
				hosts[addr()] = portHost{Transport(r.IntN(2)), uint16(7 + r.IntN(3))}
			}
			host := func(ip IPv4) Host {
				if h, ok := hosts[ip]; ok {
					return h
				}
				return nil
			}
			regs = append(regs, registration{prefix, host})
			if r.IntN(2) == 0 {
				n.AddProvider(prefix, &derivedProvider{hosts: hosts})
			} else {
				n.AddProvider(prefix, HostProviderFunc(host))
			}
		}
		reference := func(ip IPv4) Host {
			best := -1
			for i, reg := range regs {
				if !reg.prefix.Contains(ip) || reg.host(ip) == nil {
					continue
				}
				if best < 0 || reg.prefix.Bits >= regs[best].prefix.Bits {
					best = i
				}
			}
			if best < 0 {
				return nil
			}
			return regs[best].host(ip)
		}
		for i := 0; i < 96; i++ {
			ip := addr()
			if i%16 == 0 {
				ip = IPv4(r.Uint32()) // mostly outside every prefix
			}
			want := reference(ip)
			for port := uint16(7); port <= 9; port++ {
				dst := Endpoint{IP: ip, Port: port}
				wantTCP := want != nil && want.StreamService(port) != nil
				wantUDP := want != nil && want.DatagramService(port) != nil
				conn, err := n.Dial(context.Background(), 1, dst, ProbeOptions{})
				if err == nil {
					conn.Close()
				}
				_, qo := n.QueryX(1, dst, []byte("x"), ProbeOptions{})
				for _, c := range []struct {
					what      string
					got, want bool
				}{
					{"Dial", err == nil, wantTCP},
					{"QueryX", qo == QueryAnswered, wantUDP},
					{"TCP Sweep", n.Sweep(1, dst, TCP, 0, ProbeOptions{}) == Open, wantTCP},
					{"UDP Sweep", n.Sweep(1, dst, UDP, 1, ProbeOptions{}) == Open, wantUDP},
				} {
					if c.got != c.want {
						t.Fatalf("trial %d, %v: %s reached a service = %v, the linear scan says %v",
							trial, dst, c.what, c.got, c.want)
					}
				}
			}
		}
	}
}

// scriptedFaults returns one plan for every probe.
type scriptedFaults struct{ plan FaultPlan }

func (f scriptedFaults) PlanProbe(IPv4, Endpoint, Transport, uint32, time.Time) FaultPlan {
	return f.plan
}
func (scriptedFaults) Blackholed(IPv4, IPv4) bool { return false }

// TestSweepFaultVerdicts pins the verdict taxonomy against the grab's: a
// flapped host is silent (Dial: unreachable, QueryX: dark), a dropped or
// too-slow probe is lost (Dial: timeout, QueryX: dropped), and stream
// pathologies do not touch a sweep.
func TestSweepFaultVerdicts(t *testing.T) {
	tcp := Endpoint{IP: MustParseIPv4("10.0.0.1"), Port: 7}
	udp := Endpoint{IP: MustParseIPv4("10.0.0.1"), Port: 9}
	opts := ProbeOptions{Timeout: 500 * time.Millisecond}
	for _, c := range []struct {
		name     string
		plan     FaultPlan
		tcp, udp Verdict
	}{
		{"healthy", FaultPlan{}, Open, Open},
		{"host down", FaultPlan{HostDown: true}, Silent, Silent},
		{"syn dropped", FaultPlan{DropSYN: true}, Lost, Open},
		{"datagram dropped", FaultPlan{DropDatagram: true}, Open, Lost},
		{"beyond patience", FaultPlan{Latency: time.Second}, Lost, Lost},
		{"within patience", FaultPlan{Latency: 100 * time.Millisecond}, Open, Open},
		{"tarpit", FaultPlan{TruncateAfter: 3}, Open, Open},
		{"reset", FaultPlan{ResetAfter: 3}, Open, Open},
	} {
		n := testNetwork()
		n.SetFaults(scriptedFaults{c.plan})
		if got := n.Sweep(1, tcp, TCP, 0, opts); got != c.tcp {
			t.Errorf("%s: TCP sweep = %v, want %v", c.name, got, c.tcp)
		}
		if got := n.Sweep(1, udp, UDP, 3, opts); got != c.udp {
			t.Errorf("%s: UDP sweep = %v, want %v", c.name, got, c.udp)
		}
		conn, err := n.Dial(context.Background(), 1, tcp, opts)
		if err == nil {
			conn.Close()
		}
		if (c.tcp == Open) != (err == nil) || (c.tcp == Lost) != errors.Is(err, ErrProbeTimeout) {
			t.Errorf("%s: TCP sweep = %v but Dial err = %v", c.name, c.tcp, err)
		}
		_, qo := n.QueryX(1, udp, []byte("abc"), opts)
		if (c.udp == Open) != (qo == QueryAnswered) || (c.udp == Lost) != (qo == QueryDropped) {
			t.Errorf("%s: UDP sweep = %v but QueryX outcome = %v", c.name, c.udp, qo)
		}
	}
}

// TestSweepEmitsTheGrabsFirstPacket pins the observer contract: the event a
// sweep delivers is field for field the first event Dial (TCP) or QueryX of
// a size-byte payload (UDP) delivers for the same flow.
func TestSweepEmitsTheGrabsFirstPacket(t *testing.T) {
	n := NewNetwork(NewSimClock(ExperimentStart))
	var seen []ProbeEvent
	n.AddObserver(MustParsePrefix("44.0.0.0/8"), ObserverFunc(func(ev ProbeEvent) { seen = append(seen, ev) }))
	src := MustParseIPv4("130.226.0.1")
	opts := ProbeOptions{TTL: 52, Masscan: true, Attempt: 2}

	tcp := Endpoint{IP: MustParseIPv4("44.1.2.3"), Port: 23}
	n.Sweep(src, tcp, TCP, 0, opts)
	_, _ = n.Dial(context.Background(), src, tcp, opts)
	udp := Endpoint{IP: MustParseIPv4("44.1.2.3"), Port: 5683}
	payload := []byte("0123456789")
	n.Sweep(src, udp, UDP, len(payload), opts)
	n.Query(src, udp, payload, opts)

	if len(seen) != 4 {
		t.Fatalf("observer saw %d events, want 4", len(seen))
	}
	if seen[0] != seen[1] {
		t.Errorf("TCP sweep event %+v differs from Dial's %+v", seen[0], seen[1])
	}
	if seen[2] != seen[3] {
		t.Errorf("UDP sweep event %+v differs from QueryX's %+v", seen[2], seen[3])
	}
	if ev := seen[2]; ev.Kind != ProbeUDP || ev.Size != len(payload) || ev.TTL != 52 || !ev.Masscan ||
		ev.Src.Port != ephemeralPort(src, udp) {
		t.Errorf("UDP sweep event %+v", ev)
	}
}

// TestSimClockConcurrent reads the clock from many goroutines while others
// move it; run under -race it is the proof Now needs no lock. Readers also
// check the clock never runs backwards.
func TestSimClockConcurrent(t *testing.T) {
	c := NewSimClock(ExperimentStart)
	stop := make(chan struct{})
	var readers, writers sync.WaitGroup
	for i := 0; i < 4; i++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			last := c.Now()
			for {
				select {
				case <-stop:
					return
				default:
				}
				now := c.Now()
				if now.Before(last) {
					t.Errorf("clock went backwards: %v after %v", now, last)
					return
				}
				last = now
			}
		}()
	}
	const steps = 2000
	for i := 0; i < 2; i++ {
		writers.Add(1)
		go func(i int) {
			defer writers.Done()
			for k := 0; k < steps; k++ {
				if i == 0 {
					c.Advance(time.Second)
					c.Advance(-time.Hour) // ignored
				} else if err := c.Set(c.Now().Add(time.Second)); err != nil && !errors.Is(err, ErrClockBackwards) {
					// A racing Advance may overtake the instant this Set
					// computed; that refusal is the contract, anything else
					// is not.
					t.Errorf("Set: %v", err)
				}
			}
		}(i)
	}
	writers.Wait()
	close(stop)
	readers.Wait()
	// Every Advance landed; Sets only ever moved forward.
	if got := c.Now().Sub(ExperimentStart); got < steps*time.Second {
		t.Fatalf("clock advanced %v, want at least %v", got, steps*time.Second)
	}
	if err := c.Set(ExperimentStart); !errors.Is(err, ErrClockBackwards) {
		t.Fatalf("Set into the past returned %v, want ErrClockBackwards", err)
	}
}
