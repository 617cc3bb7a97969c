package attack

import (
	"context"
	"fmt"
	"strconv"

	"openhire/internal/attack/malware"
	"openhire/internal/honeypot"
	"openhire/internal/iot"
	"openhire/internal/netsim"
	"openhire/internal/prng"
	"openhire/internal/protocols/amqp"
	"openhire/internal/protocols/coap"
	"openhire/internal/protocols/ftp"
	httpx "openhire/internal/protocols/http"
	"openhire/internal/protocols/modbus"
	"openhire/internal/protocols/mqtt"
	"openhire/internal/protocols/s7"
	"openhire/internal/protocols/smb"
	"openhire/internal/protocols/ssh"
	"openhire/internal/protocols/telnet"
	"openhire/internal/protocols/upnp"
	"openhire/internal/protocols/xmpp"
)

// Executor runs one attack event against a target endpoint. Implementations
// are the protocol-level attack primitives the paper's honeypots observed.
type Executor struct {
	net    *netsim.Network
	corpus *malware.Corpus
}

// NewExecutor builds an executor over the fabric.
func NewExecutor(n *netsim.Network, corpus *malware.Corpus) *Executor {
	return &Executor{net: n, corpus: corpus}
}

// credentialFor draws a Table 12-distributed credential pair.
func credentialFor(gen *prng.Source) (string, string) {
	pair := iot.DefaultCredentials[gen.Zipf(len(iot.DefaultCredentials), 1.1)]
	return pair.User, pair.Pass
}

// attackDialAttempts bounds SYN retries per attack conversation. Botnet
// loaders retry aggressively, so a lossy path mostly delays an attack
// rather than erasing it from the honeypot log.
const attackDialAttempts = 3

// dial opens one attack connection, retrying transient fault-model drops.
// On a perfect fabric the first attempt either connects or fails
// definitively (refused / unreachable), so campaign replays without faults
// behave exactly as before. Each retry passes a higher Attempt so the fault
// model draws fresh loss for it.
func (e *Executor) dial(src netsim.IPv4, ep netsim.Endpoint) (*netsim.ServiceConn, error) {
	var (
		conn *netsim.ServiceConn
		err  error
	)
	for a := uint32(0); a < attackDialAttempts; a++ {
		conn, err = e.net.Dial(src, ep, netsim.ProbeOptions{Attempt: a})
		if err != netsim.ErrProbeTimeout {
			break
		}
	}
	return conn, err
}

// Execute performs one attack of the given type from src against the
// honeypot's service for proto. It returns an error only for simulation
// faults; refused conversations are normal.
func (e *Executor) Execute(typ honeypot.AttackType, proto iot.Protocol,
	src netsim.IPv4, dst netsim.IPv4, gen *prng.Source) error {
	port := proto.DefaultPort()
	ep := netsim.Endpoint{IP: dst, Port: port}
	switch proto {
	case iot.ProtoTelnet:
		return e.telnetAttack(typ, src, ep, gen)
	case iot.ProtoSSH:
		return e.sshAttack(typ, src, ep, gen)
	case iot.ProtoMQTT:
		return e.mqttAttack(typ, src, ep, gen)
	case iot.ProtoAMQP:
		return e.amqpAttack(typ, src, ep, gen)
	case iot.ProtoXMPP:
		return e.xmppAttack(typ, src, ep, gen)
	case iot.ProtoCoAP:
		return e.coapAttack(typ, src, ep, gen)
	case iot.ProtoUPnP:
		return e.upnpAttack(typ, src, ep, gen)
	case iot.ProtoHTTP:
		return e.httpAttack(typ, src, ep, gen)
	case iot.ProtoFTP:
		return e.ftpAttack(typ, src, ep, gen)
	case iot.ProtoSMB:
		return e.smbAttack(typ, src, ep, gen)
	case iot.ProtoS7:
		return e.s7Attack(typ, src, ep, gen)
	case iot.ProtoModbus:
		return e.modbusAttack(typ, src, ep, gen)
	default:
		return fmt.Errorf("attack: no executor for %s", proto)
	}
}

func (e *Executor) telnetAttack(typ honeypot.AttackType,
	src netsim.IPv4, ep netsim.Endpoint, gen *prng.Source) error {
	conn, err := e.dial(src, ep)
	if err != nil {
		return nil // target gone; nothing to observe
	}
	defer conn.Close()
	// An attack runs whole once started and a conversation read never
	// waits, so the telnet client's context has nothing to cut short.
	ctx := context.Background()
	switch typ {
	case honeypot.AttackMalware:
		user, pass := credentialFor(gen)
		ok, _ := telnet.Login(ctx, conn, user, pass)
		if ok {
			sample := e.corpus.Pick(gen, "telnet")
			if sample != nil {
				_, _ = telnet.Exec(conn, sample.DropperCommand)
			}
			_, _ = telnet.Exec(conn, "exit")
		}
	case honeypot.AttackBruteForce, honeypot.AttackDictionary:
		user, pass := credentialFor(gen)
		_, _ = telnet.Login(ctx, conn, user, pass)
	default: // scan: banner grab only
		_, _ = telnet.Grab(ctx, conn)
	}
	return nil
}

func (e *Executor) sshAttack(typ honeypot.AttackType,
	src netsim.IPv4, ep netsim.Endpoint, gen *prng.Source) error {
	conn, err := e.dial(src, ep)
	if err != nil {
		return nil
	}
	defer conn.Close()
	if _, err := ssh.GrabBanner(conn); err != nil {
		return nil
	}
	switch typ {
	case honeypot.AttackMalware:
		user, pass := credentialFor(gen)
		ok, _ := ssh.Login(conn, "SSH-2.0-Go-bot", user, pass)
		if ok {
			sample := e.corpus.Pick(gen, "ssh")
			if sample != nil {
				_, _ = conn.Write([]byte(sample.DropperCommand + "\n"))
			}
			_, _ = conn.Write([]byte("exit\n"))
		}
	case honeypot.AttackDictionary:
		user, pass := credentialFor(gen)
		if ok, _ := ssh.Login(conn, "SSH-2.0-libssh", user, pass); !ok {
			for i := 0; i < 4; i++ {
				u, p := credentialFor(gen)
				if ok, _ := ssh.Attempt(conn, u, p); ok {
					break
				}
			}
		}
	case honeypot.AttackBruteForce:
		user, pass := credentialFor(gen)
		_, _ = ssh.Login(conn, "SSH-2.0-paramiko", user, pass)
	default:
		// banner grab already done
	}
	return nil
}

func (e *Executor) mqttAttack(typ honeypot.AttackType,
	src netsim.IPv4, ep netsim.Endpoint, gen *prng.Source) error {
	conn, err := e.dial(src, ep)
	if err != nil {
		return nil
	}
	c := mqtt.NewClient(conn)
	defer c.Disconnect()
	if _, err := c.Connect(fmt.Sprintf("c-%08x", uint32(src)), "", ""); err != nil {
		return nil
	}
	switch typ {
	case honeypot.AttackPoisoning:
		topics := []string{"arduino/sensors/smoke", "dionaea/device/state", "plant/valve"}
		_ = c.Publish(topics[gen.Intn(len(topics))], []byte("0xdeadbeef"), true)
	case honeypot.AttackDoS:
		for i := 0; i < 5; i++ {
			_ = c.Publish("flood/"+strconv.Itoa(i), make([]byte, 512), false)
		}
	default: // scan: list $SYS
		_ = c.Subscribe("$SYS/#")
	}
	return nil
}

func (e *Executor) amqpAttack(typ honeypot.AttackType,
	src netsim.IPv4, ep netsim.Endpoint, gen *prng.Source) error {
	conn, err := e.dial(src, ep)
	if err != nil {
		return nil
	}
	defer conn.Close()
	sess, ok, err := amqp.Connect(conn, "PLAIN", "", "")
	if err != nil || !ok {
		return nil
	}
	switch typ {
	case honeypot.AttackPoisoning:
		_ = sess.Publish("amq.topic", "queue.data", []byte("poisoned"))
	case honeypot.AttackDoS:
		for i := 0; i < 5; i++ {
			_ = sess.Publish("amq.fanout", "flood", make([]byte, 512))
		}
	default:
	}
	_ = sess.Close()
	return nil
}

func (e *Executor) xmppAttack(typ honeypot.AttackType,
	src netsim.IPv4, ep netsim.Endpoint, gen *prng.Source) error {
	conn, err := e.dial(src, ep)
	if err != nil {
		return nil
	}
	defer conn.Close()
	if _, _, err := xmpp.ProbeBanner(conn, "philips-hue.local"); err != nil {
		return nil
	}
	switch typ {
	case honeypot.AttackBruteForce, honeypot.AttackDictionary:
		user, pass := credentialFor(gen)
		_, _ = xmpp.Authenticate(conn, "PLAIN", user, pass)
	case honeypot.AttackPoisoning:
		if ok, _ := xmpp.Authenticate(conn, "ANONYMOUS", "", ""); ok {
			_, _ = xmpp.SendStanza(conn, `<iq type='set'><lights state='off'/></iq>`)
		}
	default:
		_, _ = xmpp.Authenticate(conn, "ANONYMOUS", "", "")
	}
	return nil
}

func (e *Executor) coapAttack(typ honeypot.AttackType, src netsim.IPv4,
	ep netsim.Endpoint, gen *prng.Source) error {
	c := coap.NewClient(uint64(src))
	opts := netsim.ProbeOptions{}
	switch typ {
	case honeypot.AttackPoisoning:
		e.net.Query(src, ep, c.Put("/config/name", []byte("pwned")), opts)
	case honeypot.AttackDoS:
		for i := 0; i < 8; i++ {
			e.net.Query(src, ep, c.DiscoveryProbe(), opts)
		}
	default:
		e.net.Query(src, ep, c.DiscoveryProbe(), opts)
	}
	return nil
}

func (e *Executor) upnpAttack(typ honeypot.AttackType, src netsim.IPv4,
	ep netsim.Endpoint, gen *prng.Source) error {
	probe := upnp.BuildMSearch("ssdp:all")
	switch typ {
	case honeypot.AttackDoS:
		// SSDP floods are long bursts; U-Pot's log ends up >80% DoS
		// (Section 5.1.3) once the rate detector kicks in.
		for i := 0; i < 16; i++ {
			e.net.Query(src, ep, probe, netsim.ProbeOptions{})
		}
	default:
		e.net.Query(src, ep, probe, netsim.ProbeOptions{})
	}
	return nil
}

func (e *Executor) httpAttack(typ honeypot.AttackType,
	src netsim.IPv4, ep netsim.Endpoint, gen *prng.Source) error {
	conn, err := e.dial(src, ep)
	if err != nil {
		return nil
	}
	defer conn.Close()
	switch typ {
	case honeypot.AttackBruteForce, honeypot.AttackDictionary:
		user, pass := credentialFor(gen)
		_, _ = httpx.Post(conn, "/doLogin", map[string]string{
			"username": user, "password": pass})
	case honeypot.AttackDoS:
		for i := 0; i < 6; i++ {
			if _, err := httpx.Get(conn, "/"); err != nil {
				break
			}
		}
	case honeypot.AttackMalware:
		body := make([]byte, 8192) // crypto-miner injection attempt
		copy(body, "<?php eval(base64_decode(")
		_, _ = httpx.Do(conn, "POST", "/upload.php", body)
	default: // web scraping
		for _, path := range []string{"/", "/robots.txt", "/login"} {
			if _, err := httpx.Get(conn, path); err != nil {
				break
			}
		}
	}
	return nil
}

func (e *Executor) ftpAttack(typ honeypot.AttackType,
	src netsim.IPv4, ep netsim.Endpoint, gen *prng.Source) error {
	conn, err := e.dial(src, ep)
	if err != nil {
		return nil
	}
	c := ftp.NewClient(conn)
	defer c.Quit()
	if _, err := c.ReadReply(); err != nil {
		return nil
	}
	switch typ {
	case honeypot.AttackMalware:
		if ok, _ := c.Login("anonymous", "bot@"); ok {
			if sample := e.corpus.Pick(gen, "ftp"); sample != nil {
				_, _ = c.Store(sample.Variant+".bin", sample.Bytes())
			}
		}
	case honeypot.AttackBruteForce, honeypot.AttackDictionary:
		user, pass := credentialFor(gen)
		_, _ = c.Login(user, pass)
	default:
		_, _ = c.Login("anonymous", "probe@")
	}
	return nil
}

func (e *Executor) smbAttack(typ honeypot.AttackType,
	src netsim.IPv4, ep netsim.Endpoint, gen *prng.Source) error {
	conn, err := e.dial(src, ep)
	if err != nil {
		return nil
	}
	defer conn.Close()
	switch typ {
	case honeypot.AttackExploit:
		kind := smb.KindEternalBlue
		if gen.Bool(0.3) {
			kind = smb.KindEternalRomance
		}
		_, _ = conn.Write(smb.BuildExploit(kind, nil)[:40])
		_, _ = smb.Probe(conn) // drain
	case honeypot.AttackMalware:
		sample := e.corpus.Pick(gen, "smb")
		payload := []byte("MZ fallback")
		if sample != nil {
			payload = sample.Bytes()
		}
		_, _ = conn.Write(smb.BuildExploit(smb.KindEternalBlue, payload))
		_, _ = smb.ReadMessage(conn)
	default:
		_, _ = smb.Probe(conn)
	}
	return nil
}

func (e *Executor) s7Attack(typ honeypot.AttackType,
	src netsim.IPv4, ep netsim.Endpoint, gen *prng.Source) error {
	conn, err := e.dial(src, ep)
	if err != nil {
		return nil
	}
	defer conn.Close()
	if err := s7.Connect(conn); err != nil {
		return nil
	}
	switch typ {
	case honeypot.AttackDoS:
		// ICSA-16-299-01: flood job requests until the device wedges.
		for i := 0; i < 80; i++ {
			if _, err := conn.Write(s7.BuildJob(s7.FuncSetupComm)); err != nil {
				break
			}
		}
		// Drain the acks before closing, as a flooder reads its socket.
		for {
			if _, err := s7.ReadTPKT(conn); err != nil {
				break
			}
		}
	case honeypot.AttackPoisoning:
		_, _ = conn.Write(s7.BuildJob(s7.FuncWrite))
	default:
		_, _ = s7.ReadModule(conn)
	}
	return nil
}

func (e *Executor) modbusAttack(typ honeypot.AttackType,
	src netsim.IPv4, ep netsim.Endpoint, gen *prng.Source) error {
	conn, err := e.dial(src, ep)
	if err != nil {
		return nil
	}
	defer conn.Close()
	switch typ {
	case honeypot.AttackPoisoning:
		_ = modbus.WriteSingle(conn, uint16(gen.Intn(16)), uint16(gen.Uint32()))
	default:
		// 90% of observed Modbus traffic used invalid function codes
		// (Section 5.1.4); scans mostly poke nonsense functions.
		if gen.Bool(0.9) {
			_, _ = modbus.RoundTrip(conn, byte(0x60+gen.Intn(16)), []byte{0, 0})
		} else {
			_, _ = modbus.ReadHolding(conn, 0, 4)
		}
	}
	return nil
}
