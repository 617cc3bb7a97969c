package honeypot

import (
	"strings"

	"openhire/internal/iot"
	"openhire/internal/netsim"
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

// classifyShellCommands labels a post-auth command list: download commands
// indicate a malware dropper.
func classifyShellCommands(cmds []string) (AttackType, string) {
	for _, c := range cmds {
		lc := strings.ToLower(c)
		if strings.Contains(lc, "wget ") || strings.Contains(lc, "curl ") ||
			strings.Contains(lc, "tftp ") || strings.Contains(lc, "ftpget") {
			return AttackMalware, c
		}
	}
	if len(cmds) > 0 {
		return AttackBruteForce, strings.Join(cmds, "; ")
	}
	return AttackScan, ""
}

// telnetService builds a Telnet service whose events flow into the log.
func telnetService(h *Honeypot, cfg telnet.Config) Service {
	cfg.OnEvent = func(ev telnet.Event) {
		e := Event{Time: ev.Time, Protocol: iot.ProtoTelnet, Src: ev.Remote,
			Username: ev.Username, Password: ev.Password}
		switch {
		case len(ev.Commands) > 0:
			e.Type, e.Detail = classifyShellCommands(ev.Commands)
			if e.Type == AttackMalware {
				e.Payload = []byte(e.Detail)
			}
		case ev.Username != "" || ev.Password != "":
			e.Type = AttackBruteForce
		default:
			e.Type = AttackScan
		}
		h.Record(e)
	}
	return Service{Port: 23, Transport: netsim.TCP, Protocol: iot.ProtoTelnet,
		Stream: telnet.NewServer(cfg)}
}

// sshService builds an SSH service feeding the log.
func sshService(h *Honeypot, cfg ssh.Config) Service {
	cfg.OnEvent = func(ev ssh.Event) {
		e := Event{Time: ev.Time, Protocol: iot.ProtoSSH, Src: ev.Remote}
		switch {
		case len(ev.Commands) > 0:
			e.Type, e.Detail = classifyShellCommands(ev.Commands)
			if e.Type == AttackMalware {
				e.Payload = []byte(e.Detail)
			}
		case len(ev.Attempts) >= 4:
			e.Type = AttackDictionary
		case len(ev.Attempts) > 0:
			e.Type = AttackBruteForce
		default:
			e.Type = AttackScan
		}
		if len(ev.Attempts) > 0 {
			e.Username = ev.Attempts[len(ev.Attempts)-1].Username
			e.Password = ev.Attempts[len(ev.Attempts)-1].Password
		}
		h.Record(e)
		// Dictionary runs log each attempted pair for Table 12.
		for _, cred := range ev.Attempts[:max(0, len(ev.Attempts)-1)] {
			h.Record(Event{Time: ev.Time, Protocol: iot.ProtoSSH, Src: ev.Remote,
				Type: AttackBruteForce, Username: cred.Username, Password: cred.Password})
		}
	}
	return Service{Port: 22, Transport: netsim.TCP, Protocol: iot.ProtoSSH,
		Stream: ssh.NewServer(cfg)}
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// mqttService builds an MQTT broker feeding the log.
func mqttService(h *Honeypot, topicSeed map[string]string) Service {
	broker := mqtt.NewBroker(mqtt.BrokerConfig{
		OnEvent: func(ev mqtt.Event) {
			e := Event{Time: ev.Time, Protocol: iot.ProtoMQTT, Src: ev.Remote,
				Username: ev.Username, Password: ev.Password}
			switch ev.Kind {
			case mqtt.EventPublish:
				e.Type = AttackPoisoning
				e.Detail = ev.Topic
				e.Payload = ev.Payload
			case mqtt.EventSysAccess:
				e.Type = AttackScan
				e.Detail = "$SYS access: " + ev.Topic
			default:
				e.Type = AttackScan
				e.Detail = ev.Topic
			}
			h.floodUpgrade(&e)
			h.Record(e)
		},
	})
	for topic, value := range topicSeed {
		broker.Retain(topic, []byte(value))
	}
	return Service{Port: 1883, Transport: netsim.TCP, Protocol: iot.ProtoMQTT,
		Stream: broker}
}

// amqpService builds an AMQP broker feeding the log.
func amqpService(h *Honeypot) Service {
	srv := amqp.NewServer(amqp.ServerConfig{
		OnEvent: func(ev amqp.Event) {
			e := Event{Time: ev.Time, Protocol: iot.ProtoAMQP, Src: ev.Remote,
				Username: ev.Username}
			switch ev.Kind {
			case amqp.EventPublish:
				e.Type = AttackPoisoning
				e.Detail = ev.Exchange
				e.Payload = ev.Body
			default:
				e.Type = AttackScan
			}
			h.floodUpgrade(&e)
			h.Record(e)
		},
	})
	return Service{Port: 5672, Transport: netsim.TCP, Protocol: iot.ProtoAMQP,
		Stream: srv}
}

// coapService builds a CoAP endpoint feeding the log.
func coapService(h *Honeypot, device string) Service {
	srv := coap.NewServer(coap.ServerConfig{
		Policy:    coap.AccessOpen,
		Resources: coap.DefaultSensorResources(device),
		OnEvent: func(ev coap.RequestEvent) {
			e := Event{Time: h.Clock.Now(), Protocol: iot.ProtoCoAP, Src: ev.From,
				Detail: ev.Path}
			switch {
			case ev.Code == coap.CodePUT || ev.Code == coap.CodePOST || ev.Code == coap.CodeDELETE:
				e.Type = AttackPoisoning
				e.Payload = ev.Payload
			default:
				e.Type = AttackScan
			}
			h.floodUpgrade(&e)
			h.Record(e)
		},
	})
	return Service{Port: 5683, Transport: netsim.UDP, Protocol: iot.ProtoCoAP,
		Datagram: srv}
}

// upnpService builds an SSDP responder feeding the log.
func upnpService(h *Honeypot, device upnp.Device) Service {
	srv := upnp.NewResponder(upnp.ResponderConfig{
		Device:         device,
		AnswerInternet: true,
		OnEvent: func(ev upnp.RequestEvent) {
			e := Event{Time: h.Clock.Now(), Protocol: iot.ProtoUPnP, Src: ev.From,
				Type: AttackScan, Detail: ev.ST}
			h.floodUpgrade(&e)
			h.Record(e)
		},
	})
	return Service{Port: 1900, Transport: netsim.UDP, Protocol: iot.ProtoUPnP,
		Datagram: srv}
}

// xmppService builds an XMPP endpoint feeding the log.
func xmppService(h *Honeypot) Service {
	srv := xmpp.NewServer(xmpp.ServerConfig{
		Features: xmpp.Features{
			Mechanisms: []string{"PLAIN", "ANONYMOUS"},
			Domain:     "philips-hue.local",
			Software:   "thingpot",
		},
		AllowAnonymous: true,
		StanzaHandler: func(stanza string) string {
			if strings.Contains(stanza, "lights") {
				return `<iq type='result'><lights state='on'/></iq>`
			}
			return `<iq type='error'/>`
		},
		OnEvent: func(ev xmpp.Event) {
			e := Event{Time: ev.Time, Protocol: iot.ProtoXMPP, Src: ev.Remote,
				Username: ev.Username, Password: ev.Password}
			switch ev.Kind {
			case xmpp.EventAuthAttempt:
				e.Type = AttackBruteForce
				if strings.EqualFold(ev.Mechanism, "ANONYMOUS") {
					e.Type = AttackScan
					e.Detail = "anonymous bind"
				}
			case xmpp.EventStanza:
				e.Type = AttackPoisoning
				e.Detail = truncate(ev.Stanza, 80)
			default:
				e.Type = AttackScan
			}
			h.Record(e)
		},
	})
	return Service{Port: 5222, Transport: netsim.TCP, Protocol: iot.ProtoXMPP,
		Stream: srv}
}

// httpService builds an HTTP front-end feeding the log.
func httpService(h *Honeypot, title, server string) Service {
	get, post := httpx.LoginPage(title, func(string, string) bool { return false })
	srv := httpx.NewServer(httpx.ServerConfig{
		ServerHeader: server,
		Routes: map[string]httpx.Handler{
			"/":           httpx.StaticPage("<html><title>" + title + "</title><a href='/login'>login</a></html>"),
			"/login":      get,
			"/doLogin":    post,
			"/robots.txt": httpx.StaticPage("User-agent: *\nDisallow: /"),
		},
		LoginPath: "/doLogin",
		OnEvent: func(ev httpx.Event) {
			e := Event{Time: ev.Time, Protocol: iot.ProtoHTTP, Src: ev.Remote,
				Username: ev.Username, Password: ev.Password, Detail: ev.Method + " " + ev.Path}
			switch {
			case ev.Username != "" || ev.Password != "":
				e.Type = AttackBruteForce
			case ev.Method == "POST" && ev.BodySize > 4096:
				e.Type = AttackMalware
			default:
				e.Type = AttackWebScrape
			}
			if e.Type == AttackWebScrape {
				h.floodUpgrade(&e)
			}
			h.Record(e)
		},
	})
	return Service{Port: 80, Transport: netsim.TCP, Protocol: iot.ProtoHTTP,
		Stream: srv}
}

// ftpService builds an FTP endpoint feeding the log.
func ftpService(h *Honeypot) Service {
	srv := ftp.NewServer(ftp.Config{
		Banner:         "220 (vsFTPd 2.3.4)",
		AllowAnonymous: true,
		AllowWrite:     true,
		OnEvent: func(ev ftp.Event) {
			e := Event{Time: ev.Time, Protocol: iot.ProtoFTP, Src: ev.Remote,
				Username: ev.Username, Password: ev.Password}
			switch {
			case len(ev.Uploads) > 0:
				e.Type = AttackMalware
				e.Detail = ev.Uploads[0].Name
				e.Payload = ev.Uploads[0].Data
			case ev.Username != "" && !ev.LoginOK:
				e.Type = AttackBruteForce
			default:
				e.Type = AttackScan
			}
			h.Record(e)
		},
	})
	return Service{Port: 21, Transport: netsim.TCP, Protocol: iot.ProtoFTP,
		Stream: srv}
}

// smbService builds an SMB endpoint feeding the log.
func smbService(h *Honeypot) Service {
	srv := smb.NewServer(smb.Config{
		OnEvent: func(ev smb.Event) {
			e := Event{Time: ev.Time, Protocol: iot.ProtoSMB, Src: ev.Remote,
				Detail: ev.Kind.String()}
			switch ev.Kind {
			case smb.KindEternalBlue, smb.KindEternalRomance:
				e.Type = AttackExploit
			case smb.KindPayloadDrop:
				e.Type = AttackMalware
				e.Payload = ev.Payload
			default:
				e.Type = AttackScan
			}
			h.Record(e)
		},
	})
	return Service{Port: 445, Transport: netsim.TCP, Protocol: iot.ProtoSMB,
		Stream: srv}
}

// modbusService builds a Modbus endpoint feeding the log.
func modbusService(h *Honeypot) Service {
	srv := modbus.NewServer(modbus.Config{
		OnEvent: func(ev modbus.Event) {
			e := Event{Time: ev.Time, Protocol: iot.ProtoModbus, Src: ev.Remote}
			switch {
			case ev.Write:
				e.Type = AttackPoisoning
				e.Detail = "write register"
			case !ev.Valid:
				e.Type = AttackScan
				e.Detail = "invalid function code"
			default:
				e.Type = AttackScan
			}
			h.Record(e)
		},
	})
	return Service{Port: 502, Transport: netsim.TCP, Protocol: iot.ProtoModbus,
		Stream: srv}
}

// s7Service builds an S7 endpoint feeding the log.
func s7Service(h *Honeypot) Service {
	srv := s7.NewServer(s7.Config{
		OnEvent: func(ev s7.Event) {
			e := Event{Time: ev.Time, Protocol: iot.ProtoS7, Src: ev.Remote}
			switch {
			case ev.JobFlood:
				e.Type = AttackDoS
				e.Detail = "ICSA-16-299-01 job flood"
			case ev.Function == s7.FuncWrite:
				e.Type = AttackPoisoning
			default:
				e.Type = AttackScan
			}
			h.Record(e)
		},
	})
	return Service{Port: 102, Transport: netsim.TCP, Protocol: iot.ProtoS7,
		Stream: srv}
}

func truncate(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n]
}

// NewCowrie builds the Cowrie profile: SSH + Telnet with an IoT banner
// (Table 7: "SSH Server with IoT banner").
func NewCowrie(ip netsim.IPv4, clock *netsim.SimClock, log *Log) *Honeypot {
	h := New("Cowrie", "SSH Server with IoT banner", ip, clock, log)
	h.AddService(sshService(h, ssh.Config{Version: "SSH-2.0-OpenSSH_6.0p1 Debian-4+deb7u2", AcceptAll: true}))
	h.AddService(telnetService(h, telnet.Config{
		Auth:           telnet.AuthLogin,
		RawNegotiation: []byte{telnet.IAC, telnet.DO, telnet.OptNAWS},
		LoginPrompt:    "login: ",
		AcceptAll:      true,
	}))
	return h
}

// NewHosTaGe builds the HosTaGe profile: an Arduino board exposing IoT
// protocols plus SSH/HTTP/SMB (Table 7).
func NewHosTaGe(ip netsim.IPv4, clock *netsim.SimClock, log *Log) *Honeypot {
	h := New("HosTaGe", "Arduino Board with IoT Protocols", ip, clock, log)
	h.AddService(telnetService(h, telnet.Config{
		Auth: telnet.AuthLogin, NegotiateOptions: true, LoginPrompt: "login: ",
	}))
	h.AddService(mqttService(h, map[string]string{
		"arduino/sensors/temperature": "21.5",
		"arduino/sensors/smoke":       "0",
	}))
	h.AddService(amqpService(h))
	h.AddService(coapService(h, "arduino-smoke-sensor"))
	h.AddService(sshService(h, ssh.Config{Version: "SSH-2.0-dropbear_2019.78"}))
	h.AddService(httpService(h, "Arduino Web Panel", "lighttpd/1.4.35"))
	h.AddService(smbService(h))
	return h
}

// NewConpot builds the Conpot profile: a Siemens S7 PLC with SSH, Telnet,
// S7 and HTTP (Table 7).
func NewConpot(ip netsim.IPv4, clock *netsim.SimClock, log *Log) *Honeypot {
	h := New("Conpot", "Siemens S7 PLC", ip, clock, log)
	h.AddService(sshService(h, ssh.Config{Version: "SSH-2.0-OpenSSH_7.4"}))
	h.AddService(telnetService(h, telnet.Config{
		Auth:           telnet.AuthLogin,
		PreLoginBanner: "Connected to [00:13:EA:00:00:00]\r\n",
		LoginPrompt:    "login: ",
	}))
	h.AddService(s7Service(h))
	h.AddService(modbusService(h))
	h.AddService(httpService(h, "SIMATIC S7-300", "GoAhead-Webs"))
	return h
}

// NewThingPot builds the ThingPot profile: a Philips Hue bridge over XMPP
// and HTTP (Table 7).
func NewThingPot(ip netsim.IPv4, clock *netsim.SimClock, log *Log) *Honeypot {
	h := New("ThingPot", "Philips Hue Bridge", ip, clock, log)
	h.AddService(xmppService(h))
	h.AddService(httpService(h, "Philips hue personal wireless lighting", "nginx"))
	return h
}

// NewUPot builds the U-Pot profile: a Belkin Wemo smart switch over UPnP
// (Table 7).
func NewUPot(ip netsim.IPv4, clock *netsim.SimClock, log *Log) *Honeypot {
	h := New("U-Pot", "Belkin Wemo smart switch", ip, clock, log)
	h.AddService(upnpService(h, upnp.Device{
		Server:       "Unspecified, UPnP/1.0, Unspecified",
		UUID:         "Socket-1_0-221445K0101769",
		FriendlyName: "Wemo Switch",
		ModelName:    "Socket",
		Manufacturer: "Belkin International Inc.",
		DeviceType:   "urn:Belkin:device:controllee:1",
		Location:     "http://192.168.1.5:49153/setup.xml",
	}))
	return h
}

// NewDionaea builds the Dionaea profile: an Arduino IoT device with an HTTP
// front-end plus MQTT, FTP and SMB (Table 7).
func NewDionaea(ip netsim.IPv4, clock *netsim.SimClock, log *Log) *Honeypot {
	h := New("Dionaea", "Arduino IoT device with frontend", ip, clock, log)
	h.AddService(httpService(h, "Arduino IoT Dashboard", "nginx/1.14.0"))
	h.AddService(mqttService(h, map[string]string{"dionaea/device/state": "idle"}))
	h.AddService(ftpService(h))
	h.AddService(smbService(h))
	return h
}

// DeployAll builds the paper's full six-honeypot deployment (Figure 1) on
// consecutive addresses starting at base, registers them on the network,
// and returns them with the shared log.
func DeployAll(n *netsim.Network, base netsim.IPv4) ([]*Honeypot, *Log) {
	log := &Log{}
	clock := n.Clock()
	pots := []*Honeypot{
		NewHosTaGe(base, clock, log),
		NewUPot(base+1, clock, log),
		NewConpot(base+2, clock, log),
		NewThingPot(base+3, clock, log),
		NewCowrie(base+4, clock, log),
		NewDionaea(base+5, clock, log),
	}
	for _, hp := range pots {
		hp.Register(n)
	}
	return pots, log
}
