package iot

import (
	"fmt"

	"openhire/internal/netsim"
	"openhire/internal/protocols/amqp"
	"openhire/internal/protocols/coap"
	"openhire/internal/protocols/mqtt"
	"openhire/internal/protocols/smb"
	"openhire/internal/protocols/telnet"
	"openhire/internal/protocols/tr069"
	"openhire/internal/protocols/upnp"
	"openhire/internal/protocols/xmpp"
)

// deviceHost is the device at one exposed address. It holds nothing but the
// address: a conversation asks for one port, so the spec of the protocol
// listening there is derived then, and the other protocols the device may
// speak are never touched. It implements netsim.Host.
//
// Every dial gets a fresh server, as a rebooted device would present: a
// Telnet device is one telnet.Session (config and session state in one
// allocation), an MQTT device a Clone of its model's broker, which shares
// the model's retained set until the dial publishes to it.
type deviceHost struct {
	u  *Universe
	ip netsim.IPv4
}

// StreamService implements netsim.Host.
func (h deviceHost) StreamService(port uint16) netsim.StreamHandler {
	e := h.u.listener(h.ip, netsim.TCP, port)
	if e == nil {
		return nil
	}
	spec := h.u.deriveSpec(h.ip, e)
	switch e.proto {
	case ProtoTelnet:
		return telnet.NewSession(TelnetConfig(spec))
	case ProtoMQTT:
		return h.u.mqttBase(spec.Model.MQTTTopic).Clone(mqttConfig(spec))
	case ProtoAMQP:
		return amqp.NewServer(AMQPConfig(spec))
	case ProtoXMPP:
		return xmpp.NewServer(XMPPConfig(spec))
	case ProtoTR069:
		return tr069.NewServer(TR069Config(spec))
	case ProtoSMB:
		return smb.NewServer(SMBConfig(spec))
	default:
		return nil
	}
}

// DatagramService implements netsim.Host.
func (h deviceHost) DatagramService(port uint16) netsim.DatagramHandler {
	e := h.u.listener(h.ip, netsim.UDP, port)
	if e == nil {
		return nil
	}
	spec := h.u.deriveSpec(h.ip, e)
	switch e.proto {
	case ProtoCoAP:
		return coap.NewServer(CoAPConfig(spec))
	case ProtoUPnP:
		return upnp.NewResponder(UPnPConfig(spec))
	default:
		return nil
	}
}

// TelnetConfig derives the Telnet server configuration for a spec. The
// banner and prompt bytes are what the scan's classifier matches (Table 2).
func TelnetConfig(spec DeviceSpec) telnet.Config {
	cfg := telnet.Config{
		PreLoginBanner:   spec.Model.TelnetBanner,
		NegotiateOptions: true,
		Hostname:         spec.Model.Name,
	}
	switch spec.Misconfig {
	case TelnetNoAuthRoot:
		cfg.Auth = telnet.AuthNoneRoot
		cfg.ShellPrompt = rootPrompt(spec)
	case TelnetNoAuth:
		cfg.Auth = telnet.AuthNone
		cfg.ShellPrompt = "$ "
	default:
		cfg.Auth = telnet.AuthLogin
		cfg.Username, cfg.Password = spec.Username, spec.Password
		cfg.ShellPrompt = spec.Model.TelnetPrompt
		if cfg.ShellPrompt == "" {
			cfg.ShellPrompt = "$ "
		}
	}
	return cfg
}

func rootPrompt(spec DeviceSpec) string {
	if spec.Model.TelnetPrompt != "" && spec.Model.TelnetPrompt != "$ " {
		return spec.Model.TelnetPrompt
	}
	return fmt.Sprintf("root@device-%08x:~$ ", uint32(spec.IP))
}

// mqttConfig is a device broker's authentication posture.
func mqttConfig(spec DeviceSpec) mqtt.BrokerConfig {
	return mqtt.BrokerConfig{
		RequireAuth: spec.Misconfig != MQTTNoAuth,
		Username:    spec.Username,
		Password:    spec.Password,
	}
}

// modelBroker builds the broker a device model's clones start from: the
// default $SYS tree plus the identifying retained topic from the catalog,
// if the model has one.
func modelBroker(topic string) *mqtt.Broker {
	b := mqtt.NewBroker(mqtt.BrokerConfig{})
	if topic != "" {
		b.Retain(topic, []byte("on"))
	}
	return b
}

// mqttBase returns the model broker for an identifying topic. The universe
// builds one per MQTT model up front, so a grab only clones it.
func (u *Universe) mqttBase(topic string) *mqtt.Broker {
	for _, m := range u.mqttBases {
		if m.topic == topic {
			return m.b
		}
	}
	panic("iot: no model broker for MQTT topic " + topic) // every model has one
}

// mqttBrokerBase is one model's broker, by identifying topic.
type mqttBrokerBase struct {
	topic string
	b     *mqtt.Broker
}

// AMQPConfig derives the AMQP server configuration. Misconfigured brokers
// run the Table 2 vulnerable versions and accept anonymous logins.
func AMQPConfig(spec DeviceSpec) amqp.ServerConfig {
	if spec.Misconfig == AMQPNoAuth {
		version := "2.7.1"
		if uint32(spec.IP)%2 == 0 {
			version = "2.8.4"
		}
		return amqp.ServerConfig{
			Properties: amqp.ServerProperties{
				Product: "RabbitMQ", Version: version, Platform: "Erlang/R14B04",
				Mechanisms: []string{"PLAIN", "AMQPLAIN", "ANONYMOUS"},
			},
		}
	}
	return amqp.ServerConfig{
		Properties: amqp.ServerProperties{
			Product: "RabbitMQ", Version: "3.8.9", Platform: "Erlang/OTP 23",
			Mechanisms: []string{"PLAIN", "AMQPLAIN"},
		},
		RequireAuth: true,
		Credentials: map[string]string{spec.Username: spec.Password},
	}
}

// XMPPConfig derives the XMPP server configuration per the Table 2 classes.
func XMPPConfig(spec DeviceSpec) xmpp.ServerConfig {
	domain := fmt.Sprintf("xmpp-%08x.device.local", uint32(spec.IP))
	switch spec.Misconfig {
	case XMPPAnonymous:
		return xmpp.ServerConfig{
			Features: xmpp.Features{
				Mechanisms: []string{"PLAIN", "ANONYMOUS"}, Domain: domain,
			},
			AllowAnonymous: true,
			Credentials:    map[string]string{spec.Username: spec.Password},
		}
	case XMPPNoEncryption:
		return xmpp.ServerConfig{
			Features: xmpp.Features{
				Mechanisms: []string{"PLAIN"}, Domain: domain,
			},
			Credentials: map[string]string{spec.Username: spec.Password},
		}
	default:
		return xmpp.ServerConfig{
			Features: xmpp.Features{
				Mechanisms: []string{"SCRAM-SHA-1"}, RequireTLS: true, Domain: domain,
			},
			Credentials: map[string]string{spec.Username: spec.Password},
		}
	}
}

// CoAPConfig derives the CoAP server configuration. The banner prefixes are
// the Table 3 indicators the classifier matches.
func CoAPConfig(spec DeviceSpec) coap.ServerConfig {
	resources := coap.DefaultSensorResources(spec.Model.Name)
	if spec.Model.CoAPResource != "" {
		resources = append(resources, coap.Resource{
			Path: spec.Model.CoAPResource, Type: "oic.wk.d",
			Value: []byte(spec.Model.Name), Writable: false,
		})
	}
	switch spec.Misconfig {
	case CoAPNoAuthAdmin:
		return coap.ServerConfig{Policy: coap.AccessAdmin, Banner: "220-Admin ", Resources: resources}
	case CoAPNoAuth:
		banner := "x1C "
		if uint32(spec.IP)%2 == 0 {
			banner = "220 "
		}
		return coap.ServerConfig{Policy: coap.AccessOpen, Banner: banner, Resources: resources}
	case CoAPReflector:
		return coap.ServerConfig{Policy: coap.AccessOpen, Resources: resources}
	default:
		return coap.ServerConfig{Policy: coap.AccessAuthenticated, Resources: resources}
	}
}

// TR069Config derives the CWMP connection-request endpoint configuration
// for the extension scan (Section 6 future work).
func TR069Config(spec DeviceSpec) tr069.Config {
	banner := tr069.ServerBanners[int(uint32(spec.IP))%len(tr069.ServerBanners)]
	return tr069.Config{
		ServerBanner: banner,
		RequireAuth:  spec.Misconfig != TR069NoAuth,
	}
}

// SMBConfig derives the SMB endpoint configuration for the extension scan:
// SMBv1-enabled hosts negotiate the ancient dialect, patched hosts offer
// only SMB2+.
func SMBConfig(spec DeviceSpec) smb.Config {
	dialect := "SMB 2.002"
	if spec.Misconfig == SMBv1Enabled {
		dialect = "NT LM 0.12"
	}
	return smb.Config{Dialect: dialect}
}

// UPnPConfig derives the SSDP responder configuration. Only reflector-class
// devices answer Internet-side discovery with a full response; configured
// devices answer with nothing usable (they are "exposed" in the sense of
// the port being open, but the scan's response classifier sees no
// disclosure).
func UPnPConfig(spec DeviceSpec) upnp.ResponderConfig {
	d := upnp.Device{
		Server:       spec.Model.UPnPServer,
		UUID:         fmt.Sprintf("5a34308c-1a2c-4546-ac5d-%012x", uint64(spec.IP)),
		FriendlyName: spec.Model.UPnPFriendly,
		ModelName:    spec.Model.UPnPModel,
		Manufacturer: spec.Model.UPnPManuf,
		DeviceType:   "urn:schemas-upnp-org:device:Basic:1",
		Location:     fmt.Sprintf("http://192.168.0.1:%d/rootDesc.xml", 16000+uint32(spec.IP)%4000),
	}
	return upnp.ResponderConfig{
		Device:         d,
		AnswerInternet: spec.Misconfig == UPnPReflector,
	}
}
