package iot

// Misconfig identifies one misconfiguration class from the paper's Tables 2,
// 3 and 5. MisconfigNone means the device is exposed but correctly
// configured (auth required, TLS enforced, WAN discovery silent).
type Misconfig uint8

// Misconfiguration classes. Names follow Table 5's vulnerability column.
const (
	MisconfigNone Misconfig = iota
	// Telnet
	TelnetNoAuth     // "No auth" — console access without login
	TelnetNoAuthRoot // "No auth, root access" — root shell without login
	// MQTT
	MQTTNoAuth // "No auth" — CONNECT accepted with code 0
	// AMQP
	AMQPNoAuth // "No auth" — vulnerable version, anonymous admitted
	// XMPP
	XMPPNoEncryption // "No encryption" — PLAIN without TLS
	XMPPAnonymous    // "Anonymous login" — ANONYMOUS mechanism admitted
	// CoAP
	CoAPNoAuthAdmin // "No auth, admin access" — 220-Admin session
	CoAPNoAuth      // "No auth" — full access (x1C / 220)
	CoAPReflector   // "Reflection-attack resource" — discloses resources
	// UPnP
	UPnPReflector // "Reflection-attack resource" — answers WAN discovery
)

// String names the class using the paper's wording.
func (m Misconfig) String() string {
	switch m {
	case MisconfigNone:
		return "none"
	case TelnetNoAuth:
		return "No auth"
	case TelnetNoAuthRoot:
		return "No auth, root access"
	case MQTTNoAuth:
		return "No auth"
	case AMQPNoAuth:
		return "No auth"
	case XMPPNoEncryption:
		return "No encryption"
	case XMPPAnonymous:
		return "Anonymous login"
	case CoAPNoAuthAdmin:
		return "No auth, admin access"
	case CoAPNoAuth:
		return "No auth"
	case CoAPReflector:
		return "Reflection-attack resource"
	case UPnPReflector:
		return "Reflection-attack resource"
	case TR069NoAuth:
		return "No auth, connection request"
	case SMBv1Enabled:
		return "SMBv1 enabled"
	default:
		return "unknown"
	}
}

// Protocol returns which protocol a class belongs to.
func (m Misconfig) Protocol() Protocol {
	switch m {
	case TelnetNoAuth, TelnetNoAuthRoot:
		return ProtoTelnet
	case MQTTNoAuth:
		return ProtoMQTT
	case AMQPNoAuth:
		return ProtoAMQP
	case XMPPNoEncryption, XMPPAnonymous:
		return ProtoXMPP
	case CoAPNoAuthAdmin, CoAPNoAuth, CoAPReflector:
		return ProtoCoAP
	case UPnPReflector:
		return ProtoUPnP
	case TR069NoAuth:
		return ProtoTR069
	case SMBv1Enabled:
		return ProtoSMB
	default:
		return ""
	}
}

// classShare is a misconfiguration class with its share of the protocol's
// exposed hosts, derived from Table 5 counts over Table 4 exposure.
type classShare struct {
	class Misconfig
	share float64
}

// misconfigShares maps each protocol to its class distribution. The shares
// are paper-count ratios:
//
//	protocol   exposed (T4)  class (T5)                     count    share
//	Telnet     7,096,465     No auth                        4,013    0.000566
//	                         No auth, root access           22,887   0.003225
//	MQTT       4,842,465     No auth                        102,891  0.021248
//	AMQP       34,542        No auth                        2,731    0.079063
//	XMPP       423,867       No encryption                  5,421    0.012789
//	                         Anonymous login                143,986  0.339696
//	CoAP       618,650       No auth, admin access          427      0.000690
//	                         No auth                        9,067    0.014656
//	                         Reflection-attack resource     543,341  0.878238
//	UPnP       1,381,940     Reflection-attack resource     998,129  0.722266
//
// Everything else is exposed-but-configured (MisconfigNone).
var misconfigShares = map[Protocol][]classShare{
	ProtoTelnet: {
		{TelnetNoAuth, 0.000566},
		{TelnetNoAuthRoot, 0.003225},
	},
	ProtoMQTT: {
		{MQTTNoAuth, 0.021248},
	},
	ProtoAMQP: {
		{AMQPNoAuth, 0.079063},
	},
	ProtoXMPP: {
		{XMPPNoEncryption, 0.012789},
		{XMPPAnonymous, 0.339696},
	},
	ProtoCoAP: {
		{CoAPNoAuthAdmin, 0.000690},
		{CoAPNoAuth, 0.014656},
		{CoAPReflector, 0.878238},
	},
	ProtoUPnP: {
		{UPnPReflector, 0.722266},
	},
}

// exposureDensity is the probability that a random IPv4 address exposes a
// protocol, from Table 4's ZMap counts over the 2^32 address space:
//
//	Telnet 7,096,465/2^32, MQTT 4,842,465/2^32, CoAP 618,650/2^32,
//	UPnP 1,381,940/2^32, XMPP 423,867/2^32, AMQP 34,542/2^32.
var exposureDensity = map[Protocol]float64{
	ProtoTelnet: 7096465.0 / (1 << 32),
	ProtoMQTT:   4842465.0 / (1 << 32),
	ProtoCoAP:   618650.0 / (1 << 32),
	ProtoUPnP:   1381940.0 / (1 << 32),
	ProtoXMPP:   423867.0 / (1 << 32),
	ProtoAMQP:   34542.0 / (1 << 32),
}

// PaperExposedCounts returns Table 4's ZMap column for comparison reports.
func PaperExposedCounts() map[Protocol]int {
	return map[Protocol]int{
		ProtoAMQP:   34542,
		ProtoXMPP:   423867,
		ProtoCoAP:   618650,
		ProtoUPnP:   1381940,
		ProtoMQTT:   4842465,
		ProtoTelnet: 7096465,
	}
}

// PaperMisconfiguredCounts returns Table 5 for comparison reports, keyed by
// class.
func PaperMisconfiguredCounts() map[Misconfig]int {
	return map[Misconfig]int{
		CoAPNoAuthAdmin:  427,
		AMQPNoAuth:       2731,
		TelnetNoAuth:     4013,
		XMPPNoEncryption: 5421,
		CoAPNoAuth:       9067,
		TelnetNoAuthRoot: 22887,
		MQTTNoAuth:       102891,
		XMPPAnonymous:    143986,
		CoAPReflector:    543341,
		UPnPReflector:    998129,
	}
}
