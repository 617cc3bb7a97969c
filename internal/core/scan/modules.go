package scan

import (
	"context"
	"fmt"
	"sort"
	"strconv"
	"strings"

	"openhire/internal/iot"
	"openhire/internal/netsim"
	"openhire/internal/protocols/amqp"
	"openhire/internal/protocols/coap"
	"openhire/internal/protocols/mqtt"
	"openhire/internal/protocols/telnet"
	"openhire/internal/protocols/upnp"
	"openhire/internal/protocols/xmpp"
)

// AllModules returns probe modules for the paper's six protocols in Table 4
// order.
func AllModules() []ProbeModule {
	return []ProbeModule{
		AMQPModule{}, XMPPModule{}, CoAPModule{}, UPnPModule{}, MQTTModule{}, TelnetModule{},
	}
}

// ModuleFor returns the probe module for one protocol.
func ModuleFor(p iot.Protocol) (ProbeModule, bool) {
	for _, m := range AllModules() {
		if m.Protocol() == p {
			return m, true
		}
	}
	return nil, false
}

// TelnetModule probes ports 23 and 2323, grabbing the banner passively
// (Section 3.1.3: Telnet banners reveal unauthenticated console access).
type TelnetModule struct{}

// Protocol implements ProbeModule.
func (TelnetModule) Protocol() iot.Protocol { return iot.ProtoTelnet }

// Ports implements ProbeModule.
func (TelnetModule) Ports() []uint16 { return []uint16{23, 2323} }

// SweepSize implements ProbeModule.
func (TelnetModule) SweepSize() int { return 0 }

// Probe implements ProbeModule.
func (TelnetModule) Probe(ctx context.Context, n *netsim.Network, src netsim.IPv4, dst netsim.Endpoint, spec ProbeSpec) (*Result, Outcome) {
	conn, err := n.Dial(ctx, src, dst, spec.Options())
	if err != nil {
		return nil, DialOutcome(err)
	}
	defer conn.Close()
	banner, err := telnet.Grab(ctx, conn)
	// An injected pathology outranks whatever the grab made of the bytes: a
	// tarpitted banner prefix can look like a complete (just terse) banner.
	if out, faulted := ConnOutcome(conn); faulted {
		return nil, out
	}
	if err != nil {
		return nil, OutcomeNone
	}
	return &Result{
		Time: conn.DialTime, IP: dst.IP, Port: dst.Port,
		Protocol: iot.ProtoTelnet, Transport: netsim.TCP,
		Banner: banner.Raw,
		Meta:   map[string]string{"telnet.text": banner.Text},
	}, OutcomeOK
}

// MQTTModule probes port 1883 with an anonymous CONNECT and records the
// CONNACK return code — "MQTT Connection Code:0" is the Table 2 indicator.
type MQTTModule struct{}

// Protocol implements ProbeModule.
func (MQTTModule) Protocol() iot.Protocol { return iot.ProtoMQTT }

// Ports implements ProbeModule.
func (MQTTModule) Ports() []uint16 { return []uint16{1883} }

// SweepSize implements ProbeModule.
func (MQTTModule) SweepSize() int { return 0 }

// Probe implements ProbeModule.
func (MQTTModule) Probe(ctx context.Context, n *netsim.Network, src netsim.IPv4, dst netsim.Endpoint, spec ProbeSpec) (*Result, Outcome) {
	conn, err := n.Dial(ctx, src, dst, spec.Options())
	if err != nil {
		return nil, DialOutcome(err)
	}
	defer conn.Close()
	client := mqtt.NewClient(conn)
	code, err := client.Connect(probeClientID(src), "", "")
	if err != nil && err != mqtt.ErrRejected {
		if out, faulted := ConnOutcome(conn); faulted {
			return nil, out
		}
		return nil, OutcomeNone
	}
	res := &Result{
		Time: conn.DialTime, IP: dst.IP, Port: dst.Port,
		Protocol: iot.ProtoMQTT, Transport: netsim.TCP,
		Banner: mqttBanner(code),
		Meta:   map[string]string{"mqtt.code": strconv.FormatUint(uint64(code), 10)},
	}
	if code == mqtt.ConnAccepted {
		// On open brokers the probe lists topics, as the paper does
		// ("all the topics and channels on the target host are listed").
		topics, _ := client.RetainedSnapshot("#", 32)
		names := make([]string, 0, len(topics))
		for t := range topics {
			names = append(names, t)
		}
		// RetainedSnapshot returns a map; sort so the recorded result is
		// deterministic for a fixed seed.
		sort.Strings(names)
		res.Meta["mqtt.topics"] = strings.Join(names, ",")
	}
	// The CONNACK code arrived, so the host is classified even if a stream
	// pathology later cut the topic listing short: the truncation budget is
	// deterministic, so the recorded topic set still is too.
	return res, OutcomeOK
}

// mqttBanner is the recorded banner, "MQTT Connection Code:" and the code,
// in one allocation of its final size.
func mqttBanner(code mqtt.ConnackCode) []byte {
	const prefix = "MQTT Connection Code:"
	b := make([]byte, 0, len(prefix)+3)
	return strconv.AppendUint(append(b, prefix...), uint64(code), 10)
}

// probeClientID is the MQTT probe's client identifier, "probe-" and the
// source address as eight hex digits.
func probeClientID(src netsim.IPv4) string {
	const digits = "0123456789abcdef"
	id := [14]byte{'p', 'r', 'o', 'b', 'e', '-'}
	for i := 0; i < 8; i++ {
		id[len(id)-1-i] = digits[uint32(src)>>(4*i)&0xf]
	}
	return string(id[:])
}

// AMQPModule probes port 5672, reading connection.start server properties.
type AMQPModule struct{}

// Protocol implements ProbeModule.
func (AMQPModule) Protocol() iot.Protocol { return iot.ProtoAMQP }

// Ports implements ProbeModule.
func (AMQPModule) Ports() []uint16 { return []uint16{5672} }

// SweepSize implements ProbeModule.
func (AMQPModule) SweepSize() int { return 0 }

// Probe implements ProbeModule.
func (AMQPModule) Probe(ctx context.Context, n *netsim.Network, src netsim.IPv4, dst netsim.Endpoint, spec ProbeSpec) (*Result, Outcome) {
	conn, err := n.Dial(ctx, src, dst, spec.Options())
	if err != nil {
		return nil, DialOutcome(err)
	}
	defer conn.Close()
	props, err := amqp.Probe(conn)
	if err != nil {
		if out, faulted := ConnOutcome(conn); faulted {
			return nil, out
		}
		return nil, OutcomeNone
	}
	return &Result{
		Time: conn.DialTime, IP: dst.IP, Port: dst.Port,
		Protocol: iot.ProtoAMQP, Transport: netsim.TCP,
		Banner: []byte(fmt.Sprintf("Product: %s Version: %s Mechanisms: %s",
			props.Product, props.Version, strings.Join(props.Mechanisms, " "))),
		Meta: map[string]string{
			"amqp.product":    props.Product,
			"amqp.version":    props.Version,
			"amqp.mechanisms": strings.Join(props.Mechanisms, " "),
		},
	}, OutcomeOK
}

// XMPPModule probes the client port 5222 (and server port 5269), recording
// the stream features banner.
type XMPPModule struct{}

// Protocol implements ProbeModule.
func (XMPPModule) Protocol() iot.Protocol { return iot.ProtoXMPP }

// Ports implements ProbeModule.
func (XMPPModule) Ports() []uint16 { return []uint16{5222} }

// SweepSize implements ProbeModule.
func (XMPPModule) SweepSize() int { return 0 }

// Probe implements ProbeModule.
func (XMPPModule) Probe(ctx context.Context, n *netsim.Network, src netsim.IPv4, dst netsim.Endpoint, spec ProbeSpec) (*Result, Outcome) {
	conn, err := n.Dial(ctx, src, dst, spec.Options())
	if err != nil {
		return nil, DialOutcome(err)
	}
	defer conn.Close()
	banner, feats, err := xmpp.ProbeBanner(conn, "probe.invalid")
	if out, faulted := ConnOutcome(conn); faulted {
		return nil, out
	}
	if err != nil && banner == "" {
		return nil, OutcomeNone
	}
	return &Result{
		Time: conn.DialTime, IP: dst.IP, Port: dst.Port,
		Protocol: iot.ProtoXMPP, Transport: netsim.TCP,
		Banner: []byte(banner),
		Meta: map[string]string{
			"xmpp.mechanisms": strings.Join(feats.Mechanisms, " "),
			"xmpp.tls":        fmt.Sprintf("%v", feats.RequireTLS),
		},
	}, OutcomeOK
}

// CoAPModule probes UDP 5683 with the "/.well-known/core" query
// (Section 3.1.1).
type CoAPModule struct{}

// Protocol implements ProbeModule.
func (CoAPModule) Protocol() iot.Protocol { return iot.ProtoCoAP }

// Ports implements ProbeModule.
func (CoAPModule) Ports() []uint16 { return []uint16{5683} }

// coapProbeLen is the length of every discovery probe: the message id and
// token vary per target, the layout does not.
var coapProbeLen = len(coap.NewClient(0).DiscoveryProbe())

// SweepSize implements ProbeModule.
func (CoAPModule) SweepSize() int { return coapProbeLen }

// Probe implements ProbeModule.
func (CoAPModule) Probe(_ context.Context, n *netsim.Network, src netsim.IPv4, dst netsim.Endpoint, spec ProbeSpec) (*Result, Outcome) {
	client := coap.NewClient(uint64(src)<<32 | uint64(dst.IP))
	probe := client.DiscoveryProbe()
	resp, qo := n.QueryX(src, dst, probe, spec.Options())
	if qo == netsim.QueryDropped {
		return nil, OutcomeTimeout // lost in flight: worth retransmitting
	}
	if resp == nil {
		return nil, OutcomeNone // dark, closed or deliberately silent: final
	}
	body, disclosed, err := coap.ParseDiscovery(resp)
	meta := map[string]string{
		"coap.disclosed": fmt.Sprintf("%v", err == nil && disclosed),
		"coap.reqbytes":  fmt.Sprintf("%d", len(probe)),
		"coap.respbytes": fmt.Sprintf("%d", len(resp)),
	}
	if err == nil {
		meta["coap.body"] = body
	}
	return &Result{
		Time: n.Clock().Now(), IP: dst.IP, Port: dst.Port,
		Protocol: iot.ProtoCoAP, Transport: netsim.UDP,
		Response: resp, Meta: meta,
	}, OutcomeOK
}

// UPnPModule probes UDP 1900 with an ssdp:discover M-SEARCH.
type UPnPModule struct{}

// Protocol implements ProbeModule.
func (UPnPModule) Protocol() iot.Protocol { return iot.ProtoUPnP }

// Ports implements ProbeModule.
func (UPnPModule) Ports() []uint16 { return []uint16{1900} }

// upnpSearchTarget is the ST the scan's M-SEARCH asks for.
const upnpSearchTarget = "ssdp:all"

var upnpProbeLen = len(upnp.BuildMSearch(upnpSearchTarget))

// SweepSize implements ProbeModule.
func (UPnPModule) SweepSize() int { return upnpProbeLen }

// Probe implements ProbeModule.
func (UPnPModule) Probe(_ context.Context, n *netsim.Network, src netsim.IPv4, dst netsim.Endpoint, spec ProbeSpec) (*Result, Outcome) {
	probe := upnp.BuildMSearch(upnpSearchTarget)
	resp, qo := n.QueryX(src, dst, probe, spec.Options())
	if qo == netsim.QueryDropped {
		return nil, OutcomeTimeout
	}
	if resp == nil {
		return nil, OutcomeNone
	}
	meta := map[string]string{
		"upnp.reqbytes":  fmt.Sprintf("%d", len(probe)),
		"upnp.respbytes": fmt.Sprintf("%d", len(resp)),
	}
	if headers, ok := upnp.ResponseHeaders(resp); ok {
		meta["upnp.server"] = headers["SERVER"]
		meta["upnp.location"] = headers["LOCATION"]
		meta["upnp.usn"] = headers["USN"]
		meta["upnp.st"] = headers["ST"]
	}
	return &Result{
		Time: n.Clock().Now(), IP: dst.IP, Port: dst.Port,
		Protocol: iot.ProtoUPnP, Transport: netsim.UDP,
		Response: resp, Meta: meta,
	}, OutcomeOK
}
