// Package classify implements the paper's banner-based (TCP) and
// response-based (UDP) misconfiguration identification (Section 3.1.3,
// Tables 2 and 3) plus ZTag-style device-type annotation from the Table 11
// identifier catalog.
package classify

import (
	"runtime"
	"strings"
	"sync"

	"openhire/internal/core/scan"
	"openhire/internal/iot"
)

// Finding is one classified scan result.
type Finding struct {
	Result    *scan.Result
	Misconfig iot.Misconfig
	// Indicator is the matched banner/response evidence (Table 2/3 wording).
	Indicator string
	// DeviceType and DeviceModel come from identifier tagging; empty when
	// the response is insufficient (the paper could not type XMPP/AMQP
	// endpoints, Section 4.1.2).
	DeviceType  iot.DeviceType
	DeviceModel string
}

// Misconfigured reports whether the finding represents a vulnerability.
func (f Finding) Misconfigured() bool { return f.Misconfig != iot.MisconfigNone }

// Classify applies the protocol's rules to a scan result.
func Classify(r *scan.Result) Finding {
	f := Finding{Result: r}
	switch r.Protocol {
	case iot.ProtoTelnet:
		f.Misconfig, f.Indicator = classifyTelnet(r)
	case iot.ProtoMQTT:
		f.Misconfig, f.Indicator = classifyMQTT(r)
	case iot.ProtoAMQP:
		f.Misconfig, f.Indicator = classifyAMQP(r)
	case iot.ProtoXMPP:
		f.Misconfig, f.Indicator = classifyXMPP(r)
	case iot.ProtoCoAP:
		f.Misconfig, f.Indicator = classifyCoAP(r)
	case iot.ProtoUPnP:
		f.Misconfig, f.Indicator = classifyUPnP(r)
	case iot.ProtoTR069:
		f.Misconfig, f.Indicator = classifyTR069(r)
	case iot.ProtoSMB:
		f.Misconfig, f.Indicator = classifySMB(r)
	}
	f.DeviceType, f.DeviceModel = TagDevice(r)
	return f
}

// classifyTR069 applies the extension rule: a 200 on the connection-request
// endpoint means no digest auth gates CWMP session initiation.
func classifyTR069(r *scan.Result) (iot.Misconfig, string) {
	if r.Meta["tr069.noauth"] == "true" {
		return iot.TR069NoAuth, "HTTP 200 connection request"
	}
	return iot.MisconfigNone, ""
}

// classifySMB applies the extension rule: negotiating the SMB1 dialect
// leaves the EternalBlue attack surface open.
func classifySMB(r *scan.Result) (iot.Misconfig, string) {
	if r.Meta["smb.dialect"] == "NT LM 0.12" {
		return iot.SMBv1Enabled, "Dialect: NT LM 0.12"
	}
	return iot.MisconfigNone, ""
}

// ClassifyAll classifies every result: out[i] is Classify(results[i]).
// Classification is a pure function of one result, so contiguous chunks of
// the slice go to one goroutine per processor.
func ClassifyAll(results []*scan.Result) []Finding {
	out := make([]Finding, len(results))
	fill := func(lo, hi int) {
		for i := lo; i < hi; i++ {
			out[i] = Classify(results[i])
		}
	}
	workers := min(runtime.GOMAXPROCS(0), len(results))
	if workers <= 1 {
		fill(0, len(results))
		return out
	}
	chunk := (len(results) + workers - 1) / workers
	var wg sync.WaitGroup
	for lo := 0; lo < len(results); lo += chunk {
		wg.Add(1)
		go func() {
			defer wg.Done()
			fill(lo, min(lo+chunk, len(results)))
		}()
	}
	wg.Wait()
	return out
}

// classifyTelnet applies the Table 2 Telnet rules: a shell prompt in the
// pre-auth banner means unauthenticated console access; root@/admin@
// prompts mean root console access.
func classifyTelnet(r *scan.Result) (iot.Misconfig, string) {
	text := r.Meta["telnet.text"]
	if text == "" {
		text = string(r.Banner)
	}
	// Root-shell indicators take precedence.
	for _, ind := range []string{"root@", "admin@"} {
		if i := strings.Index(text, ind); i >= 0 {
			if tail := text[i:]; strings.Contains(tail, ":~$") || strings.Contains(tail, "]$") ||
				strings.Contains(tail, "# ") {
				return iot.TelnetNoAuthRoot, strings.TrimSpace(firstLineFrom(text, i))
			}
		}
	}
	// A login prompt means auth is required: not misconfigured.
	lower := strings.ToLower(text)
	if strings.Contains(lower, "login:") || strings.Contains(lower, "password:") {
		return iot.MisconfigNone, ""
	}
	// A bare shell prompt without any login gate.
	if strings.Contains(text, "$ ") || strings.HasSuffix(strings.TrimSpace(text), "$") ||
		strings.Contains(text, "# ") {
		return iot.TelnetNoAuth, "$"
	}
	return iot.MisconfigNone, ""
}

// classifyMQTT applies the Table 2 rule: return code 0 on an anonymous
// CONNECT.
func classifyMQTT(r *scan.Result) (iot.Misconfig, string) {
	if r.Meta["mqtt.code"] == "0" {
		return iot.MQTTNoAuth, "MQTT Connection Code:0"
	}
	return iot.MisconfigNone, ""
}

// classifyAMQP applies the Table 2 rules: the known-vulnerable versions and
// brokers advertising ANONYMOUS.
func classifyAMQP(r *scan.Result) (iot.Misconfig, string) {
	version := r.Meta["amqp.version"]
	if version != "" && (strings.HasPrefix(version, "2.7.1") || strings.HasPrefix(version, "2.8.4")) {
		return iot.AMQPNoAuth, "Version: " + version
	}
	if strings.Contains(r.Meta["amqp.mechanisms"], "ANONYMOUS") {
		return iot.AMQPNoAuth, "MECHANISM ANONYMOUS"
	}
	return iot.MisconfigNone, ""
}

// classifyXMPP applies the Table 2 rules: ANONYMOUS ⇒ no auth; PLAIN
// without mandatory TLS ⇒ credentials in clear text.
func classifyXMPP(r *scan.Result) (iot.Misconfig, string) {
	mechs := r.Meta["xmpp.mechanisms"]
	if strings.Contains(mechs, "ANONYMOUS") {
		return iot.XMPPAnonymous, "MECHANISM <ANONYMOUS>"
	}
	if strings.Contains(mechs, "PLAIN") && r.Meta["xmpp.tls"] != "true" {
		return iot.XMPPNoEncryption, "MECHANISM <PLAIN>"
	}
	return iot.MisconfigNone, ""
}

// classifyCoAP applies the Table 3 rules: the 220-Admin/220/x1C banners and
// bare resource disclosure.
func classifyCoAP(r *scan.Result) (iot.Misconfig, string) {
	body := r.Meta["coap.body"]
	switch {
	case strings.HasPrefix(body, "220-Admin"):
		return iot.CoAPNoAuthAdmin, "220-Admin"
	case strings.HasPrefix(body, "220"):
		return iot.CoAPNoAuth, "220"
	case strings.HasPrefix(body, "x1C"):
		return iot.CoAPNoAuth, "x1C"
	case r.Meta["coap.disclosed"] == "true":
		return iot.CoAPReflector, "CoAP Resources"
	default:
		return iot.MisconfigNone, ""
	}
}

// classifyUPnP applies the Table 3 rule: a full SSDP response to an
// Internet-side ssdp:discover (rootdevice USN + LOCATION) is a reflection
// and disclosure vulnerability.
func classifyUPnP(r *scan.Result) (iot.Misconfig, string) {
	if r.Meta["upnp.location"] != "" || strings.Contains(r.Meta["upnp.usn"], "rootdevice") {
		return iot.UPnPReflector, "upnp:rootdevice USN"
	}
	return iot.MisconfigNone, ""
}

func firstLineFrom(s string, i int) string {
	tail := s[i:]
	if j := strings.IndexAny(tail, "\r\n"); j >= 0 {
		return tail[:j]
	}
	return tail
}

// needle is one Table 11 identifier as TagDevice searches for it: the
// distinctive substring, and the catalog entry it names.
type needle struct {
	text  string
	typ   iot.DeviceType
	model string
}

// needles returns, per protocol, the needles of iot.Catalog's entries in
// catalog order. The table is built on the first call — no package gains
// init-time work — and is read-only afterwards.
var needles = sync.OnceValue(func() map[iot.Protocol][]needle {
	table := make(map[iot.Protocol][]needle)
	for _, m := range iot.Catalog {
		if m.Identifier == "" {
			continue
		}
		text := m.Identifier
		// Table 11 identifiers are written with prefixes like
		// "Friendly Name:"/"Model Name:"; match on the value part.
		if i := strings.LastIndex(text, ": "); i >= 0 && m.Protocol == iot.ProtoUPnP {
			text = text[i+2:]
		}
		table[m.Protocol] = append(table[m.Protocol],
			needle{text: firstMeaningfulToken(text), typ: m.Type, model: m.Name})
	}
	return table
})

// TagDevice annotates a result with a device type and model by matching the
// Table 11 identifier catalog against banner/response text — the ZTag step
// from Section 4.1.2. XMPP and AMQP responses carry no device identity, so
// they never tag (matching the paper's observation).
func TagDevice(r *scan.Result) (iot.DeviceType, string) {
	if r.Protocol == iot.ProtoXMPP || r.Protocol == iot.ProtoAMQP {
		return "", ""
	}
	candidates := needles()[r.Protocol]
	if len(candidates) == 0 {
		return "", ""
	}
	hay := tagText(r)
	if hay == "" {
		return "", ""
	}
	for _, n := range candidates {
		if strings.Contains(hay, n.text) {
			return n.typ, n.model
		}
	}
	return "", ""
}

// tagText assembles the searchable text for a result.
func tagText(r *scan.Result) string {
	switch r.Protocol {
	case iot.ProtoTelnet:
		if t := r.Meta["telnet.text"]; t != "" {
			return t
		}
		return string(r.Banner)
	case iot.ProtoUPnP:
		return r.Meta["upnp.server"] + "\n" + r.Meta["upnp.usn"] + "\n" + string(r.Response)
	case iot.ProtoMQTT:
		return r.Meta["mqtt.topics"]
	case iot.ProtoCoAP:
		return r.Meta["coap.body"]
	default:
		return string(r.Banner)
	}
}

// firstMeaningfulToken trims an identifier to its distinctive prefix up to
// the first newline, keeping matches robust against banner line splits.
func firstMeaningfulToken(s string) string {
	if i := strings.IndexAny(s, "\r\n"); i >= 0 {
		s = s[:i]
	}
	return strings.TrimSpace(s)
}

// Summary tallies findings the way the paper's Tables 4/5 present them.
type Summary struct {
	ExposedByProtocol   map[iot.Protocol]int
	MisconfigByClass    map[iot.Misconfig]int
	MisconfigByProtocol map[iot.Protocol]int
	TypeByProtocol      map[iot.Protocol]map[iot.DeviceType]int
	TotalMisconfigured  int
}

// Summarize tallies a finding set.
func Summarize(findings []Finding) Summary {
	s := Summary{
		ExposedByProtocol:   make(map[iot.Protocol]int),
		MisconfigByClass:    make(map[iot.Misconfig]int),
		MisconfigByProtocol: make(map[iot.Protocol]int),
		TypeByProtocol:      make(map[iot.Protocol]map[iot.DeviceType]int),
	}
	for _, f := range findings {
		p := f.Result.Protocol
		s.ExposedByProtocol[p]++
		if f.Misconfigured() {
			s.MisconfigByClass[f.Misconfig]++
			s.MisconfigByProtocol[p]++
			s.TotalMisconfigured++
		}
		if f.DeviceType != "" {
			if s.TypeByProtocol[p] == nil {
				s.TypeByProtocol[p] = make(map[iot.DeviceType]int)
			}
			s.TypeByProtocol[p][f.DeviceType]++
		}
	}
	return s
}
