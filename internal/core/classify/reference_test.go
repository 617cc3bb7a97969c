package classify

import (
	"context"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"openhire/internal/core/scan"
	"openhire/internal/iot"
	"openhire/internal/netsim"
)

// refTagDevice is TagDevice as it was written before the needle table: walk
// iot.ModelsFor's copy of the protocol's catalog entries and trim each
// identifier at match time. It is the reference the table must equal.
func refTagDevice(r *scan.Result) (iot.DeviceType, string) {
	if r.Protocol == iot.ProtoXMPP || r.Protocol == iot.ProtoAMQP {
		return "", ""
	}
	hay := tagText(r)
	if hay == "" {
		return "", ""
	}
	for _, m := range iot.ModelsFor(r.Protocol) {
		if m.Identifier == "" {
			continue
		}
		needle := m.Identifier
		if i := strings.LastIndex(needle, ": "); i >= 0 && r.Protocol == iot.ProtoUPnP {
			needle = needle[i+2:]
		}
		if strings.Contains(hay, firstMeaningfulToken(needle)) {
			return m.Type, m.Name
		}
	}
	return "", ""
}

// personaResult is a scan result carrying catalog model m's own persona.
func personaResult(m iot.DeviceModel) *scan.Result {
	r := &scan.Result{
		IP: netsim.MustParseIPv4("100.0.0.50"), Protocol: m.Protocol,
		Meta: map[string]string{},
	}
	switch m.Protocol {
	case iot.ProtoTelnet:
		r.Meta["telnet.text"] = m.TelnetBanner
		r.Banner = []byte(m.TelnetBanner)
	case iot.ProtoUPnP:
		r.Meta["upnp.server"] = m.UPnPServer
		r.Response = []byte("SERVER: " + m.UPnPServer + "\r\n" +
			"FRIENDLY NAME: " + m.UPnPFriendly + "\r\n" +
			"MODEL NAME: " + m.UPnPModel + "\r\n" +
			"MANUFACTURER: " + m.UPnPManuf + "\r\n")
	case iot.ProtoMQTT:
		r.Meta["mqtt.topics"] = m.MQTTTopic
	case iot.ProtoCoAP:
		r.Meta["coap.body"] = "</x>;rt=\"x\",<" + m.CoAPResource + ">;rt=\"oic.wk.d\""
	default:
		r.Banner = []byte(m.Identifier)
	}
	return r
}

// handVectors are the results the package's other tests classify by hand,
// gathered so the reference comparison covers every one of them.
func handVectors() []*scan.Result {
	meta := func(p iot.Protocol, kv ...string) *scan.Result {
		r := &scan.Result{Protocol: p, Meta: map[string]string{}}
		for i := 0; i < len(kv); i += 2 {
			r.Meta[kv[i]] = kv[i+1]
		}
		return r
	}
	out := []*scan.Result{
		meta(iot.ProtoMQTT, "mqtt.code", "0"),
		meta(iot.ProtoMQTT, "mqtt.code", "5"),
		meta(iot.ProtoMQTT, "mqtt.topics", "octoPrint/temperature/bed,$SYS/broker/version"),
		meta(iot.ProtoAMQP, "amqp.version", "2.7.1"),
		meta(iot.ProtoAMQP, "amqp.version", "2.8.4"),
		meta(iot.ProtoAMQP, "amqp.version", "3.8.9", "amqp.mechanisms", "PLAIN AMQPLAIN"),
		meta(iot.ProtoAMQP, "amqp.version", "3.8.9", "amqp.mechanisms", "PLAIN ANONYMOUS"),
		meta(iot.ProtoXMPP, "xmpp.mechanisms", "ANONYMOUS"),
		meta(iot.ProtoXMPP, "xmpp.mechanisms", "PLAIN ANONYMOUS", "xmpp.tls", "false"),
		meta(iot.ProtoXMPP, "xmpp.mechanisms", "PLAIN", "xmpp.tls", "false"),
		meta(iot.ProtoXMPP, "xmpp.mechanisms", "SCRAM-SHA-1", "xmpp.tls", "true"),
		meta(iot.ProtoXMPP, "xmpp.mechanisms", "PLAIN", "xmpp.tls", "true"),
		meta(iot.ProtoCoAP, "coap.body", "220-Admin </x>", "coap.disclosed", "true"),
		meta(iot.ProtoCoAP, "coap.body", "220-Admin x", "coap.disclosed", "true"),
		meta(iot.ProtoCoAP, "coap.body", "220 </x>", "coap.disclosed", "true"),
		meta(iot.ProtoCoAP, "coap.body", "x1C </x>", "coap.disclosed", "true"),
		meta(iot.ProtoCoAP, "coap.body", "</a>", "coap.disclosed", "true"),
		meta(iot.ProtoCoAP, "coap.body", "</sensors/temperature>;rt=\"oic.r.temperature\"", "coap.disclosed", "true"),
		meta(iot.ProtoCoAP, "coap.disclosed", "false"),
		meta(iot.ProtoUPnP, "upnp.usn", "uuid:x::upnp:rootdevice"),
		meta(iot.ProtoUPnP, "upnp.usn", "uuid:abc::upnp:rootdevice", "upnp.location", "http://192.168.0.1:1900/rootDesc.xml"),
		meta(iot.ProtoUPnP, "upnp.server", "Linux/2.x UPnP/1.0 Avtech/1.0"),
		meta(iot.ProtoUPnP),
		meta(iot.ProtoTR069, "tr069.noauth", "true"),
		meta(iot.ProtoSMB, "smb.dialect", "NT LM 0.12"),
		{Protocol: iot.ProtoXMPP, Banner: []byte("RabbitMQ jabber whatever"), Meta: map[string]string{}},
		{Protocol: iot.ProtoAMQP, Banner: []byte("RabbitMQ jabber whatever"), Meta: map[string]string{}},
		// No meta at all: Telnet falls back to the raw banner.
		{Protocol: iot.ProtoTelnet, Banner: []byte("Welcome to ViewStation\r\n$ ")},
		{Protocol: iot.ProtoSSH, Banner: []byte("SSH-2.0-OpenSSH_5.1p1 Debian-5\r\n")},
		{},
	}
	for _, text := range []string{
		"root@hikvision:~$ ", "admin@PK5001Z:~$ ", "root@cam:~$ ", "BusyBox v1.22\r\n$ ", "BusyBox\r\n$ ",
		"192.0.0.64 login: ", "Welcome to DCS-6620\r\nlogin: ", "PK5001Z login: ", "Password: ",
	} {
		out = append(out, telnetResult(text))
	}
	return out
}

// scanCorpus is a live six-protocol scan of a dense universe: the results the
// report pass classifies, in their real mix.
func scanCorpus(t testing.TB) []*scan.Result {
	t.Helper()
	prefix := netsim.MustParsePrefix("50.0.0.0/19")
	u := iot.NewUniverse(iot.UniverseConfig{Seed: 77, Prefix: prefix, DensityBoost: 200})
	n := netsim.NewNetwork(netsim.NewSimClock(netsim.ExperimentStart))
	n.AddProvider(prefix, u)
	s := scan.NewScanner(scan.Config{
		Network: n, Source: netsim.MustParseIPv4("130.226.0.1"),
		Prefix: prefix, Seed: 5, Workers: 8,
	})
	results, _, err := s.Run(context.Background(), scan.AllModules(), nil, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	var out []*scan.Result
	for _, p := range iot.ScannedProtocols {
		out = append(out, results[p]...)
	}
	if len(out) < 1000 {
		t.Fatalf("scan corpus has only %d results", len(out))
	}
	return out
}

// referenceVectors is everything the needle-table tagger is compared on.
func referenceVectors(t testing.TB) []*scan.Result {
	var out []*scan.Result
	for _, m := range iot.Catalog {
		out = append(out, personaResult(m))
	}
	out = append(out, handVectors()...)
	return append(out, scanCorpus(t)...)
}

// TestTagDeviceEqualsReference: the needle table tags every vector as the
// ModelsFor walk did, Classify carries exactly that tag, and a tagging costs
// at most one allocation (UPnP's concatenated haystack, or the string made
// of a Telnet banner that came without text).
func TestTagDeviceEqualsReference(t *testing.T) {
	tagged := 0
	for _, r := range referenceVectors(t) {
		wantType, wantModel := refTagDevice(r)
		gotType, gotModel := TagDevice(r)
		if gotType != wantType || gotModel != wantModel {
			t.Errorf("%s %q: tagged %q/%q, reference %q/%q", r.Protocol, tagText(r), gotType, gotModel, wantType, wantModel)
		}
		if f := Classify(r); f.Result != r || f.DeviceType != wantType || f.DeviceModel != wantModel {
			t.Errorf("%s %q: Classify carries %q/%q, reference %q/%q", r.Protocol, tagText(r), f.DeviceType, f.DeviceModel, wantType, wantModel)
		}
		if wantModel != "" {
			tagged++
		}
		if allocs := testing.AllocsPerRun(10, func() { TagDevice(r) }); allocs > 1 {
			t.Errorf("%s %q: TagDevice allocates %v times", r.Protocol, tagText(r), allocs)
		}
	}
	if tagged < 500 {
		t.Fatalf("only %d vectors tag at all", tagged)
	}
}

// TestClassifyAllEqualsSerial: the chunked ClassifyAll returns Classify of
// each result, in order, at 1, 2 and 7 processors and on slices shorter than
// the processor count.
func TestClassifyAllEqualsSerial(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	vectors := referenceVectors(t)
	want := make([]Finding, len(vectors))
	for i, r := range vectors {
		want[i] = Classify(r)
	}
	for _, procs := range []int{1, 2, 7} {
		runtime.GOMAXPROCS(procs)
		for _, n := range []int{0, 1, 3, 6, 8, len(vectors)} {
			if got := ClassifyAll(vectors[:n]); !reflect.DeepEqual(got, want[:n]) {
				t.Errorf("%d procs, %d results: ClassifyAll differs from the serial loop", procs, n)
			}
		}
	}
}

// fuzzMeta lists, per protocol, the meta keys its rules read; FuzzClassify
// fills them in order from its three strings.
var fuzzMeta = map[iot.Protocol][]string{
	iot.ProtoTelnet: {"telnet.text"},
	iot.ProtoMQTT:   {"mqtt.topics", "mqtt.code"},
	iot.ProtoAMQP:   {"amqp.version", "amqp.mechanisms"},
	iot.ProtoXMPP:   {"xmpp.mechanisms", "xmpp.tls"},
	iot.ProtoCoAP:   {"coap.body", "coap.disclosed"},
	iot.ProtoUPnP:   {"upnp.server", "upnp.usn", "upnp.location"},
	iot.ProtoTR069:  {"tr069.noauth"},
	iot.ProtoSMB:    {"smb.dialect"},
}

// FuzzClassify feeds the classifier what a hostile responder controls — the
// banner, the datagram and every parsed field — under any protocol label. It
// must not panic, must keep the result it was given, and must tag exactly as
// the reference walk does.
func FuzzClassify(f *testing.F) {
	for _, m := range iot.Catalog {
		// Every Table 11 identifier, as the main text of its own protocol
		// and as the raw banner.
		f.Add(string(m.Protocol), []byte(m.Identifier), []byte(m.Identifier), m.Identifier, "", "")
	}
	for _, fam := range iot.HoneypotFamilies {
		f.Add("telnet", fam.Banner, []byte(nil), "", "", "")
		f.Add("telnet", fam.Banner, []byte(nil), string(fam.Banner), "", "")
	}
	big := []byte(strings.Repeat("login: root@x # $ Welcome to ", 2260)) // 64 KB
	f.Add("telnet", big, big, string(big), "", "")
	f.Add("upnp", []byte(nil), big, "Linux UPnP/1.0", string(big), "http://x/")
	f.Add("telnet", []byte("\xff\xfe\xc3\x28 login:\x80"), []byte("\xf0\x28\x8c\xbc"), "root@\xc3\x28:~$ \xff", "\xa0\xa1", "\xe2\x28\xa1")
	f.Add("mqtt", []byte(nil), []byte(nil), "homeassistant/light/\xff", "0", "")
	f.Add("coap", []byte(nil), []byte(nil), "220-Admin", "true", "")
	f.Add("amqp", []byte("AMQP"), []byte(nil), "2.7.1", "ANONYMOUS", "")
	f.Add("xmpp", []byte(nil), []byte(nil), "PLAIN", "false", "")
	f.Add("tr069", []byte(nil), []byte(nil), "true", "", "")
	f.Add("smb", []byte(nil), []byte(nil), "NT LM 0.12", "", "")
	f.Add("", []byte(nil), []byte(nil), "", "", "")
	f.Fuzz(func(t *testing.T, proto string, banner, response []byte, m0, m1, m2 string) {
		r := &scan.Result{Protocol: iot.Protocol(proto), Banner: banner, Response: response}
		for i, key := range fuzzMeta[r.Protocol] {
			if v := [...]string{m0, m1, m2}[i]; v != "" {
				if r.Meta == nil {
					r.Meta = map[string]string{}
				}
				r.Meta[key] = v
			}
		}
		got := Classify(r)
		wantType, wantModel := refTagDevice(r)
		if got.Result != r || got.DeviceType != wantType || got.DeviceModel != wantModel {
			t.Fatalf("%s: tagged %q/%q, reference %q/%q", proto, got.DeviceType, got.DeviceModel, wantType, wantModel)
		}
		if got.Misconfigured() && got.Misconfig.Protocol() != r.Protocol {
			t.Fatalf("%s result classified as %v", proto, got.Misconfig)
		}
	})
}

// BenchmarkClassifyAll classifies a live scan's results in their real
// protocol mix. It breaks down the spine's classify.run_ms (report_default,
// -trace 1), which is this call over ~13.6 K results.
func BenchmarkClassifyAll(b *testing.B) {
	results := scanCorpus(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(ClassifyAll(results)) != len(results) {
			b.Fatal("short")
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(results)), "ns/result")
}
