package classify

import (
	"testing"

	"openhire/internal/core/scan"
	"openhire/internal/iot"
)

// TestCatalogIdentifiersRoundTrip asserts the invariant that keeps the
// device catalog and the tagger from drifting apart: a scan result carrying
// a model's own persona must tag back to a model of the same device type
// (several catalog entries share identifying text, e.g. sibling camera
// models, so name-exact matching is not required — type-exact is).
func TestCatalogIdentifiersRoundTrip(t *testing.T) {
	for _, m := range iot.Catalog {
		if m.Identifier == "" || m.Protocol == iot.ProtoXMPP || m.Protocol == iot.ProtoAMQP {
			continue // XMPP/AMQP responses cannot identify devices (§4.1.2)
		}
		typ, model := TagDevice(personaResult(m))
		if model == "" {
			t.Errorf("%s (%s): persona not tagged", m.Name, m.Protocol)
			continue
		}
		if typ != m.Type {
			t.Errorf("%s: tagged as %s/%s, want type %s", m.Name, typ, model, m.Type)
		}
	}
}

// TestCatalogWeightsPositive guards the population sampler's precondition.
func TestCatalogWeightsPositive(t *testing.T) {
	for _, m := range iot.Catalog {
		if m.Weight <= 0 {
			t.Errorf("%s has non-positive weight %f", m.Name, m.Weight)
		}
		if m.Protocol == "" || m.Type == "" {
			t.Errorf("%s lacks protocol or type", m.Name)
		}
	}
}

// TestMisconfigIndicatorsAreDistinct asserts no two misconfiguration
// classes of the same protocol share an indicator string — the classifier
// would silently collapse them.
func TestMisconfigIndicatorsDistinctFromNone(t *testing.T) {
	// Representative results per class; each must classify to exactly its
	// class, mirroring Tables 2 and 3.
	cases := []struct {
		result *scan.Result
		want   iot.Misconfig
	}{
		{&scan.Result{Protocol: iot.ProtoTelnet, Meta: map[string]string{"telnet.text": "root@cam:~$ "}}, iot.TelnetNoAuthRoot},
		{&scan.Result{Protocol: iot.ProtoTelnet, Meta: map[string]string{"telnet.text": "BusyBox\r\n$ "}}, iot.TelnetNoAuth},
		{&scan.Result{Protocol: iot.ProtoMQTT, Meta: map[string]string{"mqtt.code": "0"}}, iot.MQTTNoAuth},
		{&scan.Result{Protocol: iot.ProtoAMQP, Meta: map[string]string{"amqp.version": "2.7.1"}}, iot.AMQPNoAuth},
		{&scan.Result{Protocol: iot.ProtoXMPP, Meta: map[string]string{"xmpp.mechanisms": "ANONYMOUS"}}, iot.XMPPAnonymous},
		{&scan.Result{Protocol: iot.ProtoXMPP, Meta: map[string]string{"xmpp.mechanisms": "PLAIN", "xmpp.tls": "false"}}, iot.XMPPNoEncryption},
		{&scan.Result{Protocol: iot.ProtoCoAP, Meta: map[string]string{"coap.body": "220-Admin x", "coap.disclosed": "true"}}, iot.CoAPNoAuthAdmin},
		{&scan.Result{Protocol: iot.ProtoCoAP, Meta: map[string]string{"coap.body": "</a>", "coap.disclosed": "true"}}, iot.CoAPReflector},
		{&scan.Result{Protocol: iot.ProtoUPnP, Meta: map[string]string{"upnp.usn": "uuid:x::upnp:rootdevice"}}, iot.UPnPReflector},
		{&scan.Result{Protocol: iot.ProtoTR069, Meta: map[string]string{"tr069.noauth": "true"}}, iot.TR069NoAuth},
		{&scan.Result{Protocol: iot.ProtoSMB, Meta: map[string]string{"smb.dialect": "NT LM 0.12"}}, iot.SMBv1Enabled},
	}
	seen := make(map[iot.Misconfig]bool)
	for _, c := range cases {
		f := Classify(c.result)
		if f.Misconfig != c.want {
			t.Errorf("classified %v, want %v (meta %v)", f.Misconfig, c.want, c.result.Meta)
		}
		if seen[c.want] {
			t.Errorf("class %v covered twice", c.want)
		}
		seen[c.want] = true
	}
}
