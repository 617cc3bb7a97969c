package main

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
	"time"

	"openhire/internal/core/scan"
	"openhire/internal/iot"
	"openhire/internal/netsim"
)

// sampleResults is a result set that exercises every optional field: a
// Telnet banner with IAC bytes (not valid UTF-8), Meta that JSON must
// HTML-escape, a UDP response, and a bare record.
func sampleResults() map[iot.Protocol][]*scan.Result {
	base := netsim.ExperimentStart
	return map[iot.Protocol][]*scan.Result{
		iot.ProtoTelnet: {{Time: base, IP: netsim.MustParseIPv4("100.0.0.1"), Port: 23,
			Protocol: iot.ProtoTelnet, Transport: netsim.TCP,
			Banner: []byte{0xff, 0xfb, 0x01, 'l', 'o', 'g', 'i', 'n', ':'},
			Meta:   map[string]string{"telnet.text": "login:"}}},
		iot.ProtoMQTT: {{Time: base, IP: netsim.MustParseIPv4("100.0.0.1"), Port: 1883,
			Protocol: iot.ProtoMQTT, Transport: netsim.TCP,
			Banner: []byte("MQTT Connection Code:0"),
			Meta:   map[string]string{"mqtt.code": "0", "mqtt.topic": "a<b>&\"c\""}}},
		iot.ProtoCoAP: {{Time: base.Add(time.Minute), IP: netsim.MustParseIPv4("100.0.0.2"), Port: 5683,
			Protocol: iot.ProtoCoAP, Transport: netsim.UDP,
			Response: []byte{0x60, 0x45, 0, 1},
			Meta:     map[string]string{"coap.disclosed": "true"}}},
		iot.ProtoAMQP: {{Time: base.Add(90 * time.Second), IP: netsim.MustParseIPv4("100.0.3.4"), Port: 5672,
			Protocol: iot.ProtoAMQP, Transport: netsim.TCP}},
	}
}

// storeBytes is sampleResults as the indexed result store this file format
// came from wrote it, protocols in sorted order: -out must keep writing
// these bytes, and -in must keep reading them.
const storeBytes = `{"time":"2021-04-01T00:01:30Z","ip":"100.0.3.4","port":5672,"protocol":"amqp"}
{"time":"2021-04-01T00:01:00Z","ip":"100.0.0.2","port":5683,"protocol":"coap","udp":true,"response":"YEUAAQ==","meta":{"coap.disclosed":"true"}}
{"time":"2021-04-01T00:00:00Z","ip":"100.0.0.1","port":1883,"protocol":"mqtt","banner":"TVFUVCBDb25uZWN0aW9uIENvZGU6MA==","meta":{"mqtt.code":"0","mqtt.topic":"a\u003cb\u003e\u0026\"c\""}}
{"time":"2021-04-01T00:00:00Z","ip":"100.0.0.1","port":23,"protocol":"telnet","banner":"//sBbG9naW46","meta":{"telnet.text":"login:"}}
`

func TestResultsMatchStoreBytes(t *testing.T) {
	var buf bytes.Buffer
	if n, err := writeResults(&buf, sampleResults()); err != nil || n != 4 {
		t.Fatalf("wrote %d records, err %v", n, err)
	}
	if buf.String() != storeBytes {
		t.Fatalf("encoded:\n%s\nwant:\n%s", buf.String(), storeBytes)
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	loaded, n, err := readResults(strings.NewReader(storeBytes))
	if err != nil {
		t.Fatal(err)
	}
	if n != 4 {
		t.Fatalf("loaded %d records, want 4", n)
	}
	if want := sampleResults(); !reflect.DeepEqual(loaded, want) {
		for p := range want {
			if !reflect.DeepEqual(loaded[p], want[p]) {
				t.Errorf("%s: loaded %+v, want %+v", p, *loaded[p][0], *want[p][0])
			}
		}
		t.Fatalf("loaded %d protocols, want %d", len(loaded), len(want))
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	for name, in := range map[string]string{
		"bad ip":       `{"ip":"bogus"}`,
		"bad banner":   `{"ip":"1.2.3.4","banner":"%%"}`,
		"bad response": `{"ip":"1.2.3.4","response":"%%"}`,
		"non-JSON":     `garbage`,
	} {
		if _, _, err := readResults(strings.NewReader(in)); err == nil {
			t.Errorf("%s loaded", name)
		}
	}
}

func TestEmptyStoreRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	if _, err := writeResults(&buf, nil); err != nil {
		t.Fatal(err)
	}
	loaded, n, err := readResults(&buf)
	if err != nil || n != 0 || len(loaded) != 0 {
		t.Fatalf("empty: %d records, %d protocols, %v", n, len(loaded), err)
	}
}
