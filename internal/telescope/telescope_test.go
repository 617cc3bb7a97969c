package telescope

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
	"time"
	"unsafe"

	"openhire/internal/geo"
	"openhire/internal/iot"
	"openhire/internal/netsim"
)

func sampleFlow() *FlowTuple {
	return &FlowTuple{
		UnixNano: time.Date(2021, 4, 3, 12, 30, 0, 0, time.UTC).UnixNano(),
		SrcIP:    netsim.MustParseIPv4("203.0.113.7"),
		DstIP:    netsim.MustParseIPv4("44.1.2.3"),
		SrcPort:  40000, DstPort: 23,
		Protocol: ProtoTCP, TTL: 52, TCPFlags: FlagSYN,
		IPLen: 40, SynLen: 44, SynWinLen: 65535, PacketCnt: 3,
		CountryID: country("China"), ASN: 4134, IsSpoofed: false, IsMasscan: true,
	}
}

// country returns the id of a label geo's table holds.
func country(label string) geo.CountryID {
	id, ok := geo.LookupCountry(label)
	if !ok {
		panic("no country " + label)
	}
	return id
}

// recordAt ingests a copy of ft at ordinal seq, as a one-record batch.
func recordAt(tel *Telescope, seq uint64, ft *FlowTuple) {
	tel.RecordBatch(seq, []FlowTuple{*ft})
}

// TestFlowTupleIsPointerFree fences the record's layout: no field, however
// deeply nested, is of a kind that holds a pointer, so the collector never
// scans a day's slab, and the record is 40 bytes, so a decoded one falls in
// the 48-byte size class.
func TestFlowTupleIsPointerFree(t *testing.T) {
	var walk func(path string, typ reflect.Type)
	walk = func(path string, typ reflect.Type) {
		switch typ.Kind() {
		case reflect.Struct:
			for i := 0; i < typ.NumField(); i++ {
				walk(path+"."+typ.Field(i).Name, typ.Field(i).Type)
			}
		case reflect.Array:
			walk(path+"[]", typ.Elem())
		case reflect.Pointer, reflect.UnsafePointer, reflect.String, reflect.Slice,
			reflect.Map, reflect.Chan, reflect.Func, reflect.Interface:
			t.Errorf("%s is a %s, which holds a pointer", path, typ.Kind())
		}
	}
	walk("FlowTuple", reflect.TypeOf(FlowTuple{}))
	if size := unsafe.Sizeof(FlowTuple{}); size != 40 {
		t.Errorf("FlowTuple is %d bytes, want 40", size)
	}
}

func TestBinaryRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	want := sampleFlow()
	if err := want.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if *got != *want {
		t.Fatalf("got %+v, want %+v", got, want)
	}
}

func TestBinaryRoundTripProperty(t *testing.T) {
	if err := quick.Check(func(src, dst uint32, sp, dp uint16, ttl uint8, cnt uint32, spoofed bool) bool {
		ft := &FlowTuple{
			UnixNano: 1617000000000000000,
			SrcIP:    netsim.IPv4(src), DstIP: netsim.IPv4(dst),
			SrcPort: sp, DstPort: dp, Protocol: ProtoUDP, TTL: ttl,
			PacketCnt: cnt, CountryID: country("USA"), IsSpoofed: spoofed,
		}
		var buf bytes.Buffer
		if err := ft.WriteBinary(&buf); err != nil {
			return false
		}
		got, err := ReadBinary(&buf)
		return err == nil && *got == *ft
	}, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestBinaryRejectsCorrupt(t *testing.T) {
	if _, err := ReadBinary(bytes.NewReader([]byte("XXXXgarbage-here-too"))); err != ErrBadRecord {
		t.Fatalf("err = %v", err)
	}
}

func TestBinaryStream(t *testing.T) {
	var buf bytes.Buffer
	for i := 0; i < 5; i++ {
		ft := sampleFlow()
		ft.SrcPort = uint16(1000 + i)
		if err := ft.WriteBinary(&buf); err != nil {
			t.Fatal(err)
		}
	}
	n := 0
	for {
		_, err := ReadBinary(&buf)
		if err != nil {
			break
		}
		n++
	}
	if n != 5 {
		t.Fatalf("read %d records", n)
	}
}

func TestCSVRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	want := sampleFlow()
	if err := WriteFlowsCSV(&buf, []*FlowTuple{want}); err != nil {
		t.Fatal(err)
	}
	records, err := ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(records) != 1 || *records[0] != *want {
		t.Fatalf("records %+v", records)
	}
}

func TestCSVRejectsBadLines(t *testing.T) {
	good := string(sampleFlow().AppendCSV(nil))
	if _, err := ParseCSV(good); err != nil {
		t.Fatalf("ParseCSV(%q): %v", good, err)
	}
	unknown := strings.Replace(good, ",China,", ",Atlantis,", 1) // a label outside geo's table
	for _, line := range []string{"a,b,c", "not,enough,fields,at,all", unknown} {
		if _, err := ParseCSV(line); err == nil {
			t.Errorf("parsed %q", line)
		}
	}
}

func TestDrainClears(t *testing.T) {
	tel := New(netsim.MustParsePrefix("44.0.0.0/8"), nil)
	recordAt(tel, 1, sampleFlow())
	if got := tel.Drain(); len(got) != 1 {
		t.Fatalf("drained %d", len(got))
	}
	if tel.Len() != 0 {
		t.Fatal("drain did not clear")
	}
}

// TestSameKeyRecordsStaySeparate pins that the telescope never merges: two
// records sharing a 5-tuple are two records, each keeping its own time and
// packet count, in ordinal order.
func TestSameKeyRecordsStaySeparate(t *testing.T) {
	tel := New(netsim.MustParsePrefix("44.0.0.0/8"), nil)
	later := sampleFlow()
	later.UnixNano += int64(5 * time.Hour)
	later.PacketCnt = 11
	recordAt(tel, 2, later)
	recordAt(tel, 1, sampleFlow())
	flows := tel.Flows()
	if len(flows) != 2 || *flows[0] != *sampleFlow() || *flows[1] != *later {
		t.Fatalf("flows %+v", flows)
	}
	if st := tel.Stats(); st.Flows != 2 || st.Packets != 14 {
		t.Fatalf("stats %+v, want 2 flows of 14 packets", st)
	}
}

// TestHourlyBuckets pins the hourly packet totals of the window from start:
// a flow before start — even one whose offset would truncate into hour 0 —
// or past the last hour counts nowhere, and an hour without flows is 0.
func TestHourlyBuckets(t *testing.T) {
	start := netsim.ExperimentStart
	at := func(offset time.Duration, pkts uint32) *FlowTuple {
		return &FlowTuple{UnixNano: start.Add(offset).UnixNano(), PacketCnt: pkts}
	}
	flows := []*FlowTuple{
		at(30*time.Minute, 5),
		at(90*time.Minute, 7),
		at(-time.Hour, 100),    // before window
		at(-time.Minute, 100),  // just before window
		at(100*time.Hour, 100), // after window
	}
	parts := PartitionByHour(flows, start, 3)
	buckets := make([]uint64, len(parts))
	for h, part := range parts {
		for _, ft := range part {
			buckets[h] += uint64(ft.PacketCnt)
		}
	}
	if buckets[0] != 5 || buckets[1] != 7 || buckets[2] != 0 {
		t.Fatalf("buckets %v", buckets)
	}
}

func TestProtocolOfPort(t *testing.T) {
	cases := map[uint16]iot.Protocol{
		23: iot.ProtoTelnet, 2323: iot.ProtoTelnet, 1883: iot.ProtoMQTT,
		5683: iot.ProtoCoAP, 5672: iot.ProtoAMQP, 5222: iot.ProtoXMPP,
		5269: iot.ProtoXMPP, 1900: iot.ProtoUPnP,
	}
	for port, want := range cases {
		got, ok := ProtocolOfPort(port)
		if !ok || got != want {
			t.Errorf("port %d: %v, %v", port, got, ok)
		}
	}
	if _, ok := ProtocolOfPort(80); ok {
		t.Fatal("port 80 bucketed")
	}
}

func TestAggregateByProtocolOrdering(t *testing.T) {
	mk := func(port uint16, src uint32, packets uint32) *FlowTuple {
		return &FlowTuple{SrcIP: netsim.IPv4(src), DstIP: netsim.MustParseIPv4("44.1.2.3"),
			SrcPort: 4000, DstPort: port, Protocol: ProtoTCP, PacketCnt: packets}
	}
	flows := []*FlowTuple{
		mk(23, 1, 100), mk(23, 2, 100), mk(1883, 3, 30),
		mk(5683, 4, 10), mk(80, 5, 999), // port 80 ignored
	}
	stats := AggregateByProtocol(flows)
	if len(stats) != 3 {
		t.Fatalf("stats %+v", stats)
	}
	if stats[0].Protocol != iot.ProtoTelnet || stats[0].Packets != 200 || stats[0].UniqueIPs != 2 {
		t.Fatalf("telnet row %+v", stats[0])
	}
	if stats[1].Protocol != iot.ProtoMQTT || stats[2].Protocol != iot.ProtoCoAP {
		t.Fatalf("ordering %+v", stats)
	}
}

func BenchmarkBinaryWrite(b *testing.B) {
	ft := sampleFlow()
	var buf bytes.Buffer
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if err := ft.WriteBinary(&buf); err != nil {
			b.Fatal(err)
		}
	}
}
