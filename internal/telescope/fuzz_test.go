package telescope

import (
	"bufio"
	"bytes"
	"io"
	"strings"
	"testing"

	"openhire/internal/geo"
	"openhire/internal/netsim"
)

// readAllBinary decodes r to its end and returns the records with the error
// that ended the stream (io.EOF for a clean end).
func readAllBinary(r io.Reader) ([]*FlowTuple, error) {
	var out []*FlowTuple
	for {
		ft, err := ReadBinary(r)
		if err != nil {
			return out, err
		}
		out = append(out, ft)
	}
}

// FuzzReadBinary feeds arbitrary bytes to the binary decoder — capture files
// are input from outside the program. Nothing may panic; the buffered and
// the plain reader path must return the same records and end on the same
// error, io.EOF or ErrBadRecord and nothing else; and every record is either
// refused or re-encodes to exactly the bytes it was decoded from. The
// committed corpus holds the head of a genuine day file; the seeds below are
// one record cut at every offset inside it, then a good record followed by
// one with the longest country the length byte can announce and by one with
// a short label outside geo's table.
func FuzzReadBinary(f *testing.F) {
	rec := sampleFlow().AppendBinary(nil)
	for cut := 1; cut <= fixedLen; cut++ {
		f.Add(rec[:cut])
	}
	f.Add(append(bytes.Clone(rec), referenceBinary(sampleFlow(), strings.Repeat("c", 255))...))
	f.Add(append(bytes.Clone(rec), referenceBinary(sampleFlow(), "Atlantis")...))
	f.Fuzz(func(t *testing.T, data []byte) {
		plain, plainErr := readAllBinary(bytes.NewReader(data))
		buffered, bufferedErr := readAllBinary(bufio.NewReader(bytes.NewReader(data)))
		if plainErr != bufferedErr || (plainErr != io.EOF && plainErr != ErrBadRecord) {
			t.Fatalf("plain reader ended on %v, buffered on %v", plainErr, bufferedErr)
		}
		if len(plain) != len(buffered) {
			t.Fatalf("plain reader decoded %d records, buffered %d", len(plain), len(buffered))
		}
		var again []byte
		for i := range plain {
			if *plain[i] != *buffered[i] {
				t.Fatalf("record %d: plain reader %+v, buffered %+v", i, plain[i], buffered[i])
			}
			again = plain[i].AppendBinary(again)
		}
		if !bytes.HasPrefix(data, again) {
			t.Fatalf("%d decoded records re-encode to bytes that are not the input's head", len(plain))
		}
		if plainErr == io.EOF && len(again) != len(data) {
			t.Fatalf("clean end of stream after %d of %d bytes", len(again), len(data))
		}
	})
}

// FuzzFlowCSV round-trips arbitrary records through the CSV form: ParseCSV
// inverts AppendCSV for any field values and any country in geo's table, and
// ReadCSV reads header plus line back as the one record. A line the reference
// encoder writes with a label outside the table is refused; the record is
// then round-tripped with a table country in its place.
func FuzzFlowCSV(f *testing.F) {
	f.Add(int64(1617453000000000000), uint32(0xcb007107), uint32(0x2c010203), uint16(40000), uint16(23),
		uint8(6), uint8(52), uint8(2), uint16(40), uint16(44), uint16(65535), uint32(3), "China", uint32(4134), false, true)
	f.Add(int64(-1), uint32(0), ^uint32(0), uint16(0), ^uint16(0),
		uint8(17), uint8(255), uint8(0), uint16(28), uint16(0), uint16(0), ^uint32(0), "Korea, Republic of", uint32(0), true, false)
	f.Add(int64(0), uint32(1), uint32(2), uint16(3), uint16(4),
		uint8(5), uint8(6), uint8(7), uint16(8), uint16(9), uint16(10), uint32(11), " \ttrue,\r", uint32(12), true, true)
	f.Fuzz(func(t *testing.T, nanos int64, src, dst uint32, sport, dport uint16,
		proto, ttl, flags uint8, ipLen, synLen, synWin uint16, count uint32, cc string, asn uint32, spoofed, masscan bool) {
		id, known := geo.LookupCountry(cc)
		ft := FlowTuple{
			UnixNano: nanos, SrcIP: netsim.IPv4(src), DstIP: netsim.IPv4(dst),
			SrcPort: sport, DstPort: dport, Protocol: proto, TTL: ttl, TCPFlags: flags,
			IPLen: ipLen, SynLen: synLen, SynWinLen: synWin, PacketCnt: count,
			CountryID: id, ASN: asn, IsSpoofed: spoofed, IsMasscan: masscan,
		}
		if !known {
			if got, err := ParseCSV(referenceCSV(&ft, cc)); err == nil {
				t.Fatalf("ParseCSV accepted country %q: %+v", cc, got)
			}
			// The other fields still round-trip, under a country of the table.
			ft.CountryID = geo.CountryID(len(cc) % (len(geo.PaperCountryWeights) + 1))
		}
		line := ft.AppendCSV(nil)
		got, err := ParseCSV(string(line))
		if err != nil {
			t.Fatalf("ParseCSV(%q): %v", line, err)
		}
		if *got != ft {
			t.Fatalf("ParseCSV(%q) = %+v, want %+v", line, got, &ft)
		}
		records, err := ReadCSV(io.MultiReader(strings.NewReader(csvHeader+"\n"), bytes.NewReader(line)))
		if err != nil || len(records) != 1 || *records[0] != ft {
			t.Fatalf("ReadCSV(header + %q) = %d records, err %v", line, len(records), err)
		}
	})
}
