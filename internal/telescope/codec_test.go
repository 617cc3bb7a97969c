package telescope

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"strings"
	"testing"
	"testing/iotest"

	"openhire/internal/netsim"
)

// referenceCSV is the fmt encoder AppendCSV replaced, kept as the byte
// reference: every CSV file ever written came out of this line. It writes cc
// as the country, so it can also write the labels the parser refuses.
func referenceCSV(ft *FlowTuple, cc string) string {
	return fmt.Sprintf("%d,%s,%s,%d,%d,%d,%d,%d,%d,%d,%d,%d,%s,%d,%t,%t\n",
		ft.UnixNano, ft.SrcIP, ft.DstIP, ft.SrcPort, ft.DstPort,
		ft.Protocol, ft.TTL, ft.TCPFlags, ft.IPLen, ft.SynLen, ft.SynWinLen,
		ft.PacketCnt, strings.ReplaceAll(cc, ",", ";"), ft.ASN, ft.IsSpoofed, ft.IsMasscan)
}

// referenceBinary is the allocate-per-record encoder AppendBinary replaced,
// writing cc as the country.
func referenceBinary(ft *FlowTuple, cc string) []byte {
	if len(cc) > 255 {
		cc = cc[:255]
	}
	flag := func(b bool) byte {
		if b {
			return 1
		}
		return 0
	}
	buf := make([]byte, 0, 48+len(cc))
	buf = append(buf, 'F', 'T', '0', '4')
	buf = binary.BigEndian.AppendUint64(buf, uint64(ft.UnixNano))
	buf = binary.BigEndian.AppendUint32(buf, uint32(ft.SrcIP))
	buf = binary.BigEndian.AppendUint32(buf, uint32(ft.DstIP))
	buf = binary.BigEndian.AppendUint16(buf, ft.SrcPort)
	buf = binary.BigEndian.AppendUint16(buf, ft.DstPort)
	buf = append(buf, ft.Protocol, ft.TTL, ft.TCPFlags, flag(ft.IsSpoofed), flag(ft.IsMasscan))
	buf = binary.BigEndian.AppendUint16(buf, ft.IPLen)
	buf = binary.BigEndian.AppendUint16(buf, ft.SynLen)
	buf = binary.BigEndian.AppendUint16(buf, ft.SynWinLen)
	buf = binary.BigEndian.AppendUint32(buf, ft.PacketCnt)
	buf = binary.BigEndian.AppendUint32(buf, ft.ASN)
	buf = append(buf, byte(len(cc)))
	return append(buf, cc...)
}

// codecCases are the records the table tests encode: the ordinary one, every
// field at its ceiling and its floor, both annotations, and the shortest
// country label and none.
func codecCases() map[string]*FlowTuple {
	maxed := &FlowTuple{
		UnixNano: math.MaxInt64,
		SrcIP:    math.MaxUint32, DstIP: math.MaxUint32, SrcPort: math.MaxUint16, DstPort: math.MaxUint16,
		Protocol: math.MaxUint8, TTL: math.MaxUint8, TCPFlags: math.MaxUint8,
		IPLen: math.MaxUint16, SynLen: math.MaxUint16, SynWinLen: math.MaxUint16,
		PacketCnt: math.MaxUint32, CountryID: country("Other countries"), ASN: math.MaxUint32,
		IsSpoofed: true, IsMasscan: true,
	}
	with := func(edit func(*FlowTuple)) *FlowTuple {
		ft := sampleFlow()
		edit(ft)
		return ft
	}
	return map[string]*FlowTuple{
		"sample":      sampleFlow(),
		"max values":  maxed,
		"zero values": {},
		"before 1970": with(func(ft *FlowTuple) { ft.UnixNano = math.MinInt64 }),
		"spoofed":     with(func(ft *FlowTuple) { ft.IsSpoofed, ft.IsMasscan = true, false }),
		"two letters": with(func(ft *FlowTuple) { ft.CountryID = country("UK") }),
		"no country":  with(func(ft *FlowTuple) { ft.CountryID = 0 }),
	}
}

// refusedCountries are country labels outside geo's table, which the former
// codecs wrote and read back as given (cut to 255 bytes, commas escaped) and
// both decoders now refuse.
var refusedCountries = map[string]string{
	"comma country": "Korea, Republic of,,",
	"255 country":   strings.Repeat("x", 255),
	"300 country":   strings.Repeat("y", 300),
	"bytes country": "\x00\xff;\"",
}

// TestCodecMatchesReferenceEncoders pins both append encoders, and the
// WriteBinary wrapper over plain and buffered writers, to the encoders they
// replaced, and the binary decoder — on both of its paths — to the inverse.
// A record the reference encoders wrote with a label outside geo's table is
// refused by ReadBinary on every path and by ParseCSV.
func TestCodecMatchesReferenceEncoders(t *testing.T) {
	for name, cc := range refusedCountries {
		t.Run(name, func(t *testing.T) {
			bin := referenceBinary(sampleFlow(), cc)
			for path, r := range map[string]io.Reader{
				"plain":    bytes.NewReader(bin),
				"buffered": bufio.NewReader(bytes.NewReader(bin)),
				"tiny":     bufio.NewReaderSize(iotest.OneByteReader(bytes.NewReader(bin)), 16),
			} {
				if ft, err := ReadBinary(r); err != ErrBadRecord {
					t.Errorf("%s reader: got %+v, %v, want ErrBadRecord", path, ft, err)
				}
			}
			if ft, err := ParseCSV(referenceCSV(sampleFlow(), cc)); err == nil {
				t.Errorf("ParseCSV: got %+v, want an error", ft)
			}
		})
	}
	for name, ft := range codecCases() {
		t.Run(name, func(t *testing.T) {
			wantCSV, wantBin := referenceCSV(ft, ft.CountryCC()), referenceBinary(ft, ft.CountryCC())
			prefix := []byte("already here|")
			if got := ft.AppendCSV(prefix[:len(prefix):len(prefix)]); string(got) != string(prefix)+wantCSV {
				t.Errorf("AppendCSV:\n got %q\nwant %q", got, string(prefix)+wantCSV)
			}
			if got := ft.AppendBinary(prefix[:len(prefix):len(prefix)]); string(got) != string(prefix)+string(wantBin) {
				t.Errorf("AppendBinary:\n got %q\nwant %q", got, string(prefix)+string(wantBin))
			}

			// Plain writer, then a bufio.Writer with too little room left for
			// the record, so the in-place scratch has to spill.
			var plain, buffered bytes.Buffer
			bw := bufio.NewWriterSize(&buffered, 64)
			for _, w := range []io.Writer{&plain, bw} {
				if err := ft.WriteBinary(w); err != nil {
					t.Fatal(err)
				}
			}
			if err := bw.Flush(); err != nil {
				t.Fatal(err)
			}
			if want := string(wantBin); plain.String() != want || buffered.String() != want {
				t.Errorf("WriteBinary:\n   plain %q\nbuffered %q\n    want %q", plain.String(), buffered.String(), want)
			}

			want := *ft
			for path, r := range map[string]io.Reader{
				"plain":    bytes.NewReader(wantBin),
				"buffered": bufio.NewReader(bytes.NewReader(wantBin)),
				"tiny":     bufio.NewReaderSize(iotest.OneByteReader(bytes.NewReader(wantBin)), 16),
			} {
				got, err := ReadBinary(r)
				if err != nil {
					t.Fatalf("%s reader: %v", path, err)
				}
				if *got != want {
					t.Errorf("%s reader: got %+v, want %+v", path, got, &want)
				}
				if _, err := ReadBinary(r); err != io.EOF {
					t.Errorf("%s reader: second read returned %v, want io.EOF", path, err)
				}
			}

			parsed, err := ParseCSV(wantCSV)
			if err != nil {
				t.Fatalf("ParseCSV: %v", err)
			}
			if *parsed != want {
				t.Errorf("ParseCSV: got %+v, want %+v", parsed, &want)
			}
		})
	}
}

// TestEncodeAllocatesNothingThroughBufio pins the cost of a record on the
// capture path: encoding through a bufio.Writer builds it in the writer's
// own buffer.
func TestEncodeAllocatesNothingThroughBufio(t *testing.T) {
	ft := sampleFlow()
	bw := bufio.NewWriterSize(io.Discard, 1<<16)
	if allocs := testing.AllocsPerRun(10000, func() {
		if err := ft.WriteBinary(bw); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("WriteBinary through a bufio.Writer: %v allocations per record, want 0", allocs)
	}
}

// TestWriteFlowsIsHeaderPlusRecords checks the chunked file writers against
// the per-record encoders over a file several chunks long, through a writer
// that fails late: every byte, in order, and the error surfaces.
func TestWriteFlowsIsHeaderPlusRecords(t *testing.T) {
	var flows []*FlowTuple
	var wantCSV, wantBin bytes.Buffer
	wantCSV.WriteString(csvHeader + "\n")
	for i := 0; i < 5000; i++ {
		ft := sampleFlow()
		ft.SrcIP = netsim.IPv4(i * 2654435761)
		ft.PacketCnt = uint32(i)
		flows = append(flows, ft)
		wantCSV.WriteString(referenceCSV(ft, ft.CountryCC()))
		wantBin.Write(referenceBinary(ft, ft.CountryCC()))
	}
	if wantCSV.Len() < 3*flowChunk || wantBin.Len() < 3*flowChunk {
		t.Fatalf("test files (%d, %d bytes) do not span three %d-byte chunks", wantCSV.Len(), wantBin.Len(), flowChunk)
	}
	for _, n := range []int{0, 1, len(flows)} {
		var csv, bin bytes.Buffer
		if err := WriteFlowsCSV(&csv, flows[:n]); err != nil {
			t.Fatal(err)
		}
		if err := WriteFlowsBinary(&bin, flows[:n]); err != nil {
			t.Fatal(err)
		}
		back, err := ReadCSV(bytes.NewReader(csv.Bytes()))
		if err != nil || len(back) != n {
			t.Fatalf("ReadCSV of %d written flows: %d records, err %v", n, len(back), err)
		}
		if n == len(flows) && (!bytes.Equal(csv.Bytes(), wantCSV.Bytes()) || !bytes.Equal(bin.Bytes(), wantBin.Bytes())) {
			t.Errorf("chunked files differ from header + per-record reference encodings")
		}
		if n == 0 && (csv.String() != csvHeader+"\n" || bin.Len() != 0) {
			t.Errorf("empty files: csv %q, bin %d bytes", csv.String(), bin.Len())
		}
	}
	full := errors.New("disk full")
	for _, limit := range []int64{0, flowChunk + 1, int64(wantBin.Len()) - 1} {
		w := &failingWriter{left: limit, err: full}
		if err := WriteFlowsBinary(w, flows); !errors.Is(err, full) {
			t.Errorf("WriteFlowsBinary over a writer failing after %d bytes: err %v", limit, err)
		}
	}
}

// failingWriter accepts left bytes, then fails every write.
type failingWriter struct {
	left int64
	err  error
}

func (w *failingWriter) Write(p []byte) (int, error) {
	if int64(len(p)) > w.left {
		return 0, w.err
	}
	w.left -= int64(len(p))
	return len(p), nil
}

// TestReadBinaryTruncation cuts a two-record stream at every offset and
// reads it back on both decoder paths: a cut on a record boundary is a clean
// io.EOF after the whole records before it, a cut anywhere inside a record —
// the magic included — is ErrBadRecord, never a bare unexpected-EOF.
func TestReadBinaryTruncation(t *testing.T) {
	first, second := sampleFlow(), sampleFlow()
	second.CountryID = 0 // a record that is exactly its fixed part
	stream := second.AppendBinary(first.AppendBinary(nil))
	boundary := map[int]int{0: 0, len(stream) - fixedLen: 1, len(stream): 2}
	for cut := 0; cut <= len(stream); cut++ {
		for path, r := range map[string]io.Reader{
			"plain":    bytes.NewReader(stream[:cut]),
			"buffered": bufio.NewReader(bytes.NewReader(stream[:cut])),
		} {
			records, err := readAllBinary(r)
			whole := len(records)
			wantWhole, onBoundary := boundary[cut]
			wantErr := ErrBadRecord
			if onBoundary {
				wantErr = io.EOF
			} else if cut > len(stream)-fixedLen {
				wantWhole = 1
			}
			if err != wantErr || whole != wantWhole {
				t.Errorf("%s reader, stream cut at %d of %d: %d whole records then %v, want %d then %v",
					path, cut, len(stream), whole, err, wantWhole, wantErr)
			}
		}
	}
}

// TestReadBinaryPassesReadErrorsThrough: an I/O error is not a format error.
func TestReadBinaryPassesReadErrorsThrough(t *testing.T) {
	rec := sampleFlow().AppendBinary(nil)
	broken := errors.New("read: input/output error")
	for _, cut := range []int{0, 3, fixedLen, len(rec) - 1} {
		src := func() io.Reader {
			return io.MultiReader(bytes.NewReader(rec[:cut]), iotest.ErrReader(broken))
		}
		for path, r := range map[string]io.Reader{"plain": src(), "buffered": bufio.NewReader(src())} {
			if _, err := ReadBinary(r); !errors.Is(err, broken) {
				t.Errorf("%s reader failing after %d bytes: err %v, want the read error", path, cut, err)
			}
		}
	}
}
