// Package telescope implements the /8 network-telescope substrate: a
// darknet capture that holds unsolicited traffic as FlowTuple records
// (the CAIDA STARDUST format the paper parses, Section 3.4), with binary and
// CSV codecs, per-minute file rotation and the aggregation queries behind
// Table 8.
package telescope

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"
	"time"

	"openhire/internal/geo"
	"openhire/internal/netsim"
)

// FlowTuple is one aggregated flow record. Fields mirror the CAIDA
// FlowTuple v4 schema the paper lists: source/destination, ports, protocol,
// TTL, TCP flags, packet sizes and counts, geolocation and the is_spoofed /
// is_masscan annotations. It holds no pointer, so the collector never scans a
// slab of them, and its fields run wide to narrow, packing it into 40 bytes.
type FlowTuple struct {
	UnixNano  int64 // start time, nanoseconds since the Unix epoch
	SrcIP     netsim.IPv4
	DstIP     netsim.IPv4
	PacketCnt uint32
	ASN       uint32
	SrcPort   uint16
	DstPort   uint16
	IPLen     uint16
	SynLen    uint16
	SynWinLen uint16
	Protocol  uint8 // IP protocol number: 6 TCP, 17 UDP
	TTL       uint8
	TCPFlags  uint8
	CountryID geo.CountryID // the source's country; 0 when not annotated
	IsSpoofed bool
	IsMasscan bool
}

// Time returns the flow's start time in UTC.
func (ft *FlowTuple) Time() time.Time { return time.Unix(0, ft.UnixNano).UTC() }

// CountryCC returns the source's country label, "" when not annotated.
func (ft *FlowTuple) CountryCC() string { return string(ft.CountryID.Label()) }

// IP protocol numbers.
const (
	ProtoTCP = 6
	ProtoUDP = 17
)

// TCP flag bits.
const (
	FlagFIN = 1 << 0
	FlagSYN = 1 << 1
	FlagRST = 1 << 2
	FlagACK = 1 << 4
)

// magic identifies the binary record format.
var magic = [4]byte{'F', 'T', '0', '4'}

// ErrBadRecord reports a corrupt binary record.
var ErrBadRecord = errors.New("telescope: bad flowtuple record")

// fixedLen is the fixed part of a binary record: magic, 39 bytes of fields
// and the country length byte. maxRecordLen adds the longest country.
const (
	fixedLen     = 44
	maxRecordLen = fixedLen + 255
)

// AppendBinary appends the record's binary encoding to dst.
func (ft *FlowTuple) AppendBinary(dst []byte) []byte {
	cc := ft.CountryCC()
	dst = append(dst, magic[:]...)
	dst = binary.BigEndian.AppendUint64(dst, uint64(ft.UnixNano))
	dst = binary.BigEndian.AppendUint32(dst, uint32(ft.SrcIP))
	dst = binary.BigEndian.AppendUint32(dst, uint32(ft.DstIP))
	dst = binary.BigEndian.AppendUint16(dst, ft.SrcPort)
	dst = binary.BigEndian.AppendUint16(dst, ft.DstPort)
	dst = append(dst, ft.Protocol, ft.TTL, ft.TCPFlags, boolByte(ft.IsSpoofed), boolByte(ft.IsMasscan))
	dst = binary.BigEndian.AppendUint16(dst, ft.IPLen)
	dst = binary.BigEndian.AppendUint16(dst, ft.SynLen)
	dst = binary.BigEndian.AppendUint16(dst, ft.SynWinLen)
	dst = binary.BigEndian.AppendUint32(dst, ft.PacketCnt)
	dst = binary.BigEndian.AppendUint32(dst, ft.ASN)
	dst = append(dst, byte(len(cc)))
	return append(dst, cc...)
}

func boolByte(b bool) byte {
	if b {
		return 1
	}
	return 0
}

// scratch returns an empty buffer to encode one record into before handing
// it to w. For a *bufio.Writer that is the writer's own free space
// (AvailableBuffer exists for exactly this append-then-Write), so the record
// is built where it will be flushed from: no allocation, nothing to move.
func scratch(w io.Writer) []byte {
	if bw, ok := w.(*bufio.Writer); ok {
		return bw.AvailableBuffer()
	}
	return nil
}

// WriteBinary appends the record's binary encoding to w.
func (ft *FlowTuple) WriteBinary(w io.Writer) error {
	_, err := w.Write(ft.AppendBinary(scratch(w)))
	return err
}

// ReadBinary decodes one record from r. It returns io.EOF at a record
// boundary only; a stream that ends anywhere inside a record is ErrBadRecord.
// A *bufio.Reader is decoded straight out of its buffer.
func ReadBinary(r io.Reader) (*FlowTuple, error) {
	if br, ok := r.(*bufio.Reader); ok && br.Size() >= maxRecordLen {
		rec, err := br.Peek(maxRecordLen)
		end := fixedLen
		if len(rec) >= fixedLen {
			end += int(rec[fixedLen-1])
		}
		if len(rec) < end {
			return nil, shortRecord(len(rec), err) // Peek explains every short result
		}
		ft, err := decode(rec[:end])
		_, _ = br.Discard(end) // the bytes were just peeked
		return ft, err
	}
	var rec [maxRecordLen]byte
	if n, err := io.ReadFull(r, rec[:fixedLen]); err != nil {
		return nil, shortRecord(n, err)
	}
	end := fixedLen + int(rec[fixedLen-1])
	if n, err := io.ReadFull(r, rec[fixedLen:end]); err != nil {
		return nil, shortRecord(fixedLen+n, err)
	}
	return decode(rec[:end])
}

// shortRecord classifies a read that ended got bytes into a record: a clean
// end of stream only at the record boundary, ErrBadRecord for a record cut
// anywhere inside, and any other read error as itself.
func shortRecord(got int, err error) error {
	switch {
	case err == io.EOF && got == 0:
		return io.EOF
	case err == io.EOF || err == io.ErrUnexpectedEOF:
		return ErrBadRecord
	}
	return err
}

// decode parses one complete record: the fixed part and exactly the country
// bytes its length byte announces. It accepts only what AppendBinary writes —
// the magic, 0 or 1 in the two annotation bytes, a label geo's table holds —
// so a record that decodes re-encodes to the bytes it came from.
func decode(rec []byte) (*FlowTuple, error) {
	fixed := rec[4:fixedLen]
	cc, ok := geo.LookupCountry(string(rec[fixedLen:]))
	if [4]byte(rec) != magic || fixed[23] > 1 || fixed[24] > 1 || !ok {
		return nil, ErrBadRecord
	}
	return &FlowTuple{
		UnixNano:  int64(binary.BigEndian.Uint64(fixed[0:8])),
		SrcIP:     netsim.IPv4(binary.BigEndian.Uint32(fixed[8:12])),
		DstIP:     netsim.IPv4(binary.BigEndian.Uint32(fixed[12:16])),
		SrcPort:   binary.BigEndian.Uint16(fixed[16:18]),
		DstPort:   binary.BigEndian.Uint16(fixed[18:20]),
		Protocol:  fixed[20],
		TTL:       fixed[21],
		TCPFlags:  fixed[22],
		IsSpoofed: fixed[23] == 1,
		IsMasscan: fixed[24] == 1,
		IPLen:     binary.BigEndian.Uint16(fixed[25:27]),
		SynLen:    binary.BigEndian.Uint16(fixed[27:29]),
		SynWinLen: binary.BigEndian.Uint16(fixed[29:31]),
		PacketCnt: binary.BigEndian.Uint32(fixed[31:35]),
		ASN:       binary.BigEndian.Uint32(fixed[35:39]),
		CountryID: cc,
	}, nil
}

// csvHeader is the CSV column list.
const csvHeader = "time,src_ip,dst_ip,src_port,dst_port,protocol,ttl,tcp_flags,ip_len,syn_len,syn_win_len,packet_cnt,country,asn,is_spoofed,is_masscan"

// AppendCSV appends the record as a CSV line. No label in geo's country
// table holds a comma, so the line needs no escape.
func (ft *FlowTuple) AppendCSV(dst []byte) []byte {
	dst = strconv.AppendInt(dst, ft.UnixNano, 10)
	dst = ft.SrcIP.AppendTo(append(dst, ','))
	dst = ft.DstIP.AppendTo(append(dst, ','))
	for _, v := range [...]uint32{
		uint32(ft.SrcPort), uint32(ft.DstPort), uint32(ft.Protocol), uint32(ft.TTL),
		uint32(ft.TCPFlags), uint32(ft.IPLen), uint32(ft.SynLen), uint32(ft.SynWinLen), ft.PacketCnt,
	} {
		dst = strconv.AppendUint(append(dst, ','), uint64(v), 10)
	}
	dst = append(append(dst, ','), ft.CountryCC()...)
	dst = strconv.AppendUint(append(dst, ','), uint64(ft.ASN), 10)
	dst = strconv.AppendBool(append(dst, ','), ft.IsSpoofed)
	dst = strconv.AppendBool(append(dst, ','), ft.IsMasscan)
	return append(dst, '\n')
}

// flowChunk is how many encoded bytes WriteFlowsCSV and WriteFlowsBinary
// gather between writes: large enough that w sees a few dozen writes per
// megabyte, small enough that a day of gigabytes streams in bounded memory.
const flowChunk = 64 << 10

// WriteFlowsCSV writes a complete CSV flow file to w: the header line, then
// flows in order.
func WriteFlowsCSV(w io.Writer, flows []*FlowTuple) error {
	return writeFlows(w, csvHeader+"\n", flows, (*FlowTuple).AppendCSV)
}

// WriteFlowsBinary writes flows to w in order as binary records.
func WriteFlowsBinary(w io.Writer, flows []*FlowTuple) error {
	return writeFlows(w, "", flows, (*FlowTuple).AppendBinary)
}

// writeFlows is the one encode loop behind every flow file: records are
// appended to a chunk that is handed to w whenever it passes flowChunk.
func writeFlows(w io.Writer, header string, flows []*FlowTuple, enc func(*FlowTuple, []byte) []byte) error {
	// A small file (an hour of a scaled-down day) gets a buffer its own
	// size: ~128 bytes covers a CSV line, a binary record is half that.
	buf := make([]byte, 0, min(flowChunk+maxRecordLen, len(header)+128*len(flows)))
	buf = append(buf, header...)
	for _, ft := range flows {
		buf = enc(ft, buf)
		if len(buf) >= flowChunk {
			if _, err := w.Write(buf); err != nil {
				return err
			}
			buf = buf[:0]
		}
	}
	if len(buf) == 0 {
		return nil
	}
	_, err := w.Write(buf)
	return err
}

// ParseCSV decodes one CSV line. Header lines and country labels that geo's
// table does not hold are rejected.
func ParseCSV(line string) (*FlowTuple, error) {
	fields := strings.Split(strings.TrimSpace(line), ",")
	if len(fields) != 16 {
		return nil, fmt.Errorf("telescope: want 16 CSV fields, got %d", len(fields))
	}
	if fields[0] == "time" {
		return nil, errors.New("telescope: header line")
	}
	nanos, err := strconv.ParseInt(fields[0], 10, 64)
	if err != nil {
		return nil, err
	}
	src, err := netsim.ParseIPv4(fields[1])
	if err != nil {
		return nil, err
	}
	dst, err := netsim.ParseIPv4(fields[2])
	if err != nil {
		return nil, err
	}
	cc, ok := geo.LookupCountry(fields[12])
	if !ok {
		return nil, fmt.Errorf("telescope: unknown country %q", fields[12])
	}
	u := func(i int, bits int) uint64 {
		v, convErr := strconv.ParseUint(fields[i], 10, bits)
		if convErr != nil {
			err = convErr
		}
		return v
	}
	ft := &FlowTuple{
		UnixNano: nanos, SrcIP: src, DstIP: dst,
		SrcPort: uint16(u(3, 16)), DstPort: uint16(u(4, 16)),
		Protocol: uint8(u(5, 8)), TTL: uint8(u(6, 8)), TCPFlags: uint8(u(7, 8)),
		IPLen: uint16(u(8, 16)), SynLen: uint16(u(9, 16)), SynWinLen: uint16(u(10, 16)),
		PacketCnt: uint32(u(11, 32)), CountryID: cc, ASN: uint32(u(13, 32)),
	}
	if err != nil {
		return nil, err
	}
	ft.IsSpoofed = fields[14] == "true"
	ft.IsMasscan = fields[15] == "true"
	return ft, nil
}

// ReadCSV parses all records from r, skipping the header if present.
func ReadCSV(r io.Reader) ([]*FlowTuple, error) {
	var out []*FlowTuple
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64*1024), 1024*1024)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "time,") {
			continue
		}
		ft, err := ParseCSV(line)
		if err != nil {
			return out, err
		}
		out = append(out, ft)
	}
	return out, sc.Err()
}
