// Package wire is the typed binary form of checkpoint payloads: append
// functions that encode values onto a byte slice and one bounds-checked
// Reader that decodes them.
//
// Integers are uvarints (a signed Go int is written as its two's-complement
// bit pattern, so every value round-trips), strings are a uvarint length
// followed by the bytes, a bool is one byte (0 or 1), a float is its 8
// little-endian IEEE-754 bytes (NaN payloads included) and a "sha256:"
// digest is its 32 raw bytes. A collection is a uvarint count followed by
// its elements; maps are written in sorted key order, so the bytes are a
// pure function of the value.
//
// The Reader's error is sticky: after the first failure every read returns
// the zero value, so a decoder reads a whole structure and checks Err once.
// It refuses any count the remaining bytes cannot hold, so a damaged payload
// can never make a decoder allocate more than its own size.
package wire

import (
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"math"
	"strings"
)

// ErrMalformed is wrapped by every Reader error.
var ErrMalformed = errors.New("malformed payload")

const digestPrefix = "sha256:"

// DigestLen is the encoded size of a digest.
const DigestLen = 32

// AppendUint appends v as a uvarint.
func AppendUint(b []byte, v uint64) []byte { return binary.AppendUvarint(b, v) }

// AppendInt appends v as the uvarint of its bit pattern.
func AppendInt(b []byte, v int) []byte { return binary.AppendUvarint(b, uint64(v)) }

// AppendInt64 appends v as the uvarint of its bit pattern.
func AppendInt64(b []byte, v int64) []byte { return binary.AppendUvarint(b, uint64(v)) }

// AppendBool appends v as one byte.
func AppendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

// AppendFloat appends v's IEEE-754 bits, little-endian.
func AppendFloat(b []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
}

// AppendString appends s, length-prefixed.
func AppendString(b []byte, s string) []byte {
	return append(binary.AppendUvarint(b, uint64(len(s))), s...)
}

// AppendDigest appends a "sha256:<64 hex>" digest as its 32 raw bytes. Any
// other string is a programming error: digests come from obs.Digest.
func AppendDigest(b []byte, d string) []byte {
	hexSum, ok := strings.CutPrefix(d, digestPrefix)
	if !ok || len(hexSum) != 2*DigestLen {
		panic(fmt.Sprintf("wire: %q is not a sha256 digest", d))
	}
	b = append(b, make([]byte, DigestLen)...)
	if _, err := hex.Decode(b[len(b)-DigestLen:], []byte(hexSum)); err != nil {
		panic(fmt.Sprintf("wire: %q is not a sha256 digest: %v", d, err))
	}
	return b
}

// Reader decodes a payload. The zero value is an empty payload.
type Reader struct {
	buf []byte
	off int
	err error
}

// NewReader returns a Reader over b.
func NewReader(b []byte) *Reader { return &Reader{buf: b} }

// Err returns the first failure, or nil.
func (r *Reader) Err() error { return r.err }

// Offset returns how many bytes have been consumed.
func (r *Reader) Offset() int { return r.off }

// Fail records a decoder's own validation failure, unless one is recorded.
func (r *Reader) Fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("%w at byte %d: %s", ErrMalformed, r.off, fmt.Sprintf(format, args...))
	}
}

// Close returns the first failure, or an error when bytes remain unread.
func (r *Reader) Close() error {
	if r.err == nil && r.off != len(r.buf) {
		r.Fail("%d trailing bytes", len(r.buf)-r.off)
	}
	return r.err
}

// remaining returns the unread byte count.
func (r *Reader) remaining() int { return len(r.buf) - r.off }

// take consumes n bytes, or fails.
func (r *Reader) take(n int, what string) []byte {
	if r.err != nil {
		return nil
	}
	if n > r.remaining() {
		r.Fail("%s needs %d bytes, %d left", what, n, r.remaining())
		return nil
	}
	b := r.buf[r.off : r.off+n]
	r.off += n
	return b
}

// Uint reads a uvarint.
func (r *Reader) Uint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.buf[r.off:])
	if n <= 0 {
		r.Fail("bad uvarint")
		return 0
	}
	r.off += n
	return v
}

// Int reads an int written by AppendInt.
func (r *Reader) Int() int { return int(r.Uint()) }

// Int64 reads an int64 written by AppendInt64.
func (r *Reader) Int64() int64 { return int64(r.Uint()) }

// Bool reads one byte that must be 0 or 1.
func (r *Reader) Bool() bool {
	b := r.take(1, "bool")
	if b == nil {
		return false
	}
	if b[0] > 1 {
		r.Fail("bool byte %d", b[0])
		return false
	}
	return b[0] == 1
}

// Float reads 8 little-endian IEEE-754 bytes.
func (r *Reader) Float() float64 {
	b := r.take(8, "float")
	if b == nil {
		return 0
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(b))
}

// Str reads a length-prefixed string.
func (r *Reader) Str() string {
	return string(r.take(r.Count(1), "string"))
}

// Digest reads 32 raw bytes as a "sha256:<hex>" digest.
func (r *Reader) Digest() string {
	b := r.take(DigestLen, "digest")
	if b == nil {
		return ""
	}
	return digestPrefix + hex.EncodeToString(b)
}

// Count reads a collection length whose elements each encode to at least
// minBytes (at least 1) bytes, and refuses one the remaining bytes cannot
// hold.
func (r *Reader) Count(minBytes int) int {
	minBytes = max(minBytes, 1)
	n := r.Uint()
	if r.err != nil {
		return 0
	}
	if n > uint64(r.remaining()/minBytes) {
		r.Fail("count %d exceeds the %d bytes left", n, r.remaining())
		return 0
	}
	return int(n)
}
