// Package netsim implements the simulated IPv4 Internet that every
// experiment in this repository runs against.
//
// The live-Internet substrate of the paper (an IPv4-wide ZMap scan, a
// university honeypot deployment and the CAIDA /8 telescope) is replaced by a
// deterministic virtual network: hosts are derived lazily from (seed, IP), so
// a population of millions costs no memory until probed, and a connection is
// an in-memory conversation whose server runs inline on the dialer's
// goroutine. Nothing in the fabric reads the wall clock: time is the Clock the
// driver advances, and a client read that finds nothing buffered returns
// ErrWouldBlock at once instead of waiting.
package netsim

import (
	"fmt"
	"strconv"
	"strings"
)

// IPv4 is an IPv4 address in host byte order. The numeric representation
// makes address arithmetic (scan permutations, prefix membership) trivial.
type IPv4 uint32

// ParseIPv4 parses dotted-quad notation ("192.0.2.1").
func ParseIPv4(s string) (IPv4, error) {
	var parts [4]uint64
	rest := s
	for i := 0; i < 4; i++ {
		var tok string
		if i < 3 {
			dot := strings.IndexByte(rest, '.')
			if dot < 0 {
				return 0, fmt.Errorf("netsim: invalid IPv4 %q", s)
			}
			tok, rest = rest[:dot], rest[dot+1:]
		} else {
			tok = rest
		}
		v, err := strconv.ParseUint(tok, 10, 8)
		if err != nil {
			return 0, fmt.Errorf("netsim: invalid IPv4 %q", s)
		}
		parts[i] = v
	}
	return IPv4(parts[0]<<24 | parts[1]<<16 | parts[2]<<8 | parts[3]), nil
}

// MustParseIPv4 is ParseIPv4 that panics on error, for constants in tests
// and tables.
func MustParseIPv4(s string) IPv4 {
	ip, err := ParseIPv4(s)
	if err != nil {
		panic(err)
	}
	return ip
}

// String renders the address in dotted-quad notation.
func (ip IPv4) String() string {
	var b [15]byte
	return string(ip.AppendTo(b[:0]))
}

// AppendTo appends the dotted-quad notation of the address to dst.
func (ip IPv4) AppendTo(dst []byte) []byte {
	dst = strconv.AppendUint(dst, uint64(ip>>24), 10)
	dst = append(dst, '.')
	dst = strconv.AppendUint(dst, uint64(ip>>16&0xff), 10)
	dst = append(dst, '.')
	dst = strconv.AppendUint(dst, uint64(ip>>8&0xff), 10)
	dst = append(dst, '.')
	return strconv.AppendUint(dst, uint64(ip&0xff), 10)
}

// Octets returns the four address bytes, most significant first.
func (ip IPv4) Octets() [4]byte {
	return [4]byte{byte(ip >> 24), byte(ip >> 16), byte(ip >> 8), byte(ip)}
}

// Endpoint is a transport endpoint on the simulated network.
type Endpoint struct {
	IP   IPv4
	Port uint16
}

// String renders "ip:port".
func (e Endpoint) String() string {
	return e.IP.String() + ":" + strconv.Itoa(int(e.Port))
}

// Transport distinguishes the two transports the simulation carries.
type Transport uint8

// Transports understood by the network.
const (
	TCP Transport = iota
	UDP
)

// String names the transport.
func (t Transport) String() string {
	switch t {
	case TCP:
		return "tcp"
	case UDP:
		return "udp"
	default:
		return "transport(" + strconv.Itoa(int(t)) + ")"
	}
}
