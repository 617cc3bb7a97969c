package netsim

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// Prefix is an IPv4 CIDR prefix.
type Prefix struct {
	IP   IPv4 // canonical (low bits zeroed)
	Bits int  // prefix length, 0..32
}

// ParsePrefix parses CIDR notation ("10.0.0.0/8").
func ParsePrefix(s string) (Prefix, error) {
	slash := strings.IndexByte(s, '/')
	if slash < 0 {
		return Prefix{}, fmt.Errorf("netsim: invalid prefix %q: missing /", s)
	}
	ip, err := ParseIPv4(s[:slash])
	if err != nil {
		return Prefix{}, err
	}
	bits, err := strconv.Atoi(s[slash+1:])
	if err != nil || bits < 0 || bits > 32 {
		return Prefix{}, fmt.Errorf("netsim: invalid prefix length in %q", s)
	}
	return NewPrefix(ip, bits), nil
}

// MustParsePrefix is ParsePrefix that panics on error.
func MustParsePrefix(s string) Prefix {
	p, err := ParsePrefix(s)
	if err != nil {
		panic(err)
	}
	return p
}

// NewPrefix canonicalizes ip to the prefix base address.
func NewPrefix(ip IPv4, bits int) Prefix {
	return Prefix{IP: ip & mask(bits), Bits: bits}
}

func mask(bits int) IPv4 {
	if bits <= 0 {
		return 0
	}
	return IPv4(^uint32(0) << (32 - uint(bits)))
}

// Contains reports whether ip falls within the prefix.
func (p Prefix) Contains(ip IPv4) bool {
	return ip&mask(p.Bits) == p.IP
}

// Size returns the number of addresses covered by the prefix.
func (p Prefix) Size() uint64 {
	return uint64(1) << (32 - uint(p.Bits))
}

// First returns the lowest address in the prefix.
func (p Prefix) First() IPv4 { return p.IP }

// Last returns the highest address in the prefix.
func (p Prefix) Last() IPv4 { return p.IP | ^mask(p.Bits) }

// Nth returns the i-th address within the prefix. It panics if i is out of
// range.
func (p Prefix) Nth(i uint64) IPv4 {
	if i >= p.Size() {
		panic("netsim: Prefix.Nth out of range")
	}
	return p.IP + IPv4(i)
}

// Index returns the offset of ip within the prefix, or false if outside.
func (p Prefix) Index(ip IPv4) (uint64, bool) {
	if !p.Contains(ip) {
		return 0, false
	}
	return uint64(ip - p.IP), true
}

// String renders CIDR notation.
func (p Prefix) String() string {
	return p.IP.String() + "/" + strconv.Itoa(p.Bits)
}

// PrefixSet is a collection of prefixes supporting membership queries. It is
// the data structure behind scan blocklists (ZMap default blocklist, the
// FireHOL-EU style region blocklist) and telescope capture filters.
//
// Membership is O(1) amortized: a lookup masks the address with each prefix
// length present in the set (at most 33) and probes a hash map, so nested
// and overlapping prefixes are handled exactly.
type PrefixSet struct {
	byPrefix map[Prefix]struct{}
	lengths  []int // distinct prefix lengths, ascending
}

// NewPrefixSet builds a set from the given prefixes.
func NewPrefixSet(prefixes ...Prefix) *PrefixSet {
	s := &PrefixSet{byPrefix: make(map[Prefix]struct{}, len(prefixes))}
	for _, p := range prefixes {
		s.Add(p)
	}
	return s
}

// Add inserts a prefix.
func (s *PrefixSet) Add(p Prefix) {
	if s.byPrefix == nil {
		s.byPrefix = make(map[Prefix]struct{})
	}
	p = NewPrefix(p.IP, p.Bits) // canonicalize
	if _, ok := s.byPrefix[p]; ok {
		return
	}
	s.byPrefix[p] = struct{}{}
	i := sort.SearchInts(s.lengths, p.Bits)
	if i == len(s.lengths) || s.lengths[i] != p.Bits {
		s.lengths = append(s.lengths, 0)
		copy(s.lengths[i+1:], s.lengths[i:])
		s.lengths[i] = p.Bits
	}
}

// Contains reports whether ip is covered by any prefix in the set.
func (s *PrefixSet) Contains(ip IPv4) bool {
	for _, bits := range s.lengths {
		if _, ok := s.byPrefix[Prefix{IP: ip & mask(bits), Bits: bits}]; ok {
			return true
		}
	}
	return false
}

// Overlaps reports whether any prefix in the set shares at least one
// address with p. Scan iterators use it to drop per-address blocklist
// checks entirely when the scanned range and the blocklist are disjoint.
func (s *PrefixSet) Overlaps(p Prefix) bool {
	for q := range s.byPrefix {
		if q.Bits >= p.Bits {
			if p.Contains(q.IP) {
				return true
			}
		} else if q.Contains(p.IP) {
			return true
		}
	}
	return false
}

// Len returns the number of prefixes in the set.
func (s *PrefixSet) Len() int { return len(s.byPrefix) }

// Prefixes returns the set contents sorted by base address then length.
func (s *PrefixSet) Prefixes() []Prefix {
	out := make([]Prefix, 0, len(s.byPrefix))
	for p := range s.byPrefix {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].IP != out[j].IP {
			return out[i].IP < out[j].IP
		}
		return out[i].Bits < out[j].Bits
	})
	return out
}
