package geo

import (
	"fmt"

	"openhire/internal/netsim"
	"openhire/internal/prng"
)

// RDNSKind classifies what a reverse lookup of an address resolves to.
// The paper (Section 5.3) reverse-looks-up attack sources to find registered
// domains, default web pages and scanning-service infrastructure.
type RDNSKind uint8

// Reverse-lookup outcomes.
const (
	RDNSNone          RDNSKind = iota // no PTR record
	RDNSGeneric                       // ISP-style generic pool name
	RDNSDomain                        // registered domain
	RDNSScanerService                 // scanning-service infrastructure name
)

// String names the reverse-lookup kind.
func (k RDNSKind) String() string {
	switch k {
	case RDNSNone:
		return "none"
	case RDNSGeneric:
		return "generic"
	case RDNSDomain:
		return "domain"
	case RDNSScanerService:
		return "scanning-service"
	default:
		return "unknown"
	}
}

// RDNS is the simulated reverse-DNS view of the universe. Scanning-service
// ranges are registered explicitly by the actors that own them; all other
// addresses resolve deterministically from the seed.
type RDNS struct {
	src      *prng.Source
	services map[netsim.IPv4]string // scanning-service names by address
}

// NewRDNS builds a reverse-DNS database.
func NewRDNS(seed uint64) *RDNS {
	return &RDNS{
		src:      prng.New(seed),
		services: make(map[netsim.IPv4]string),
	}
}

// RegisterService records that ip belongs to the named scanning service.
func (r *RDNS) RegisterService(ip netsim.IPv4, service string) {
	r.services[ip] = service
}

// Lookup resolves ip to a PTR-style name and its kind.
func (r *RDNS) Lookup(ip netsim.IPv4) (string, RDNSKind) {
	if svc, ok := r.services[ip]; ok {
		return fmt.Sprintf("scan-%08x.%s", uint32(ip), svc), RDNSScanerService
	}
	h := r.src.Hash64(prng.HashString("rdns"), uint64(ip))
	switch {
	case h%100 < 55: // 55%: no PTR at all
		return "", RDNSNone
	case h%100 < 93: // 38%: ISP pool name
		o := ip.Octets()
		return fmt.Sprintf("%d-%d-%d-%d.dyn.example-isp.net", o[0], o[1], o[2], o[3]), RDNSGeneric
	default: // 7%: registered domain (some of which serve malware droppers)
		return fmt.Sprintf("host%06d.example-site.com", h%1000000), RDNSDomain
	}
}

// HasWebpage reports whether a registered domain serves a web page. The
// paper found 427 of 797 discovered domains had one (Section 5.3); we use
// the same ~54% rate.
func (r *RDNS) HasWebpage(ip netsim.IPv4) bool {
	if _, kind := r.Lookup(ip); kind != RDNSDomain {
		return false
	}
	return r.src.Hash64(prng.HashString("webpage"), uint64(ip))%100 < 54
}
