// Package geo provides the deterministic IP-geolocation and ASN database the
// analysis pipeline joins against.
//
// The paper resolves attack and device locations with the ipgeolocation.io
// database (Section 4.1.3). That service is unavailable offline, so we
// substitute a synthetic map: each /16 block of the simulated universe is
// assigned a country and ASN deterministically from the seed, with country
// weights set to the paper's Table 10 distribution. The join logic in the
// pipeline is therefore identical to the real study — only the backing data
// is synthetic.
package geo

import (
	"sort"

	"openhire/internal/netsim"
	"openhire/internal/prng"
)

// Country is an ISO-like country label. We use the paper's names rather than
// ISO codes so rendered tables match Table 10 verbatim.
type Country string

// CountryWeight pairs a country with its share of misconfigured devices.
type CountryWeight struct {
	Country Country
	Weight  float64 // fraction of devices, from Table 10
}

// PaperCountryWeights is the Table 10 distribution of misconfigured devices
// by country, the database's one country table. Weights are positive.
var PaperCountryWeights = []CountryWeight{
	{"USA", 0.27},
	{"China", 0.13},
	{"Russia", 0.091},
	{"Taiwan", 0.089},
	{"Germany", 0.078},
	{"Philippines", 0.062},
	{"UK", 0.058},
	{"Brazil", 0.033},
	{"India", 0.032},
	{"Thailand", 0.027},
	{"Hong Kong", 0.025},
	{"South Korea", 0.025},
	{"Israel", 0.021},
	{"Canada", 0.019},
	{"Other countries", 0.013},
	{"Bangladesh", 0.011},
	{"France", 0.009},
	{"Japan", 0.007},
}

// CountryID is a country as one byte: 1 + its index in PaperCountryWeights,
// and 0 for no country. A telescope record stores its source's country so.
type CountryID uint8

// Label returns the country id stands for, "" for 0.
func (id CountryID) Label() Country {
	if id == 0 {
		return ""
	}
	return PaperCountryWeights[id-1].Country
}

// LookupCountry returns the id whose Label is label, and whether there is one.
func LookupCountry(label string) (CountryID, bool) {
	for id := range CountryID(len(PaperCountryWeights) + 1) {
		if Country(label) == id.Label() {
			return id, true
		}
	}
	return 0, false
}

// DB is the geolocation database. Lookups are pure functions of (seed, ip):
// no state is stored, so the database covers the whole IPv4 space for free.
type DB struct {
	src   *prng.Source
	total float64 // sum of the weights, fixed at construction
}

// Label hashes are constants of the lookup scheme; folding them per call put
// FNV in the darknet generator's profile.
var (
	geoCountryLabel = prng.HashString("geo-country")
	geoASNLabel     = prng.HashString("geo-asn")
)

// NewDB builds the database for seed over PaperCountryWeights. The table
// argument is kept so that existing callers compile, and must be nil.
func NewDB(seed uint64, table []CountryWeight) *DB {
	if table != nil {
		panic("geo: NewDB takes no country table but PaperCountryWeights")
	}
	db := &DB{src: prng.New(seed)}
	for _, w := range PaperCountryWeights {
		db.total += w.Weight
	}
	return db
}

// geoGranularity groups addresses into /24 blocks: real allocation is
// regional, so neighbouring addresses share a country and ASN, while the
// simulation's compact universes still span many blocks.
const geoGranularityBits = 24

func (db *DB) block(ip netsim.IPv4) uint64 {
	return uint64(ip >> (32 - geoGranularityBits))
}

// Country returns the country assigned to ip's block.
func (db *DB) Country(ip netsim.IPv4) Country {
	return db.CountryID(ip).Label()
}

// CountryID returns the id of ip's block's country: Source.WeightedChoice's
// draw and subtractive scan, with the weight total hoisted to construction.
func (db *DB) CountryID(ip netsim.IPv4) CountryID {
	h := db.src.Hash64(geoCountryLabel, db.block(ip))
	target := prng.New(h).Float64() * db.total
	for i, w := range PaperCountryWeights {
		if target -= w.Weight; target < 0 {
			return CountryID(i + 1)
		}
	}
	return CountryID(len(PaperCountryWeights)) // rounding left target >= 0
}

// ASN returns the autonomous-system number for ip's block. ASNs are stable
// per block and drawn from the 16-bit public range.
func (db *DB) ASN(ip netsim.IPv4) uint32 {
	h := db.src.Hash64(geoASNLabel, db.block(ip))
	return uint32(1 + h%64495) // public 16-bit ASN range 1..64495
}

// CountryCounts tallies countries over a set of addresses, most frequent
// first, matching the Table 10 presentation.
func (db *DB) CountryCounts(ips []netsim.IPv4) []CountryCount {
	counts := make(map[Country]int)
	for _, ip := range ips {
		counts[db.Country(ip)]++
	}
	out := make([]CountryCount, 0, len(counts))
	for c, n := range counts {
		out = append(out, CountryCount{Country: c, Count: n})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		return out[i].Country < out[j].Country
	})
	return out
}

// CountryCount is one row of a Table 10 style tally.
type CountryCount struct {
	Country Country
	Count   int
}
