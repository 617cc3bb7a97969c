// Package datasets simulates the open Internet-scan datasets the paper
// cross-checks its own scan against (Section 3.1.2): Project Sonar and
// Shodan, plus the Censys IoT-device crawl used in Section 5.3.
//
// Each dataset is an independent crawl of the same simulated universe with
// the coverage quirks the paper observed in Table 4:
//
//   - Project Sonar scans only the primary port per protocol (port 23, not
//     2323) and publishes no AMQP or XMPP datasets;
//   - Shodan honours allow-listing (networks that blocklist its scanners are
//     invisible to it) and indexes far fewer Telnet/MQTT hosts;
//   - both lag the live network (a crawl epoch models scan-frequency skew).
package datasets

import (
	"openhire/internal/intel"
	"openhire/internal/iot"
	"openhire/internal/netsim"
	"openhire/internal/prng"
)

// Record is one dataset row: a host observed exposing a protocol.
type Record struct {
	IP       netsim.IPv4
	Port     uint16
	Protocol iot.Protocol
}

// Dataset is one provider's published crawl.
type Dataset struct {
	Name    string
	records map[iot.Protocol][]Record
}

// Records returns the rows for one protocol, sorted by address.
func (d *Dataset) Records(p iot.Protocol) []Record {
	return d.records[p]
}

// Count returns the row count per protocol, Table 4 style.
func (d *Dataset) Count(p iot.Protocol) int {
	return len(d.records[p])
}

// Covers reports whether the dataset publishes the protocol at all.
func (d *Dataset) Covers(p iot.Protocol) bool {
	_, ok := d.records[p]
	return ok
}

// Total sums all rows.
func (d *Dataset) Total() int {
	n := 0
	for _, rs := range d.records {
		n += len(rs)
	}
	return n
}

// crawl filters the universe's exposure index down to one provider's view:
// per protocol, the exposed addresses the keep predicate admits, in address
// order (the index's own). Wild honeypots shadow the devices at their address,
// so a crawl lists none of them.
func crawl(name string, u *iot.Universe, protocols []iot.Protocol,
	keep func(ip netsim.IPv4, p iot.Protocol) bool) *Dataset {
	d := &Dataset{Name: name, records: make(map[iot.Protocol][]Record)}
	for _, p := range protocols {
		d.records[p] = []Record{}
	}
	for _, x := range u.ExposedIndex() {
		if x.Honeypot {
			continue
		}
		for _, p := range protocols {
			if x.Exposes(p) && keep(x.IP, p) {
				d.records[p] = append(d.records[p], Record{IP: x.IP, Port: p.DefaultPort(), Protocol: p})
			}
		}
	}
	return d
}

// ProjectSonar crawls the universe the way Rapid7's Sonar publishes data:
// no AMQP/XMPP datasets, primary ports only, and a modest coverage deficit
// from scan-frequency skew. Table 4 ratios (Sonar/ZMap): CoAP 0.708,
// UPnP 0.286, MQTT 0.810, Telnet 0.846.
func ProjectSonar(seed uint64, u *iot.Universe) *Dataset {
	return crawl("Project Sonar", u, sonarProtocols, sonarKeep(seed, u))
}

var sonarProtocols = []iot.Protocol{iot.ProtoCoAP, iot.ProtoUPnP, iot.ProtoMQTT, iot.ProtoTelnet}

// sonarKeep is Sonar's coverage of the exposed (address, protocol) pairs.
func sonarKeep(seed uint64, u *iot.Universe) func(netsim.IPv4, iot.Protocol) bool {
	src := prng.New(seed)
	coverage := map[iot.Protocol]float64{
		iot.ProtoCoAP:   438098.0 / 618650.0,
		iot.ProtoUPnP:   395331.0 / 1381940.0,
		iot.ProtoMQTT:   3921585.0 / 4842465.0,
		iot.ProtoTelnet: 6004956.0 / 7096465.0,
	}
	return func(ip netsim.IPv4, p iot.Protocol) bool {
		// Primary port only: Telnet devices on 2323 are invisible to Sonar.
		if p == iot.ProtoTelnet && u.TelnetPort(ip) != 23 {
			return false
		}
		c := coverage[p]
		// Remaining deficit beyond the port effect is frequency skew.
		if p == iot.ProtoTelnet {
			c /= 0.93 // ~7% of Telnet devices listen on 2323
			if c > 1 {
				c = 1
			}
		}
		return src.Hash64(prng.HashString("sonar"), uint64(ip), prng.HashString(string(p)))%1000 <
			uint64(c*1000)
	}
}

// Shodan crawls the way Shodan indexes: all six protocols, but many
// networks allow-list against its scanner ranges, so coverage is low for
// the high-volume protocols. Table 4 ratios (Shodan/ZMap): AMQP 0.541,
// XMPP 0.745, CoAP 0.955, UPnP 0.314, MQTT 0.034, Telnet 0.027.
func Shodan(seed uint64, u *iot.Universe) *Dataset {
	return crawl("Shodan", u, iot.ScannedProtocols, shodanKeep(seed))
}

// shodanKeep is Shodan's coverage of the exposed (address, protocol) pairs.
func shodanKeep(seed uint64) func(netsim.IPv4, iot.Protocol) bool {
	src := prng.New(seed)
	coverage := map[iot.Protocol]float64{
		iot.ProtoAMQP:   18701.0 / 34542.0,
		iot.ProtoXMPP:   315861.0 / 423867.0,
		iot.ProtoCoAP:   590740.0 / 618650.0,
		iot.ProtoUPnP:   433571.0 / 1381940.0,
		iot.ProtoMQTT:   162216.0 / 4842465.0,
		iot.ProtoTelnet: 188291.0 / 7096465.0,
	}
	return func(ip netsim.IPv4, p iot.Protocol) bool {
		return src.Hash64(prng.HashString("shodan"), uint64(ip), prng.HashString(string(p)))%100000 <
			uint64(coverage[p]*100000)
	}
}

// PopulateCensys fills the Censys IoT-tag store (Section 5.3) from the
// universe: devices whose protocol responses allow typing get an "iot" tag
// with the device type. Coverage models Censys's periodic scans. It is a
// filter over the exposure index like the crawls, with one asymmetry the
// report's digest pins: it does not skip the addresses a wild honeypot
// shadows, so the device rolled underneath one is tagged all the same.
func PopulateCensys(seed uint64, u *iot.Universe, store *intel.Censys) int {
	src := prng.New(seed)
	label := prng.HashString("censys")
	count := 0
	for _, x := range u.ExposedIndex() {
		for _, p := range []iot.Protocol{iot.ProtoTelnet, iot.ProtoUPnP, iot.ProtoMQTT, iot.ProtoCoAP} {
			if !x.Exposes(p) {
				continue
			}
			spec, _ := u.Spec(x.IP, p)
			typ := spec.Model.Type
			if typ == iot.TypeGenericServer || typ == "" {
				continue
			}
			// ~70% tag coverage.
			if src.Hash64(label, uint64(x.IP))%10 >= 7 {
				continue
			}
			store.Tag(x.IP, string(typ))
			count++
			break
		}
	}
	return count
}
