package iot

import (
	"sync"

	"openhire/internal/netsim"
	"openhire/internal/prng"
)

// DeviceSpec is the fully derived configuration of one simulated device's
// presence on one protocol. Specs are pure functions of (seed, ip, protocol),
// so the population never needs to be materialized.
type DeviceSpec struct {
	IP        netsim.IPv4
	Protocol  Protocol
	Model     DeviceModel
	Misconfig Misconfig
	// WeakCredentials is set when an auth-gated device uses a default
	// credential pair from the common dictionary — the population Mirai-class
	// bots can actually break into.
	WeakCredentials bool
	Username        string
	Password        string
}

// DefaultCredentials is the default-password dictionary shared by devices
// and attackers; the head of the list mirrors the most-used pairs in the
// paper's Table 12.
var DefaultCredentials = []struct{ User, Pass string }{
	{"admin", "admin"},
	{"root", "root"},
	{"root", "admin"},
	{"telnet", "telnet"},
	{"root", "xc3511"},
	{"admin", "admin123"},
	{"root", "12345"},
	{"user", "user"},
	{"admin", "12345"},
	{"admin", "polycom"},
	{"admin", ""},
	{"pi", "raspberry"},
	{"cisco", "cisco"},
	{"zyfwp", "PrOw!aN_fXp"},
	{"admin", "ssh1234"},
}

// UniverseConfig parameterizes the simulated population.
type UniverseConfig struct {
	// Seed drives every derivation.
	Seed uint64
	// Prefix is the covered address range. Experiments default to a /10
	// (1/1024 of IPv4); tests use small prefixes.
	Prefix netsim.Prefix
	// DensityBoost multiplies every exposure density (default 1). Small
	// test universes use boosts so expected counts stay statistically
	// meaningful; experiment reports divide it back out.
	DensityBoost float64
	// HoneypotBoost, when non-zero, overrides DensityBoost for wild
	// honeypot planting. Table 6's family distribution needs hundreds of
	// instances, which at device-level boosts would saturate the host
	// population; the Table 6 experiment oversamples honeypots only and
	// scales the counts back.
	HoneypotBoost float64
}

// Universe is the lazily derived IoT population. It implements
// netsim.HostProvider and netsim.PortProber.
//
// Note on state: population hosts are rebuilt on every lookup, so protocol
// state (e.g. a poisoned MQTT topic) does not persist across connections.
// Persistent state belongs to explicitly registered hosts (honeypots) and to
// the attack bookkeeping layer.
type Universe struct {
	cfg UniverseConfig
	src *prng.Source

	// honeypotDensity is the boost-applied wild-honeypot planting density.
	honeypotDensity float64

	// exposedPre, honeypotPre and altPortPre are the seed with the roll's
	// label folded in (prng.HashPrefix): every roll about one address
	// finishes from them with prng.Hash64From, the same hash as
	// src.Hash64(label, ...) without refolding the constant label each time.
	exposedPre, honeypotPre, altPortPre uint64

	// exposure holds, per probe-able protocol, everything a derivation about
	// it needs, precomputed: the sweep resolves a port, the crawls an
	// exposure and the grab a spec for millions of (address, protocol) pairs,
	// almost all of them dark, so none of them hashes a protocol name or
	// probes a density map per lookup.
	exposure []exposureEntry

	// index is ExposedIndex's result, built on its first call.
	indexOnce sync.Once
	index     []Exposed

	// mqttBases holds one model broker per MQTT model (host.go), never
	// dialed: a device grab clones it.
	mqttBases []mqttBrokerBase
}

// exposureEntry is one protocol's precomputed derivation inputs.
type exposureEntry struct {
	proto     Protocol
	ph        uint64  // prng.HashString of the protocol's label
	density   float64 // exposure density × DensityBoost, clamped to 1
	ext       bool    // extension (future-work) protocol
	transport netsim.Transport
	port      uint16 // DefaultPort; Telnet devices listen here or on telnetAltPort
	telnet    bool   // proto is ProtoTelnet
	shares    []classShare
	// models and weights drive the model choice (scanned protocols only).
	models  []DeviceModel
	weights []float64
}

// NewUniverse builds a Universe.
func NewUniverse(cfg UniverseConfig) *Universe {
	if cfg.DensityBoost == 0 {
		cfg.DensityBoost = 1
	}
	u := &Universe{cfg: cfg, src: prng.New(cfg.Seed)}
	u.exposedPre = u.src.HashPrefix(labelExposed)
	u.honeypotPre = u.src.HashPrefix(labelHoneypot)
	u.altPortPre = u.src.HashPrefix(labelAltPort)
	u.honeypotDensity = honeypotDensity * cfg.DensityBoost
	if cfg.HoneypotBoost > 0 {
		u.honeypotDensity = honeypotDensity * cfg.HoneypotBoost
	}
	for _, p := range ScannedProtocols {
		models := ModelsFor(p)
		weights := make([]float64, len(models))
		for i, m := range models {
			weights[i] = m.Weight
		}
		u.exposure = append(u.exposure, exposureEntry{
			proto: p, ph: prng.HashString(string(p)),
			density:   clampDensity(exposureDensity[p] * cfg.DensityBoost),
			transport: p.Transport(), port: p.DefaultPort(), telnet: p == ProtoTelnet,
			shares: misconfigShares[p], models: models, weights: weights,
		})
		if p == ProtoMQTT {
			for _, m := range models {
				u.mqttBases = append(u.mqttBases, mqttBrokerBase{m.MQTTTopic, modelBroker(m.MQTTTopic)})
			}
		}
	}
	for _, p := range ExtensionProtocols {
		u.exposure = append(u.exposure, exposureEntry{
			proto: p, ph: prng.HashString("ext-" + string(p)),
			density:   clampDensity(extensionDensity[p] * cfg.DensityBoost),
			ext:       true,
			transport: p.Transport(), port: p.DefaultPort(),
			shares: extensionShares[p],
		})
	}
	return u
}

func clampDensity(d float64) float64 {
	if d > 1 {
		return 1
	}
	return d
}

// Config returns the universe parameters.
func (u *Universe) Config() UniverseConfig { return u.cfg }

// ScaleFactor is what simulated counts must be multiplied by to compare
// with the paper's full-IPv4 numbers.
func (u *Universe) ScaleFactor() float64 {
	return float64(uint64(1)<<32) / (float64(u.cfg.Prefix.Size()) * u.cfg.DensityBoost)
}

// weakCredentialShare is the fraction of auth-gated Telnet/SSH devices using
// a dictionary credential.
const weakCredentialShare = 0.15

// label space for derivations, kept distinct per decision.
var (
	labelExposed = prng.HashString("iot-exposed")
	labelModel   = prng.HashString("iot-model")
	labelClass   = prng.HashString("iot-class")
	labelCred    = prng.HashString("iot-cred")
	labelAltPort = prng.HashString("iot-altport")
)

// entry returns p's row of the exposure table — the scanned-protocol row or
// the extension row, as asked — or nil when the universe has none.
func (u *Universe) entry(p Protocol, ext bool) *exposureEntry {
	for i := range u.exposure {
		if e := &u.exposure[i]; e.proto == p && e.ext == ext {
			return e
		}
	}
	return nil
}

// below reports whether hash h, read as a uniform draw from [0, 1), falls
// below p: how every planting and exposure roll turns its hash into a verdict.
func below(h uint64, p float64) bool {
	return float64(h>>11)/(1<<53) < p
}

// exposurePrefix is the chaining value every exposure roll at ip starts
// from: src.HashPrefix(labelExposed, ip).
func (u *Universe) exposurePrefix(ip netsim.IPv4) uint64 {
	return prng.HashPrefixFrom(u.exposedPre, uint64(ip))
}

// exposed is the exposure roll: whether the device at ip speaks e's protocol.
// Every other derivation about (ip, protocol) is conditional on it.
func (u *Universe) exposed(ip netsim.IPv4, e *exposureEntry) bool {
	return below(prng.Hash64From(u.exposurePrefix(ip), e.ph), e.density)
}

// Exposes reports whether ip exposes scanned protocol p: Spec's ok, without
// deriving the spec.
func (u *Universe) Exposes(ip netsim.IPv4, p Protocol) bool {
	if !u.cfg.Prefix.Contains(ip) {
		return false
	}
	e := u.entry(p, false)
	return e != nil && u.exposed(ip, e)
}

// Spec derives the device spec for (ip, protocol). ok is false when the
// address does not expose that protocol.
func (u *Universe) Spec(ip netsim.IPv4, p Protocol) (DeviceSpec, bool) {
	return u.specAt(ip, p, false)
}

// specAt is Spec (ext false) and ExtensionSpec (ext true).
func (u *Universe) specAt(ip netsim.IPv4, p Protocol, ext bool) (DeviceSpec, bool) {
	if !u.cfg.Prefix.Contains(ip) {
		return DeviceSpec{}, false
	}
	e := u.entry(p, ext)
	if e == nil || !u.exposed(ip, e) {
		return DeviceSpec{}, false
	}
	return u.deriveSpec(ip, e), true
}

// ExposureAny reports whether ip exposes at least one scanned protocol and
// whether any exposed endpoint is misconfigured. It draws from exactly the
// hash streams Spec uses for the same decisions — the exposure roll and the
// misconfiguration class roll — but skips the model choice and credential
// synthesis that dominate full spec derivation, which the infected-set walk
// over the whole prefix never looks at.
func (u *Universe) ExposureAny(ip netsim.IPv4) (exposed, misconfigured bool) {
	if !u.cfg.Prefix.Contains(ip) {
		return false, false
	}
	pre := u.exposurePrefix(ip)
	for i := range u.exposure {
		e := &u.exposure[i]
		if e.ext || !below(prng.Hash64From(pre, e.ph), e.density) {
			continue
		}
		exposed = true
		if misconfigured {
			continue
		}
		cls := prng.New(u.src.Hash64(labelClass, uint64(ip), e.ph))
		roll := cls.Float64()
		for _, cs := range e.shares {
			if roll < cs.share {
				misconfigured = true
				break
			}
			roll -= cs.share
		}
	}
	return exposed, misconfigured
}

// deriveSpec derives the spec of an (ip, protocol) pair the exposure roll has
// already admitted. Extension protocols carry a misconfiguration class only.
func (u *Universe) deriveSpec(ip netsim.IPv4, e *exposureEntry) DeviceSpec {
	spec := DeviceSpec{IP: ip, Protocol: e.proto}

	// Misconfiguration class.
	cls := prng.New(u.src.Hash64(labelClass, uint64(ip), e.ph))
	roll := cls.Float64()
	spec.Misconfig = MisconfigNone
	for _, cs := range e.shares {
		if roll < cs.share {
			spec.Misconfig = cs.class
			break
		}
		roll -= cs.share
	}
	if e.ext {
		return spec
	}

	// Model choice.
	pick := prng.New(u.src.Hash64(labelModel, uint64(ip), e.ph))
	if len(e.models) > 0 {
		spec.Model = e.models[pick.WeightedChoice(e.weights)]
	}

	// Credentials for auth-gated endpoints.
	cred := prng.New(u.src.Hash64(labelCred, uint64(ip), e.ph))
	if cred.Float64() < weakCredentialShare {
		spec.WeakCredentials = true
		pair := DefaultCredentials[cred.Zipf(len(DefaultCredentials), 1.2)]
		spec.Username, spec.Password = pair.User, pair.Pass
	} else {
		spec.Username = "admin"
		spec.Password = strongPassword(cred)
	}
	return spec
}

func strongPassword(src *prng.Source) string {
	const alphabet = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789!@#$%"
	b := make([]byte, 14)
	for i := range b {
		b[i] = alphabet[src.Intn(len(alphabet))]
	}
	return string(b)
}

// telnetAltPort is the second port the Telnet scan covers.
const telnetAltPort = 2323

// TelnetPort returns which Telnet port the device listens on: most use 23,
// a minority 2323 (which is why the paper scans both, Section 4.1.1).
func (u *Universe) TelnetPort(ip netsim.IPv4) uint16 {
	if prng.Hash64From(u.altPortPre, uint64(ip))%100 < 7 {
		return telnetAltPort
	}
	return 23
}

// listener resolves one port of the device at ip to the exposure entry of
// the protocol listening there, or nil when the port is closed. It is the
// one place a (transport, port) pair is mapped to a protocol: the sweep asks
// it whether a port is open and the device host which server to build, so
// the two cannot disagree. The cost is the exposure roll of the one protocol
// that owns the port, plus the alt-port roll for an exposed Telnet device.
func (u *Universe) listener(ip netsim.IPv4, transport netsim.Transport, port uint16) *exposureEntry {
	for i := range u.exposure {
		e := &u.exposure[i]
		if e.transport != transport || (e.port != port && !(e.telnet && port == telnetAltPort)) {
			continue
		}
		if !u.exposed(ip, e) || (e.telnet && u.TelnetPort(ip) != port) {
			return nil
		}
		return e
	}
	return nil
}

// PortOpen implements netsim.PortProber: the answer Host(ip) and its
// StreamService/DatagramService(port) would give, with no allocation. A wild
// honeypot shadows the device at its address and listens on TCP/23 alone, so
// on that port either one opens it, and on every other port the device's
// listener does unless a honeypot shadows it. Rolling the port's owner first
// makes a dark address cost listener's one exposure roll on every port but
// 23: the planting roll is only made where it can change the answer.
func (u *Universe) PortOpen(ip netsim.IPv4, transport netsim.Transport, port uint16) bool {
	if !u.cfg.Prefix.Contains(ip) {
		return false
	}
	if wildHoneypotListens(transport, port) {
		return u.wildHoneypotAt(ip) || u.listener(ip, transport, port) != nil
	}
	return u.listener(ip, transport, port) != nil && !u.wildHoneypotAt(ip)
}

// Host implements netsim.HostProvider. Returns nil for dark addresses. Wild
// honeypots shadow devices at their address. A device host is only the
// address: which services it runs, and their specs, are derived per port
// when a conversation asks (see deviceHost).
func (u *Universe) Host(ip netsim.IPv4) netsim.Host {
	if !u.cfg.Prefix.Contains(ip) {
		return nil
	}
	if family, ok := u.WildHoneypot(ip); ok {
		return wildHoneypotHost{family: family}
	}
	for i := range u.exposure {
		if u.exposed(ip, &u.exposure[i]) {
			return deviceHost{u: u, ip: ip}
		}
	}
	return nil
}

// ExpectedExposed returns the expected number of exposed hosts for a
// protocol in this universe (density × size × boost), for calibration tests.
func (u *Universe) ExpectedExposed(p Protocol) float64 {
	return exposureDensity[p] * u.cfg.DensityBoost * float64(u.cfg.Prefix.Size())
}
