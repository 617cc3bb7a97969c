package iot

import (
	"openhire/internal/netsim"
	"openhire/internal/prng"
)

// HoneypotFamily is one of the deployed-honeypot products whose static
// Telnet banners the paper fingerprints (Table 6). Banner is the exact byte
// sequence the product volunteers on connect; PaperCount is the number of
// instances the paper detected in the wild.
type HoneypotFamily struct {
	Name       string
	Banner     []byte
	PaperCount int
}

// HoneypotFamilies reproduces Table 6. The banner bytes embed the Telnet
// IAC negotiation quirks that make each family identifiable.
var HoneypotFamilies = []HoneypotFamily{
	{Name: "HoneyPy", Banner: []byte("Debian GNU/Linux 7\r\nLogin: "), PaperCount: 27},
	{Name: "Cowrie", Banner: []byte("\xff\xfd\x1flogin: "), PaperCount: 3228},
	{Name: "MTPot", Banner: []byte("\xff\xfb\x01\xff\xfd\x18\r\nlogin: "), PaperCount: 194},
	{Name: "Telnet IoT Honeypot", Banner: []byte("\xff\xfd\x01Login: Password: \r\nWelcome to EmbyLinux 3.13.0-24-generic\r\n # "), PaperCount: 211},
	{Name: "Conpot", Banner: []byte("Connected to [00:13:EA:00:00:00]\r\n"), PaperCount: 216},
	{Name: "Kippo", Banner: []byte("SSH-2.0-OpenSSH_5.1p1 Debian-5\r\n"), PaperCount: 47},
	{Name: "Kako", Banner: []byte("BusyBox v1.19.3 (2013-11-01 10:10:26 CST) built-in shell (ash)\r\nlogin: "), PaperCount: 16},
	{Name: "Hontel", Banner: []byte("BusyBox v1.18.4 (2012-04-17 18:58:31 CST) built-in shell (ash)\r\nlogin: "), PaperCount: 12},
	{Name: "Anglerfish", Banner: []byte("[root@LocalHost tmp]$ "), PaperCount: 4241},
}

// PaperHoneypotTotal is the Table 6 total the paper filtered out.
const PaperHoneypotTotal = 8192

// honeypotDensity is the probability a random address hosts a wild honeypot
// (Table 6 total over the IPv4 space).
const honeypotDensity = float64(PaperHoneypotTotal) / (1 << 32)

var labelHoneypot = prng.HashString("iot-honeypot")

// honeypotWeights weights the family choice by the Table 6 counts.
var honeypotWeights = func() []float64 {
	weights := make([]float64, len(HoneypotFamilies))
	for i, f := range HoneypotFamilies {
		weights[i] = float64(f.PaperCount)
	}
	return weights
}()

// wildHoneypotAt is the planting roll: whether ip (inside the prefix) hosts
// a wild honeypot.
func (u *Universe) wildHoneypotAt(ip netsim.IPv4) bool {
	return below(prng.Hash64From(u.honeypotPre, uint64(ip)), u.honeypotDensity)
}

// WildHoneypot reports whether ip hosts a wild (Internet-deployed) honeypot
// in this universe, and which family. Wild honeypots take precedence over
// devices: an address is either a honeypot or a device, never both.
func (u *Universe) WildHoneypot(ip netsim.IPv4) (HoneypotFamily, bool) {
	if !u.cfg.Prefix.Contains(ip) || !u.wildHoneypotAt(ip) {
		return HoneypotFamily{}, false
	}
	pick := prng.New(prng.Hash64From(u.honeypotPre, uint64(ip), 7))
	return HoneypotFamilies[pick.WeightedChoice(honeypotWeights)], true
}

// wildHoneypotHost serves the family's static banner on Telnet and accepts
// (and ignores) login attempts, like the low-interaction originals.
type wildHoneypotHost struct {
	family HoneypotFamily
}

// wildHoneypotListens reports whether wild honeypots serve the port: Telnet
// on 23 and nothing else.
func wildHoneypotListens(transport netsim.Transport, port uint16) bool {
	return transport == netsim.TCP && port == 23
}

// StreamService implements netsim.Host.
func (h wildHoneypotHost) StreamService(port uint16) netsim.StreamHandler {
	if !wildHoneypotListens(netsim.TCP, port) {
		return nil
	}
	return h
}

// NewStepper implements netsim.StreamHandler.
func (h wildHoneypotHost) NewStepper() netsim.Stepper {
	return &wildHoneypotStepper{banner: h.family.Banner}
}

// The wild honeypot takes input in reads of at most wildReadSize bytes and
// hangs up after wildMaxReads of them.
const (
	wildReadSize = 256
	wildMaxReads = 4
)

// wildHoneypotStepper volunteers the banner, then consumes a handful of
// input reads, answering nothing useful — the "lack of simulation" trait
// fingerprinting exploits.
type wildHoneypotStepper struct {
	banner []byte
	reads  int
}

// Step implements netsim.Stepper.
func (t *wildHoneypotStepper) Step(c *netsim.ServerConv, ev netsim.ConvEvent) netsim.StepVerdict {
	switch ev {
	case netsim.EvOpen:
		_, _ = c.Write(t.banner)
		return netsim.StepMore
	case netsim.EvData:
		for len(c.Input()) > 0 {
			c.Consume(min(len(c.Input()), wildReadSize))
			_, _ = c.Write([]byte("\r\n"))
			if t.reads++; t.reads == wildMaxReads {
				return netsim.StepDone
			}
		}
		return netsim.StepMore
	default:
		return netsim.StepDone
	}
}

// DatagramService implements netsim.Host.
func (wildHoneypotHost) DatagramService(uint16) netsim.DatagramHandler { return nil }
