package fingerprint

import (
	"bytes"
	"strings"
	"testing"

	"openhire/internal/core/scan"
	"openhire/internal/iot"
)

// FuzzMatchResult feeds the honeypot filter what a hostile Telnet responder
// controls: the raw banner, under any protocol label. It must not panic; a
// match must name a family whose signature really occurs in the banner of a
// Telnet result, with no earlier (more specific) signature occurring too; and
// no match must mean no signature occurs, or the result is not Telnet.
func FuzzMatchResult(f *testing.F) {
	for _, fam := range iot.HoneypotFamilies {
		f.Add("telnet", fam.Banner)
		f.Add("mqtt", fam.Banner)
	}
	for _, sig := range Signatures {
		f.Add("telnet", sig.Marker)
		f.Add("telnet", sig.Marker[:len(sig.Marker)-1])
	}
	for _, m := range iot.Catalog {
		// Every Table 11 identifier and the genuine Telnet personas: the
		// banners the filter must let through.
		f.Add(string(m.Protocol), []byte(m.Identifier))
		if m.TelnetBanner != "" {
			f.Add("telnet", []byte(m.TelnetBanner))
		}
	}
	f.Add("telnet", []byte(strings.Repeat("\xff\xfd\x1flogin", 6554))) // 64 KB of near misses
	f.Add("telnet", append(bytes.Repeat([]byte{0xff}, 1<<16), "\xff\xfd\x1flogin: "...))
	f.Add("telnet", []byte("\xc3\x28\xa0\xa1[root@LocalHost tmp]$\xf0\x28\x8c\xbc"))
	f.Add("telnet", []byte(nil))
	f.Add("", []byte("SSH-2.0-OpenSSH_5.1p1 Debian-5"))
	f.Fuzz(func(t *testing.T, proto string, banner []byte) {
		r := &scan.Result{Protocol: iot.Protocol(proto), Banner: banner}
		family := MatchResult(r)
		first := ""
		for _, sig := range Signatures {
			if bytes.Contains(banner, sig.Marker) {
				first = sig.Family
				break
			}
		}
		if r.Protocol != iot.ProtoTelnet {
			first = ""
		}
		if family != first {
			t.Fatalf("%s banner %q: matched %q, the first signature occurring in it is %q", proto, banner, family, first)
		}
		genuine, dets := Filter([]*scan.Result{r})
		if (family == "") != (len(genuine) == 1) || (family != "") != (len(dets) == 1 && dets[0].Family == family) {
			t.Fatalf("%s banner %q: matched %q but Filter kept %d and detected %v", proto, banner, family, len(genuine), dets)
		}
	})
}
