package upnp

import "testing"

// FuzzParseMSearch feeds arbitrary datagrams to the M-SEARCH parser every
// SSDP responder runs first. It must never panic, must return a search or an
// error but not both, and a search it accepts is a discover with a target.
func FuzzParseMSearch(f *testing.F) {
	f.Add(BuildMSearch(""))
	f.Add(BuildMSearch("upnp:rootdevice"))
	f.Add(BuildMSearch("urn:schemas-upnp-org:device:InternetGatewayDevice:1"))
	f.Add([]byte("M-SEARCH * HTTP/1.1\r\nMAN: ssdp:discover\r\nST:\r\nMX: -3\r\n\r\n"))
	f.Add([]byte("M-SEARCH * HTTP/1.1\r\nman: \"\"ssdp:discover\"\"\r\nst : x\r\nMX: 99999999999999999999\r\n"))
	f.Add([]byte("NOTIFY * HTTP/1.1\r\nNTS: ssdp:alive\r\n\r\n"))
	f.Add(avtech.SSDPResponse("ssdp:all"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, raw []byte) {
		m, err := ParseMSearch(raw)
		if (m == nil) == (err == nil) {
			t.Fatalf("search %+v with error %v", m, err)
		}
		if m != nil && (m.Man != "ssdp:discover" || m.ST == "") {
			t.Fatalf("accepted %+v", m)
		}
	})
}
