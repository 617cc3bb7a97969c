// Package upnp implements SSDP (Simple Service Discovery Protocol), the
// UDP discovery layer of UPnP, plus device-description rendering.
//
// SSDP listens on UDP 1900. The paper probes it with an "ssdp:discover"
// M-SEARCH (Section 3.1.1); a device that answers an Internet-side discover
// both discloses its model (Table 11's UPnP rows) and acts as a DDoS
// reflector — the largest misconfiguration class in Table 5 (998,129
// devices).
package upnp

import (
	"fmt"
	"strings"
)

// SSDPPort is the standard SSDP port.
const SSDPPort uint16 = 1900

// MSearch is a parsed M-SEARCH request.
type MSearch struct {
	// ST is the search target ("ssdp:all", "upnp:rootdevice", a device URN).
	ST string
	// MX is the response delay bound in seconds.
	MX int
	// Man must be `"ssdp:discover"` for a valid search.
	Man string
}

// BuildMSearch renders an M-SEARCH datagram for the search target.
func BuildMSearch(st string) []byte {
	if st == "" {
		st = "ssdp:all"
	}
	return []byte("M-SEARCH * HTTP/1.1\r\n" +
		"HOST: 239.255.255.250:1900\r\n" +
		`MAN: "ssdp:discover"` + "\r\n" +
		"MX: 1\r\n" +
		"ST: " + st + "\r\n\r\n")
}

// ParseMSearch parses an M-SEARCH datagram. It returns an error for
// anything that is not a well-formed discover request.
func ParseMSearch(raw []byte) (*MSearch, error) {
	text := string(raw)
	lines := strings.Split(text, "\r\n")
	if len(lines) == 0 || !strings.HasPrefix(lines[0], "M-SEARCH") {
		return nil, fmt.Errorf("upnp: not an M-SEARCH")
	}
	m := &MSearch{MX: 1}
	for _, line := range lines[1:] {
		colon := strings.IndexByte(line, ':')
		if colon < 0 {
			continue
		}
		key := strings.ToUpper(strings.TrimSpace(line[:colon]))
		val := strings.TrimSpace(line[colon+1:])
		switch key {
		case "ST":
			m.ST = val
		case "MAN":
			m.Man = strings.Trim(val, `"`)
		case "MX":
			_, _ = fmt.Sscanf(val, "%d", &m.MX)
		}
	}
	if m.Man != "ssdp:discover" {
		return nil, fmt.Errorf("upnp: missing ssdp:discover MAN header")
	}
	if m.ST == "" {
		return nil, fmt.Errorf("upnp: missing ST header")
	}
	return m, nil
}

// Device describes a UPnP device identity; the fields mirror what appears
// in SSDP response headers and the rootDesc.xml document.
type Device struct {
	// Server is the SERVER header ("Linux/2.x UPnP/1.0 Avtech/1.0").
	Server string
	// UUID identifies the device ("5a34308c-1a2c-4546-ac5d-7663dd01dca1").
	UUID string
	// FriendlyName as exposed in the description document.
	FriendlyName string
	// ModelName as exposed in the description document.
	ModelName string
	// Manufacturer as exposed in the description document.
	Manufacturer string
	// DeviceType URN ("urn:schemas-upnp-org:device:InternetGatewayDevice:1").
	DeviceType string
	// Location is the URL of the description document, typically an
	// internal address leak ("http://192.168.0.1:16537/rootDesc.xml").
	Location string
}

// SSDPResponse renders the unicast response to an M-SEARCH, matching the
// banner shape in Table 3.
func (d *Device) SSDPResponse(st string) []byte {
	usn := "uuid:" + d.UUID
	if st == "ssdp:all" || st == "" {
		st = "upnp:rootdevice"
	}
	if st != usn {
		usn += "::" + st
	}
	return []byte("HTTP/1.1 200 OK\r\n" +
		"CACHE-CONTROL: max-age=120\r\n" +
		"ST: " + st + "\r\n" +
		"USN: " + usn + "\r\n" +
		"EXT:\r\n" +
		"SERVER: " + d.Server + "\r\n" +
		"LOCATION: " + d.Location + "\r\n\r\n")
}

// ResponseHeaders parses an SSDP response into its headers (upper-cased
// keys). The scanner's response-based classification reads these.
func ResponseHeaders(raw []byte) (map[string]string, bool) {
	text := string(raw)
	lines := strings.Split(text, "\r\n")
	if len(lines) == 0 || !strings.HasPrefix(lines[0], "HTTP/1.1 200") {
		return nil, false
	}
	h := make(map[string]string)
	for _, line := range lines[1:] {
		colon := strings.IndexByte(line, ':')
		if colon < 0 {
			continue
		}
		h[strings.ToUpper(strings.TrimSpace(line[:colon]))] = strings.TrimSpace(line[colon+1:])
	}
	return h, true
}
