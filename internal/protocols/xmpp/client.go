package xmpp

import (
	"io"
	"strings"

	"openhire/internal/netsim"
)

// ProbeBanner performs the paper's XMPP banner grab: open a stream, read the
// server's stream header and features, and return the raw banner plus the
// parsed features without authenticating.
func ProbeBanner(conn io.ReadWriter, domain string) (string, Features, error) {
	if _, err := conn.Write([]byte(StreamOpen(domain))); err != nil {
		return "", Features{}, err
	}
	r := netsim.GetReader(conn)
	defer netsim.PutReader(r)
	banner, err := readElement(r, "</stream:features>")
	if err != nil && banner == "" {
		return "", Features{}, err
	}
	return banner, ParseFeatures(banner), nil
}

// Authenticate performs the SASL exchange after ProbeBanner on the same
// connection. It reports whether the server accepted.
func Authenticate(conn io.ReadWriter, mechanism, user, pass string) (bool, error) {
	if _, err := conn.Write([]byte(AuthRequest(mechanism, user, pass))); err != nil {
		return false, err
	}
	r := netsim.GetReader(conn)
	defer netsim.PutReader(r)
	resp, err := readElement(r, "/>")
	if err != nil {
		return false, err
	}
	return strings.Contains(resp, "<success"), nil
}

// SendStanza writes a stanza and collects the response, if the server sends
// one. Attack actors use this to poke at device state (the Hue light-toggle
// attempts in Section 5.1.2).
func SendStanza(conn io.ReadWriter, stanza string) (string, error) {
	if _, err := conn.Write([]byte(stanza)); err != nil {
		return "", err
	}
	r := netsim.GetReader(conn)
	defer netsim.PutReader(r)
	resp, err := readElement(r, "/>", "</iq>", "</message>")
	if err != nil && resp == "" {
		return "", err
	}
	return resp, nil
}
