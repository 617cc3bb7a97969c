package coap

import (
	"bytes"
	"testing"
)

// FuzzHandleDatagram feeds arbitrary datagrams to the resource server under
// each access policy. It must never panic, must drop what does not parse,
// and every reply must itself parse and echo the request's MessageID and
// Token. Each datagram is handled twice so a PUT or DELETE is followed by a
// request that sees its effect.
func FuzzHandleDatagram(f *testing.F) {
	c := NewClient(7)
	f.Add(c.DiscoveryProbe())
	f.Add(c.Get("/sensors/temperature"))
	f.Add(c.Get("/no/such/resource"))
	f.Add(c.Put("/config/name", []byte("pwned")))
	f.Add(c.Put("/firmware/version", nil))
	del := &Message{Type: NonConfirmable, Code: CodeDELETE, MessageID: 9, Token: []byte{1, 2, 3, 4, 5, 6, 7, 8}}
	del.SetPath("/config/name")
	f.Add(del.Marshal())
	f.Add([]byte{0x40, 0x45, 0x12, 0x34})       // a response code sent as a request
	f.Add([]byte{0x40, 0x01, 0x00, 0x01, 0xff}) // payload marker, no payload
	f.Add([]byte{0x4f, 0x01, 0x00, 0x01})       // token length 15
	f.Add([]byte("M-SEARCH * HTTP/1.1\r\n\r\n"))

	f.Fuzz(func(t *testing.T, raw []byte) {
		req, reqErr := Unmarshal(raw)
		for _, policy := range []AccessPolicy{AccessOpen, AccessAdmin, AccessAuthenticated} {
			s := NewServer(ServerConfig{Policy: policy, Resources: DefaultSensorResources("fuzz"), Banner: "220-Admin"})
			for range 2 {
				reply := s.HandleDatagram(probeFrom, raw)
				if reply == nil {
					continue
				}
				if reqErr != nil {
					t.Fatalf("%v: answered an unparseable datagram (%v) with %x", policy, reqErr, reply)
				}
				m, err := Unmarshal(reply)
				if err != nil {
					t.Fatalf("%v: reply %x does not parse: %v", policy, reply, err)
				}
				if m.MessageID != req.MessageID || !bytes.Equal(m.Token, req.Token) {
					t.Fatalf("%v: reply id %d token %x, request id %d token %x", policy, m.MessageID, m.Token, req.MessageID, req.Token)
				}
			}
		}
	})
}
