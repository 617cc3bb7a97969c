package upnp

import "openhire/internal/netsim"

// RequestEvent is surfaced for every SSDP datagram handled by a responder.
type RequestEvent struct {
	From          netsim.IPv4
	ST            string
	Valid         bool // was a well-formed ssdp:discover
	ResponseBytes int
}

// ResponderConfig configures an SSDP responder.
type ResponderConfig struct {
	Device Device
	// AnswerInternet controls whether the responder answers discovery from
	// any source. Real devices should only answer their LAN; the
	// misconfigured population answers everything (the Table 5 UPnP class).
	AnswerInternet bool
	// OnEvent, when non-nil, receives request observations.
	OnEvent func(RequestEvent)
}

// Responder answers SSDP M-SEARCH datagrams for one device. It implements
// netsim.DatagramHandler.
type Responder struct {
	cfg ResponderConfig
}

// NewResponder builds a responder.
func NewResponder(cfg ResponderConfig) *Responder {
	return &Responder{cfg: cfg}
}

// Device returns the responder's device identity.
func (r *Responder) Device() Device { return r.cfg.Device }

// HandleDatagram implements netsim.DatagramHandler.
func (r *Responder) HandleDatagram(from netsim.Endpoint, payload []byte) []byte {
	ev := RequestEvent{From: from.IP}
	var resp []byte
	if search, err := ParseMSearch(payload); err == nil {
		ev.Valid, ev.ST = true, search.ST
		if r.cfg.AnswerInternet { // correctly configured: silent to WAN probes
			resp = r.cfg.Device.SSDPResponse(search.ST)
			ev.ResponseBytes = len(resp)
		}
	}
	if r.cfg.OnEvent != nil {
		r.cfg.OnEvent(ev)
	}
	return resp
}
