package coap

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"openhire/internal/netsim"
)

// AccessPolicy is how a CoAP server gates requests. The paper's Table 3
// misconfiguration classes map onto these.
type AccessPolicy uint8

// Access policies.
const (
	// AccessOpen answers every request from any source — the reflector
	// misconfiguration ("Reflection-attack resource").
	AccessOpen AccessPolicy = iota
	// AccessAdmin answers discovery and grants write access, leaking the
	// "220-Admin" style session banner ("No auth, admin access").
	AccessAdmin
	// AccessAuthenticated rejects requests with 4.01 Unauthorized. The few
	// correctly configured devices use this.
	AccessAuthenticated
)

// Resource is one CoAP resource on the server.
type Resource struct {
	Path  string
	Type  string // rt= attribute ("oic.r.temperature")
	Iface string // if= attribute
	Value []byte
	// Writable resources accept PUT/POST; the honeypot logs poisoning
	// attempts against them.
	Writable bool
}

// RequestEvent is surfaced to the owner for every datagram handled.
type RequestEvent struct {
	From    netsim.IPv4
	Code    Code
	Path    string
	Payload []byte
	// ResponseBytes is the size of the reply, which together with the
	// request size gives the reflection amplification factor.
	ResponseBytes int
}

// ServerConfig configures a CoAP endpoint.
type ServerConfig struct {
	Policy    AccessPolicy
	Resources []Resource
	// Banner is prefixed to the /.well-known/core payload by some stacks;
	// the paper's Table 3 lists indicators like "x1C" and "220-Admin".
	Banner string
	// OnEvent, when non-nil, receives request observations.
	OnEvent func(RequestEvent)
}

// Server is a CoAP resource server implementing netsim.DatagramHandler.
type Server struct {
	cfg      ServerConfig
	coreLink string // /.well-known/core rendering; cfg.Resources is immutable

	mu     sync.Mutex
	values map[string][]byte // live resource values (poisoning mutates these)
}

// NewServer builds a server from cfg.
func NewServer(cfg ServerConfig) *Server {
	s := &Server{cfg: cfg, values: make(map[string][]byte)}
	for _, r := range cfg.Resources {
		s.values[r.Path] = append([]byte(nil), r.Value...)
	}
	entries := make([]string, 0, len(cfg.Resources))
	for _, r := range cfg.Resources {
		e := "<" + r.Path + ">"
		if r.Type != "" {
			e += `;rt="` + r.Type + `"`
		}
		if r.Iface != "" {
			e += `;if="` + r.Iface + `"`
		}
		entries = append(entries, e)
	}
	sort.Strings(entries)
	s.coreLink = strings.Join(entries, ",")
	return s
}

// CoreLinkFormat returns the RFC 6690 link list for /.well-known/core,
// rendered once at construction (resources never change after NewServer;
// poisoning mutates live values, not the resource list).
func (s *Server) CoreLinkFormat() string { return s.coreLink }

// Value returns the live value of a resource path.
func (s *Server) Value(path string) ([]byte, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	v, ok := s.values[path]
	if !ok {
		return nil, false
	}
	return append([]byte(nil), v...), true
}

func (s *Server) resource(path string) (Resource, bool) {
	for _, r := range s.cfg.Resources {
		if r.Path == path {
			return r, true
		}
	}
	return Resource{}, false
}

// HandleDatagram implements netsim.DatagramHandler.
func (s *Server) HandleDatagram(from netsim.Endpoint, payload []byte) []byte {
	req, err := Unmarshal(payload)
	if err != nil {
		return nil // silently drop garbage, like real constrained stacks
	}
	resp := s.respond(req)
	var out []byte
	if resp != nil {
		out = resp.Marshal()
	}
	if s.cfg.OnEvent != nil {
		s.cfg.OnEvent(RequestEvent{
			From: from.IP, Code: req.Code,
			Path: req.Path(), Payload: req.Payload, ResponseBytes: len(out),
		})
	}
	return out
}

func (s *Server) respond(req *Message) *Message {
	if req.Code == CodeEmpty || req.Code>>5 != 0 {
		return nil // not a request
	}
	resp := &Message{
		Type:      Acknowledgment,
		MessageID: req.MessageID,
		Token:     req.Token,
	}
	if req.Type == NonConfirmable {
		resp.Type = NonConfirmable
	}

	if s.cfg.Policy == AccessAuthenticated {
		resp.Code = CodeUnauthorized
		return resp
	}

	path := req.Path()
	switch req.Code {
	case CodeGET:
		if path == WellKnownCore {
			resp.Code = CodeContent
			resp.Options = []Option{{Number: OptContentFormat, Value: []byte{FormatLinkList}}}
			body := s.CoreLinkFormat()
			if s.cfg.Banner != "" {
				body = s.cfg.Banner + body
			}
			resp.Payload = []byte(body)
			return resp
		}
		s.mu.Lock()
		v, ok := s.values[path]
		s.mu.Unlock()
		if !ok {
			resp.Code = CodeNotFound
			return resp
		}
		resp.Code = CodeContent
		resp.Payload = append([]byte(nil), v...)
		return resp
	case CodePUT, CodePOST:
		r, ok := s.resource(path)
		if !ok {
			resp.Code = CodeNotFound
			return resp
		}
		if !r.Writable && s.cfg.Policy != AccessAdmin {
			resp.Code = CodeForbidden
			return resp
		}
		s.mu.Lock()
		s.values[path] = append([]byte(nil), req.Payload...)
		s.mu.Unlock()
		resp.Code = CodeChanged
		return resp
	case CodeDELETE:
		if s.cfg.Policy != AccessAdmin {
			resp.Code = CodeForbidden
			return resp
		}
		s.mu.Lock()
		delete(s.values, path)
		s.mu.Unlock()
		resp.Code = CodeDeleted
		return resp
	default:
		resp.Code = CodeNotAllowed
		return resp
	}
}

// DefaultSensorResources builds the resource list of a typical exposed IoT
// sensor, used by the population generator and honeypot profiles.
func DefaultSensorResources(device string) []Resource {
	return []Resource{
		{Path: "/sensors/temperature", Type: "oic.r.temperature", Value: []byte("21.5"), Writable: false},
		{Path: "/sensors/humidity", Type: "oic.r.humidity", Value: []byte("40"), Writable: false},
		{Path: "/config/name", Type: "oic.wk.d", Value: []byte(device), Writable: true},
		{Path: "/firmware/version", Value: []byte("1.0.2"), Writable: false},
	}
}

// String implements a compact description used in scan result records.
func (p AccessPolicy) String() string {
	switch p {
	case AccessOpen:
		return "open"
	case AccessAdmin:
		return "admin"
	case AccessAuthenticated:
		return "authenticated"
	default:
		return fmt.Sprintf("policy(%d)", uint8(p))
	}
}
