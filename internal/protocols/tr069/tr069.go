// Package tr069 implements the CPE side of TR-069 (CWMP) at scan depth:
// the HTTP connection-request endpoint CPEs expose on port 7547, whose
// authentication posture and Server banner a probe can read.
//
// This protocol is part of the paper's stated future work ("we plan to
// extend the scanning scope of protocols to include TR069, SMB, ...",
// Section 6), implemented here as an extension module. TR-069's connection
// request endpoint was the vector of the 2016 Deutsche Telekom outage; a
// CPE that answers the endpoint without digest authentication is
// misconfigured in exactly the paper's sense.
package tr069

import (
	"io"
	"time"

	"openhire/internal/netsim"
	httpx "openhire/internal/protocols/http"
)

// Port is the CWMP connection-request port.
const Port uint16 = 7547

// Common CPE server banners, led by the RomPager builds infamous for the
// Misfortune Cookie vulnerability.
var ServerBanners = []string{
	"RomPager/4.07 UPnP/1.0",
	"RomPager/4.51 UPnP/1.0",
	"gSOAP/2.8",
	"MiniServ/1.580",
	"DNVRS-Webs",
}

// Event records one connection-request probe.
type Event struct {
	Time     time.Time
	Remote   netsim.IPv4
	Path     string
	AuthSent bool
}

// Config describes a CPE's connection-request endpoint.
type Config struct {
	// ServerBanner is the HTTP Server header.
	ServerBanner string
	// RequireAuth makes the endpoint answer 401 with a digest challenge —
	// the correct configuration.
	RequireAuth bool
	// OnEvent receives probe observations.
	OnEvent func(Event)
}

// Server serves the connection-request endpoint. It implements
// netsim.StreamHandler by delegating to the HTTP substrate.
type Server struct {
	inner *httpx.Server
}

// NewServer builds a Server.
func NewServer(cfg Config) *Server {
	if cfg.ServerBanner == "" {
		cfg.ServerBanner = ServerBanners[0]
	}
	handler := func(req *httpx.Request) *httpx.Response {
		if cfg.RequireAuth {
			return &httpx.Response{
				Status: 401,
				Headers: map[string]string{
					"WWW-Authenticate": `Digest realm="IGD", nonce="0000000000000000", qop="auth"`,
				},
			}
		}
		// Unauthenticated acceptance: the CPE will initiate a CWMP session
		// toward whatever ACS the caller claims — full device takeover
		// surface.
		return &httpx.Response{Status: 200, Body: []byte("OK")}
	}
	inner := httpx.NewServer(httpx.ServerConfig{
		ServerHeader: cfg.ServerBanner,
		Routes: map[string]httpx.Handler{
			"/":     handler,
			"/tr69": handler,
		},
		OnEvent: func(ev httpx.Event) {
			if cfg.OnEvent != nil {
				cfg.OnEvent(Event{Time: ev.Time, Remote: ev.Remote, Path: ev.Path})
			}
		},
	})
	return &Server{inner: inner}
}

// NewStepper implements netsim.StreamHandler: the session is the inner HTTP
// server's.
func (s *Server) NewStepper() netsim.Stepper { return s.inner.NewStepper() }

// ProbeResult is what a connection-request probe learns.
type ProbeResult struct {
	Status int
	Server string
	// Unauthenticated is the misconfiguration indicator: the endpoint
	// answered 200 without demanding digest auth.
	Unauthenticated bool
}

// Probe issues the connection request over an established connection.
func Probe(conn io.ReadWriter) (ProbeResult, error) {
	resp, err := httpx.Do(conn, "GET", "/", nil)
	if err != nil {
		return ProbeResult{}, err
	}
	return ProbeResult{
		Status:          resp.Status,
		Server:          resp.Headers["server"],
		Unauthenticated: resp.Status == 200,
	}, nil
}
