package scan

import (
	"context"
	"fmt"

	"openhire/internal/iot"
	"openhire/internal/netsim"
	"openhire/internal/protocols/smb"
	"openhire/internal/protocols/tr069"
)

// ExtendedModules returns the future-work probe modules (Section 6 of the
// paper: TR-069 and SMB). They are not part of AllModules so the Table 4/5
// reproduction stays on the paper's six protocols.
func ExtendedModules() []ProbeModule {
	return []ProbeModule{TR069Module{}, SMBModule{}}
}

// TR069Module probes the CWMP connection-request port 7547.
type TR069Module struct{}

// Protocol implements ProbeModule.
func (TR069Module) Protocol() iot.Protocol { return iot.ProtoTR069 }

// Ports implements ProbeModule.
func (TR069Module) Ports() []uint16 { return []uint16{7547} }

// Probe implements ProbeModule.
func (TR069Module) Probe(ctx context.Context, n *netsim.Network, src netsim.IPv4, dst netsim.Endpoint, spec ProbeSpec) (*Result, Outcome) {
	conn, err := n.Dial(src, dst, spec.Options())
	if err != nil {
		return nil, DialOutcome(err)
	}
	defer conn.Close()
	pr, err := tr069.Probe(conn)
	if err != nil {
		if out, faulted := ConnOutcome(conn); faulted {
			return nil, out
		}
		return nil, OutcomeNone
	}
	return &Result{
		Time: conn.DialTime, IP: dst.IP, Port: dst.Port,
		Protocol: iot.ProtoTR069, Transport: netsim.TCP,
		Banner: []byte(fmt.Sprintf("HTTP %d Server: %s", pr.Status, pr.Server)),
		Meta: map[string]string{
			"tr069.status": fmt.Sprintf("%d", pr.Status),
			"tr069.server": pr.Server,
			"tr069.noauth": fmt.Sprintf("%v", pr.Unauthenticated),
		},
	}, OutcomeOK
}

// SMBModule probes port 445 with an SMB negotiate.
type SMBModule struct{}

// Protocol implements ProbeModule.
func (SMBModule) Protocol() iot.Protocol { return iot.ProtoSMB }

// Ports implements ProbeModule.
func (SMBModule) Ports() []uint16 { return []uint16{445} }

// Probe implements ProbeModule.
func (SMBModule) Probe(ctx context.Context, n *netsim.Network, src netsim.IPv4, dst netsim.Endpoint, spec ProbeSpec) (*Result, Outcome) {
	conn, err := n.Dial(src, dst, spec.Options())
	if err != nil {
		return nil, DialOutcome(err)
	}
	defer conn.Close()
	dialect, err := smb.Probe(conn)
	if err != nil {
		if out, faulted := ConnOutcome(conn); faulted {
			return nil, out
		}
		return nil, OutcomeNone
	}
	return &Result{
		Time: conn.DialTime, IP: dst.IP, Port: dst.Port,
		Protocol: iot.ProtoSMB, Transport: netsim.TCP,
		Banner: []byte("Dialect: " + dialect),
		Meta:   map[string]string{"smb.dialect": dialect},
	}, OutcomeOK
}
