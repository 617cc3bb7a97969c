package fingerprint

import (
	"bytes"
	"context"

	"openhire/internal/netsim"
	"openhire/internal/protocols/telnet"
)

// Active (second-stage) fingerprinting, after the banner match: the paper's
// framework [75] performs sequential checks, and Vetterl & Clayton showed
// low-interaction honeypots deviate from real stacks when poked with
// unusual protocol elements. A real Telnet server answers an exotic option
// negotiation with a refusal (IAC WONT/DONT) or ignores it while keeping
// its login state machine; a low-interaction honeypot with a canned
// read-reply loop emits its filler response regardless.

// DeviationVerdict is the outcome of an active probe.
type DeviationVerdict uint8

// Verdicts.
const (
	// VerdictInconclusive: target closed or stayed silent.
	VerdictInconclusive DeviationVerdict = iota
	// VerdictRealStack: the reply carried proper negotiation or a login
	// state machine response.
	VerdictRealStack
	// VerdictHoneypot: canned filler that no real telnetd produces.
	VerdictHoneypot
)

// String names the verdict.
func (v DeviationVerdict) String() string {
	switch v {
	case VerdictRealStack:
		return "real-stack"
	case VerdictHoneypot:
		return "honeypot"
	default:
		return "inconclusive"
	}
}

// deviationProbe is an exotic-but-legal Telnet sequence: request option 39
// (NEW-ENVIRON) and open an unterminated-looking subnegotiation for it.
var deviationProbe = []byte{
	telnet.IAC, telnet.DO, 39,
	telnet.IAC, telnet.SB, 39, 1, telnet.IAC, telnet.SE,
}

// ProbeDeviation dials the target's Telnet port and applies the
// response-deviation check to whatever the server answers the probe with.
func ProbeDeviation(ctx context.Context, n *netsim.Network, src netsim.IPv4,
	target netsim.IPv4, port uint16) DeviationVerdict {
	conn, err := n.Dial(src, netsim.Endpoint{IP: target, Port: port}, netsim.ProbeOptions{})
	if err != nil {
		return VerdictInconclusive
	}
	defer conn.Close()

	// Consume the banner first so the deviation reply is isolated.
	if _, err := telnet.Grab(ctx, conn); err != nil {
		return VerdictInconclusive
	}
	if _, err := conn.Write(deviationProbe); err != nil {
		return VerdictInconclusive
	}
	buf := make([]byte, 512)
	total := 0
	for total < len(buf) {
		n, err := conn.Read(buf[total:])
		total += n
		if err != nil {
			break
		}
	}
	reply := buf[:total]
	return classifyDeviation(reply)
}

// classifyDeviation inspects the reply bytes.
func classifyDeviation(reply []byte) DeviationVerdict {
	if len(reply) == 0 {
		// Silence: real stacks commonly ignore unknown options entirely.
		return VerdictRealStack
	}
	data, cmds := telnet.SplitStream(reply)
	// Proper negotiation replies (WONT/DONT for the exotic option) are a
	// real-stack trait.
	for _, c := range cmds {
		if c.Verb == telnet.WONT || c.Verb == telnet.DONT {
			return VerdictRealStack
		}
	}
	trimmed := bytes.TrimSpace(data)
	// Canned filler: bare CRLF echoes or repeating the same short filler
	// for protocol-level input no real telnetd answers with text.
	if len(trimmed) == 0 && len(data) > 0 {
		return VerdictHoneypot
	}
	// A login/password prompt means a live state machine.
	lower := bytes.ToLower(trimmed)
	if bytes.Contains(lower, []byte("login")) || bytes.Contains(lower, []byte("password")) ||
		bytes.Contains(lower, []byte("incorrect")) {
		return VerdictRealStack
	}
	return VerdictInconclusive
}

// VerifyDetections runs the active check against banner-based detections,
// returning those confirmed plus those the active probe disputes. This is
// the "multistage" part of the paper's fingerprinting framework: a banner
// match alone can false-positive on a real device shipping a honeypot-like
// banner.
func VerifyDetections(ctx context.Context, n *netsim.Network, src netsim.IPv4,
	dets []Detection) (confirmed, disputed []Detection) {
	for _, d := range dets {
		switch ProbeDeviation(ctx, n, src, d.IP, 23) {
		case VerdictHoneypot, VerdictInconclusive:
			// Banner evidence stands unless actively contradicted.
			confirmed = append(confirmed, d)
		case VerdictRealStack:
			disputed = append(disputed, d)
		}
	}
	return confirmed, disputed
}
