package iot

import "openhire/internal/netsim"

// Extension protocols: the paper's stated future work (Section 6) extends
// the scan scope to TR-069 and SMB. They live outside ScannedProtocols so
// the Table 4/5 calibration is untouched; the extended scanner opts in.
const (
	ProtoTR069 Protocol = "tr069"
)

// ExtensionProtocols lists the future-work scan targets.
var ExtensionProtocols = []Protocol{ProtoTR069, ProtoSMB}

// Extension misconfiguration classes.
const (
	// TR069NoAuth: the CWMP connection-request endpoint answers without
	// digest authentication — remote takeover surface.
	TR069NoAuth Misconfig = 100 + iota
	// SMBv1Enabled: the host still negotiates the SMB1 dialect —
	// EternalBlue-class exposure.
	SMBv1Enabled
)

// Extension exposure densities. TR-069 exposure is calibrated to the
// published estimates of WAN-reachable CWMP endpoints (tens of millions in
// 2016; a conservative 20M here); SMB to the ~1M open 445 ports long
// reported by scanning services.
var extensionDensity = map[Protocol]float64{
	ProtoTR069: 20000000.0 / (1 << 32),
	ProtoSMB:   1000000.0 / (1 << 32),
}

// Extension class shares over exposed hosts.
var extensionShares = map[Protocol][]classShare{
	ProtoTR069: {{TR069NoAuth, 0.31}},
	ProtoSMB:   {{SMBv1Enabled, 0.42}},
}

// ExtensionSpec derives the device spec for an extension protocol, the
// analogue of Spec for the future-work scan.
func (u *Universe) ExtensionSpec(ip netsim.IPv4, p Protocol) (DeviceSpec, bool) {
	return u.specAt(ip, p, true)
}

// ExpectedExtensionExposed mirrors ExpectedExposed for extension protocols.
func (u *Universe) ExpectedExtensionExposed(p Protocol) float64 {
	return extensionDensity[p] * u.cfg.DensityBoost * float64(u.cfg.Prefix.Size())
}
