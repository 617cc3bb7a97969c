package trace

// The adapters between pipeline packages and the recorder. The pipeline
// stays obs-free: scan, attack and telescope expose plain callback hooks
// (Config.OnProbe, CampaignConfig.OnDay, DarknetConfig.OnUnit) or finished
// state (the honeypot log, the merged flow list), and everything here reads
// those without adding state to any hot path. Each adapter is a no-op on a
// nil recorder.

import (
	"fmt"
	"sort"
	"time"

	"openhire/internal/core/classify"
	"openhire/internal/core/scan"
	"openhire/internal/honeypot"
	"openhire/internal/iot"
	"openhire/internal/netsim"
	"openhire/internal/telescope"
)

// ScanProbeHook adapts the recorder to scan.Config.OnProbe. Sampled targets
// get their full lifecycle recorded; transmissions are additionally
// annotated with the fault plan the fabric applied (injected latency and
// pathology), replayed through Network.PlanFor — a pure function, so
// reading it does not perturb the probe stream. Returns nil for a nil
// recorder, keeping the scanner on its documented no-hook path.
func ScanProbeHook(r *Recorder, network *netsim.Network, src netsim.IPv4) func(scan.ProbeEvent) {
	if r == nil {
		return nil
	}
	return func(pe scan.ProbeEvent) {
		ip := uint64(pe.IP)
		if !r.Sampled(ip) {
			return
		}
		ev := Event{
			Kind:     scanKind(pe.Kind),
			Protocol: string(pe.Protocol),
			IP:       pe.IP.String(),
			Port:     pe.Port,
			Attempt:  pe.Attempt,
			SimNS:    int64(pe.Sim),
		}
		if pe.Kind == scan.ProbeSent && network != nil {
			if plan, ok := network.PlanFor(src, netsim.Endpoint{IP: pe.IP, Port: pe.Port},
				pe.Protocol.Transport(), pe.Attempt); ok {
				ev.SimNS = int64(plan.Latency)
				ev.Detail = planDetail(plan)
			}
		}
		r.Record(ip, ev)
	}
}

// scanKind maps the scanner's event taxonomy onto trace kinds.
func scanKind(k scan.ProbeEventKind) Kind {
	switch k {
	case scan.ProbeSent:
		return KindProbeSent
	case scan.ProbeAnswered:
		return KindProbeAnswered
	case scan.ProbeTimedOut:
		return KindProbeTimeout
	case scan.ProbeReset:
		return KindProbeReset
	case scan.ProbePartial:
		return KindProbePartial
	case scan.ProbeNegative:
		return KindProbeNegative
	case scan.ProbeRetransmit:
		return KindProbeRetransmit
	case scan.ProbeAbandoned:
		return KindProbeAbandoned
	case scan.ProbeBreakerSkip:
		return KindBreakerSkip
	}
	return Kind("probe.unknown")
}

// planDetail names the dominant pathology of a fault plan, empty for a
// clean path.
func planDetail(plan netsim.FaultPlan) string {
	switch {
	case plan.HostDown:
		return "host-down"
	case plan.DropSYN:
		return "syn-drop"
	case plan.DropDatagram:
		return "datagram-drop"
	case plan.ResetAfter > 0:
		return fmt.Sprintf("reset-after-%d", plan.ResetAfter)
	case plan.TruncateAfter > 0:
		return fmt.Sprintf("tarpit-%d", plan.TruncateAfter)
	}
	return ""
}

// ClassifiedEvents records one probe.classified event per sampled finding,
// closing the scan leg's lifecycle: sent → answered → classified.
func ClassifiedEvents(r *Recorder, findings []classify.Finding) {
	if r == nil {
		return
	}
	for _, f := range findings {
		res := f.Result
		if res == nil || !r.Sampled(uint64(res.IP)) {
			continue
		}
		detail := f.Misconfig.String()
		if f.DeviceType != "" {
			detail += " device=" + string(f.DeviceType)
		}
		r.Record(uint64(res.IP), Event{
			Kind:     KindClassified,
			Protocol: string(res.Protocol),
			IP:       res.IP.String(),
			Port:     res.Port,
			Detail:   detail,
		})
	}
}

// SessionEvents derives session open/command/close events from a finished
// honeypot month in Log.Drain's canonical order, after the campaign has
// quiesced, which keeps the trace deterministic and costs the replay hot
// path nothing. A session is one (source, honeypot, protocol, simulated
// day) group, its events in chronological order.
func SessionEvents(r *Recorder, events []honeypot.Event) {
	if r == nil || len(events) == 0 {
		return
	}
	// A stable key-major sort of a copy: each session's events end up
	// contiguous and chronologically ordered, with content tie-breaks
	// inherited from the canonical order.
	evs := make([]honeypot.Event, len(events))
	copy(evs, events)
	sort.SliceStable(evs, func(i, j int) bool {
		a, b := &evs[i], &evs[j]
		if a.Src != b.Src {
			return a.Src < b.Src
		}
		if a.Honeypot != b.Honeypot {
			return a.Honeypot < b.Honeypot
		}
		return a.Protocol < b.Protocol
	})
	type sessionKey struct {
		src   netsim.IPv4
		pot   string
		proto iot.Protocol
		day   int
	}
	keyOf := func(e *honeypot.Event) sessionKey {
		return sessionKey{e.Src, e.Honeypot, e.Protocol,
			int(e.Time.Sub(netsim.ExperimentStart) / (24 * time.Hour))}
	}
	flush := func(k sessionKey, group []honeypot.Event) {
		if !r.Sampled(uint64(k.src)) {
			return
		}
		base := Event{Protocol: string(k.proto), IP: k.src.String(), Peer: k.pot, Day: k.day}
		open := base
		open.Kind = KindSessionOpen
		open.SimNS = int64(group[0].Time.Sub(netsim.ExperimentStart))
		r.Record(uint64(k.src), open)
		for i := range group {
			cmd := base
			cmd.Kind = KindSessionEvent
			cmd.SimNS = int64(group[i].Time.Sub(netsim.ExperimentStart))
			cmd.Detail = string(group[i].Type)
			if d := group[i].Detail; d != "" {
				cmd.Detail += ": " + d
			}
			r.Record(uint64(k.src), cmd)
		}
		cl := base
		cl.Kind = KindSessionClose
		cl.SimNS = int64(group[len(group)-1].Time.Sub(netsim.ExperimentStart))
		cl.Count = uint64(len(group))
		r.Record(uint64(k.src), cl)
	}
	start := 0
	cur := keyOf(&evs[0])
	for i := 1; i <= len(evs); i++ {
		var k sessionKey
		if i < len(evs) {
			k = keyOf(&evs[i])
		}
		if i == len(evs) || k != cur {
			flush(cur, evs[start:i])
			start, cur = i, k
		}
	}
}

// CampaignDayEvent records one campaign day boundary; wire it into
// attack.CampaignConfig.OnDay alongside the registry gauges.
func CampaignDayEvent(r *Recorder, day, planned, run int) {
	if r == nil {
		return
	}
	r.Record(0, Event{Kind: KindCampaignDay, Day: day, Count: uint64(run),
		Detail: fmt.Sprintf("planned %d", planned)})
}

// FlowEvents records one flow.ingest event per sampled source address in a
// finished capture. The flow list arrives ordinal-merged (insertion order
// for the sequential paths, a pure function of the flow set otherwise), so
// the derived events are deterministic.
func FlowEvents(r *Recorder, flows []*telescope.FlowTuple) {
	if r == nil {
		return
	}
	for _, ft := range flows {
		ip := uint64(ft.SrcIP)
		if !r.Sampled(ip) {
			continue
		}
		proto := "other"
		if p, ok := telescope.ProtocolOfPort(ft.DstPort); ok {
			proto = string(p)
		}
		var detail string
		switch {
		case ft.IsMasscan:
			detail = "masscan"
		case ft.IsSpoofed:
			detail = "spoofed"
		}
		r.Record(ip, Event{
			Kind:     KindFlowIngest,
			Protocol: proto,
			IP:       ft.SrcIP.String(),
			Port:     ft.DstPort,
			SimNS:    int64(ft.Time().Sub(netsim.ExperimentStart)),
			Count:    uint64(ft.PacketCnt),
			Detail:   detail,
		})
	}
}

// RotateEvent marks one per-day capture cut (Telescope.Drain) with the
// number of flows handed over.
func RotateEvent(r *Recorder, day, flows int) {
	if r == nil {
		return
	}
	r.Record(0, Event{Kind: KindFlowRotate, Day: day, Count: uint64(flows)})
}

// DarknetUnitEvent records one finished (protocol, day) generation unit;
// wire it into attack.DarknetConfig.OnUnit.
func DarknetUnitEvent(r *Recorder, proto iot.Protocol, day, flows int) {
	if r == nil {
		return
	}
	r.Record(0, Event{Kind: KindDarknetUnit, Protocol: string(proto), Day: day,
		Count: uint64(flows)})
}
