package honeypot

import (
	"sort"
	"time"

	"openhire/internal/iot"
	"openhire/internal/netsim"
)

// CountByHoneypotProtocol tallies events per (honeypot, protocol) — the
// Table 7 "#Attack events" column.
func CountByHoneypotProtocol(events []Event) map[string]map[iot.Protocol]int {
	out := make(map[string]map[iot.Protocol]int)
	for _, ev := range events {
		if out[ev.Honeypot] == nil {
			out[ev.Honeypot] = make(map[iot.Protocol]int)
		}
		out[ev.Honeypot][ev.Protocol]++
	}
	return out
}

// EventCounters flattens an event set into the named counter map the
// metrics registry and run manifest consume: the event total plus per-type,
// per-protocol and per-honeypot tallies. It walks events already drained
// from the log, so computing it never touches the append hot path.
func EventCounters(events []Event) map[string]uint64 {
	out := map[string]uint64{"events": uint64(len(events))}
	for _, ev := range events {
		out["type."+string(ev.Type)]++
		out["protocol."+string(ev.Protocol)]++
		out["honeypot."+ev.Honeypot]++
	}
	return out
}

// UniqueSourcesByHoneypot returns the distinct source addresses seen per
// honeypot.
func UniqueSourcesByHoneypot(events []Event) map[string]map[netsim.IPv4]struct{} {
	out := make(map[string]map[netsim.IPv4]struct{})
	for _, ev := range events {
		if out[ev.Honeypot] == nil {
			out[ev.Honeypot] = make(map[netsim.IPv4]struct{})
		}
		out[ev.Honeypot][ev.Src] = struct{}{}
	}
	return out
}

// TypeShares returns per-honeypot attack-type fractions (Figure 4) when
// keyed by honeypot name, or per-protocol fractions (Figure 7) via
// TypeSharesByProtocol.
func TypeShares(events []Event) map[string]map[AttackType]float64 {
	counts := make(map[string]map[AttackType]int)
	totals := make(map[string]int)
	for _, ev := range events {
		if counts[ev.Honeypot] == nil {
			counts[ev.Honeypot] = make(map[AttackType]int)
		}
		counts[ev.Honeypot][ev.Type]++
		totals[ev.Honeypot]++
	}
	return shares(counts, totals)
}

// TypeSharesByProtocol returns attack-type fractions per protocol
// (Figure 7).
func TypeSharesByProtocol(events []Event) map[string]map[AttackType]float64 {
	counts := make(map[string]map[AttackType]int)
	totals := make(map[string]int)
	for _, ev := range events {
		key := string(ev.Protocol)
		if counts[key] == nil {
			counts[key] = make(map[AttackType]int)
		}
		counts[key][ev.Type]++
		totals[key]++
	}
	return shares(counts, totals)
}

func shares(counts map[string]map[AttackType]int, totals map[string]int) map[string]map[AttackType]float64 {
	out := make(map[string]map[AttackType]float64, len(counts))
	for key, m := range counts {
		out[key] = make(map[AttackType]float64, len(m))
		for t, n := range m {
			out[key][t] = float64(n) / float64(totals[key])
		}
	}
	return out
}

// DailyCounts buckets events per day from start (Figure 8's series).
func DailyCounts(events []Event, start time.Time, days int) []int {
	out := make([]int, days)
	for _, ev := range events {
		d := int(ev.Time.Sub(start) / (24 * time.Hour))
		if d >= 0 && d < days {
			out[d]++
		}
	}
	return out
}

// CredentialCount is one Table 12 row.
type CredentialCount struct {
	Protocol iot.Protocol
	Username string
	Password string
	Count    int
}

// TopCredentials extracts the most-attempted credential pairs per protocol
// (Table 12: Telnet and SSH).
func TopCredentials(events []Event, proto iot.Protocol, limit int) []CredentialCount {
	type key struct{ u, p string }
	counts := make(map[key]int)
	for _, ev := range events {
		if ev.Protocol != proto || (ev.Username == "" && ev.Password == "") {
			continue
		}
		counts[key{ev.Username, ev.Password}]++
	}
	out := make([]CredentialCount, 0, len(counts))
	for k, n := range counts {
		out = append(out, CredentialCount{Protocol: proto, Username: k.u, Password: k.p, Count: n})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		if out[i].Username != out[j].Username {
			return out[i].Username < out[j].Username
		}
		return out[i].Password < out[j].Password
	})
	if limit > 0 && len(out) > limit {
		out = out[:limit]
	}
	return out
}

// MultistageAttack is one detected multi-protocol sequence from a single
// source (Section 5.4): the protocols in first-seen order.
type MultistageAttack struct {
	Src       netsim.IPv4
	Protocols []iot.Protocol
	Events    int
}

// DetectMultistage groups events by source and reports sources that
// attacked two or more protocols, following the paper's method ("we group
// the attacks from distinct source IP addresses and check if multiple
// protocols are targeted"; time between stages is deliberately ignored).
// Sources in exclude (the scanning services) are skipped. events must be in
// time order, as Log.Drain returns them, so each source's protocols come out
// in first-seen order.
func DetectMultistage(events []Event, exclude map[netsim.IPv4]bool) []MultistageAttack {
	type state struct {
		order []iot.Protocol
		seen  map[iot.Protocol]bool
		count int
	}
	bySrc := make(map[netsim.IPv4]*state)
	for i := range events {
		ev := &events[i]
		if exclude[ev.Src] {
			continue
		}
		st := bySrc[ev.Src]
		if st == nil {
			st = &state{seen: make(map[iot.Protocol]bool)}
			bySrc[ev.Src] = st
		}
		st.count++
		if !st.seen[ev.Protocol] {
			st.seen[ev.Protocol] = true
			st.order = append(st.order, ev.Protocol)
		}
	}
	var out []MultistageAttack
	for src, st := range bySrc {
		if len(st.order) >= 2 {
			out = append(out, MultistageAttack{Src: src, Protocols: st.order, Events: st.count})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Src < out[j].Src })
	return out
}

// StageCounts tallies, for each stage index, how many multistage attacks
// hit each protocol at that stage (the Figure 9 flow diagram data).
func StageCounts(attacks []MultistageAttack) []map[iot.Protocol]int {
	var out []map[iot.Protocol]int
	for _, a := range attacks {
		for stage, p := range a.Protocols {
			for stage >= len(out) {
				out = append(out, make(map[iot.Protocol]int))
			}
			out[stage][p]++
		}
	}
	return out
}
