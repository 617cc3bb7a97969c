package expr

import (
	"fmt"
	"sort"
	"strings"

	"openhire/internal/attack"
	"openhire/internal/core/correlate"
	"openhire/internal/core/fingerprint"
	"openhire/internal/core/report"
	"openhire/internal/geo"
	"openhire/internal/honeypot"
	"openhire/internal/iot"
	"openhire/internal/netsim"
	"openhire/internal/telescope"
)

// Result is one executed experiment.
type Result struct {
	ID          string
	Title       string
	Artifact    string // rendered table / figure data
	Comparisons []report.Comparison
}

// Experiment regenerates one paper artifact from a World.
type Experiment struct {
	ID    string
	Title string
	Run   func(w *World) Result
}

// All returns every experiment in paper order.
func All() []Experiment {
	return []Experiment{
		{"table4", "Table 4: exposed systems by protocol and source", Table4},
		{"table5", "Table 5: misconfigured devices per protocol", Table5},
		{"table6", "Table 6: honeypots detected by Telnet banner", Table6},
		{"table7", "Table 7: attack events by honeypot and protocol", Table7},
		{"table8", "Table 8: telescope suspicious traffic", Table8},
		{"table10", "Table 10: misconfigured devices by country", Table10},
		{"table11", "Table 11: device-type identifiers", Table11},
		{"table12", "Table 12: top Telnet/SSH credentials", Table12},
		{"table13", "Table 13: malware corpus", Table13},
		{"fig2", "Figure 2: top device types by protocol", Figure2},
		{"fig3", "Figure 3: scanning-service traffic on honeypots", Figure3},
		{"fig4", "Figure 4: attack types per honeypot", Figure4},
		{"fig5", "Figure 5: scanning-service classification vs GreyNoise", Figure5},
		{"fig6", "Figure 6: malicious sources by VirusTotal", Figure6},
		{"fig7", "Figure 7: attack trends by type and protocol", Figure7},
		{"fig8", "Figure 8: total attacks by day", Figure8},
		{"fig9", "Figure 9: multistage attacks", Figure9},
		{"headline", "Section 5.3: misconfigured devices that attack", Headline},
	}
}

// Find returns the experiment with the given id.
func Find(id string) (Experiment, bool) {
	for _, e := range All() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// Table4 compares exposure counts across our scan, Sonar and Shodan.
func Table4(w *World) Result {
	results, _ := w.RunScan()
	sonar, shodan := w.Sonar(), w.Shodan()
	scale := w.ScaleFactor()

	t := report.NewTable("Exposed systems by protocol and source (simulated universe)",
		"Protocol", "ZMap Scan", "Project Sonar", "Shodan", "Scaled ZMap", "Paper ZMap")
	paper := iot.PaperExposedCounts()
	var comps []report.Comparison
	total := 0
	for _, p := range iot.ScannedProtocols {
		n := len(results[p])
		total += n
		sonarCell := "NA"
		if sonar.Covers(p) {
			sonarCell = report.Comma(sonar.Count(p))
		}
		t.AddRow(string(p), n, sonarCell, shodan.Count(p),
			int(float64(n)*scale), paper[p])
		comps = append(comps, report.Comparison{
			Metric: "exposed." + string(p), Paper: float64(paper[p]),
			Measured: float64(n), Scaled: float64(n) * scale,
		})
	}
	comps = append(comps, report.Comparison{
		Metric: "exposed.total", Paper: 14397929,
		Measured: float64(total), Scaled: float64(total) * scale,
	})
	return Result{ID: "table4", Title: "Table 4", Artifact: t.String(), Comparisons: comps}
}

// Table5 reports misconfigured devices per protocol and class.
func Table5(w *World) Result {
	_, summary := w.Classify()
	scale := w.ScaleFactor()
	paper := iot.PaperMisconfiguredCounts()

	// Paper presentation: ascending by count.
	type row struct {
		class iot.Misconfig
		count int
	}
	rows := make([]row, 0, len(summary.MisconfigByClass))
	for cls, n := range summary.MisconfigByClass {
		rows = append(rows, row{cls, n})
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].count != rows[j].count {
			return rows[i].count < rows[j].count
		}
		return rows[i].class < rows[j].class
	})
	t := report.NewTable("Misconfigured devices per protocol",
		"Protocol", "Vulnerability", "#Devices", "Scaled", "Paper")
	var comps []report.Comparison
	for _, r := range rows {
		t.AddRow(string(r.class.Protocol()), r.class.String(), r.count,
			int(float64(r.count)*scale), paper[r.class])
		comps = append(comps, report.Comparison{
			Metric: "misconfig." + string(r.class.Protocol()) + "." + r.class.String(),
			Paper:  float64(paper[r.class]), Measured: float64(r.count),
			Scaled: float64(r.count) * scale,
		})
	}
	t.AddRow("", "Total", summary.TotalMisconfigured,
		int(float64(summary.TotalMisconfigured)*scale), 1832893)
	comps = append(comps, report.Comparison{
		Metric: "misconfig.total", Paper: 1832893,
		Measured: float64(summary.TotalMisconfigured),
		Scaled:   float64(summary.TotalMisconfigured) * scale,
	})
	return Result{ID: "table5", Title: "Table 5", Artifact: t.String(), Comparisons: comps}
}

// Table6 reports honeypot detections by family. It runs on a dedicated
// universe with oversampled honeypots so the nine-family distribution is
// statistically visible, then scales back.
func Table6(w *World) Result {
	counts := fingerprint.CountByFamily(w.oversampledHoneypots())
	paper := fingerprint.PaperCounts()
	scale := w.ScaleFactor() / table6Oversample

	t := report.NewTable("Detected honeypots by Telnet banner signature",
		"Honeypot", "#Detected", "Scaled", "Paper")
	var comps []report.Comparison
	total := 0
	for _, fc := range counts {
		total += fc.Count
		t.AddRow(fc.Family, fc.Count, int(float64(fc.Count)*scale), paper[fc.Family])
		comps = append(comps, report.Comparison{
			Metric: "honeypots." + fc.Family, Paper: float64(paper[fc.Family]),
			Measured: float64(fc.Count), Scaled: float64(fc.Count) * scale,
		})
	}
	t.AddRow("Total", total, int(float64(total)*scale), iot.PaperHoneypotTotal)
	comps = append(comps, report.Comparison{
		Metric: "honeypots.total", Paper: iot.PaperHoneypotTotal,
		Measured: float64(total), Scaled: float64(total) * scale,
	})
	return Result{ID: "table6", Title: "Table 6", Artifact: t.String(), Comparisons: comps}
}

// Table7 reports attack events per honeypot and protocol.
func Table7(w *World) Result {
	events := w.Events()
	counts := honeypot.CountByHoneypotProtocol(events)
	scale := 1.0 / w.Cfg.AttackIntensity

	t := report.NewTable("Attack events by honeypot and protocol",
		"Honeypot", "Protocol", "#Events", "Scaled", "Paper")
	var comps []report.Comparison
	total := 0
	for _, target := range attack.PaperTargets {
		n := counts[target.Honeypot][target.Protocol]
		total += n
		t.AddRow(target.Honeypot, string(target.Protocol), n,
			int(float64(n)*scale), target.Events)
		comps = append(comps, report.Comparison{
			Metric: "events." + target.Honeypot + "." + string(target.Protocol),
			Paper:  float64(target.Events), Measured: float64(n),
			Scaled: float64(n) * scale,
		})
	}
	t.AddRow("Total", "", total, int(float64(total)*scale), attack.PaperTotalEvents)
	comps = append(comps, report.Comparison{
		Metric: "events.total", Paper: attack.PaperTotalEvents,
		Measured: float64(total), Scaled: float64(total) * scale,
	})
	return Result{ID: "table7", Title: "Table 7", Artifact: t.String(), Comparisons: comps}
}

// Table8 reports telescope traffic per protocol.
func Table8(w *World) Result {
	stats := telescope.AggregateByProtocol(w.Flows())
	scale := 1.0 / w.Cfg.TelescopeScale

	paperDaily := make(map[iot.Protocol]uint64)
	paperUnique := make(map[iot.Protocol]int)
	for _, cal := range attack.PaperTelescope {
		paperDaily[cal.Protocol] = cal.DailyCount
		paperUnique[cal.Protocol] = cal.UniqueIPs
	}
	t := report.NewTable("Telescope suspicious traffic by protocol (per simulated day)",
		"Protocol", "Packets", "Unique IPs", "Scaled pkts", "Paper daily avg")
	var comps []report.Comparison
	for _, s := range stats {
		t.AddRow(string(s.Protocol), s.Packets, s.UniqueIPs,
			uint64(float64(s.Packets)*scale),
			paperDaily[s.Protocol])
		comps = append(comps, report.Comparison{
			Metric:   "telescope." + string(s.Protocol) + ".packets",
			Paper:    float64(paperDaily[s.Protocol]),
			Measured: float64(s.Packets),
			Scaled:   float64(s.Packets) * scale,
		})
		comps = append(comps, report.Comparison{
			Metric:   "telescope." + string(s.Protocol) + ".uniqueIPs",
			Paper:    float64(paperUnique[s.Protocol]),
			Measured: float64(s.UniqueIPs),
			Scaled:   float64(s.UniqueIPs) * scale,
		})
	}
	return Result{ID: "table8", Title: "Table 8", Artifact: t.String(), Comparisons: comps}
}

// Table10 reports misconfigured devices by country.
func Table10(w *World) Result {
	findings, _ := w.Classify()
	var ips []netsim.IPv4
	for _, f := range findings {
		if f.Misconfigured() {
			ips = append(ips, f.Result.IP)
		}
	}
	counts := w.GeoDB.CountryCounts(ips)
	t := report.NewTable("Misconfigured devices by country",
		"Country", "Count", "Share")
	var comps []report.Comparison
	paperShare := map[string]float64{}
	for _, cw := range geo.PaperCountryWeights {
		paperShare[string(cw.Country)] = cw.Weight
	}
	for _, c := range counts {
		share := float64(c.Count) / float64(len(ips))
		t.AddRow(string(c.Country), c.Count, report.Percent(share))
		comps = append(comps, report.Comparison{
			Metric: "country." + string(c.Country),
			Paper:  paperShare[string(c.Country)], Measured: share,
			Note: "share of misconfigured devices",
		})
	}
	return Result{ID: "table10", Title: "Table 10", Artifact: t.String(), Comparisons: comps}
}

// Table11 verifies device-type identifiers resolve against live banners.
func Table11(w *World) Result {
	findings, _ := w.Classify()
	tagged := 0
	byModel := make(map[string]int)
	for _, f := range findings {
		if f.DeviceModel != "" {
			tagged++
			byModel[f.DeviceModel]++
		}
	}
	t := report.NewTable("Device models identified from banners/responses",
		"Model", "Type", "Count")
	for _, name := range report.SortedKeys(byModel) {
		m, _ := iot.FindModel(name)
		t.AddRow(name, string(m.Type), byModel[name])
	}
	comps := []report.Comparison{{
		Metric: "devicetags.models", Paper: float64(len(iot.Catalog)),
		Measured: float64(len(byModel)),
		Note:     "distinct catalog models observed in scan",
	}, {
		Metric: "devicetags.tagged", Paper: 0, Measured: float64(tagged),
		Note: "tagged results (paper gives no total)",
	}}
	return Result{ID: "table11", Title: "Table 11", Artifact: t.String(), Comparisons: comps}
}

// Table12 extracts the top credentials from honeypot logs.
func Table12(w *World) Result {
	events := w.Events()
	t := report.NewTable("Top credentials used by adversaries",
		"Protocol", "Username", "Password", "Count")
	var comps []report.Comparison
	for _, proto := range []iot.Protocol{iot.ProtoTelnet, iot.ProtoSSH} {
		creds := honeypot.TopCredentials(events, proto, 10)
		for _, c := range creds {
			t.AddRow(string(proto), c.Username, c.Password, c.Count)
		}
		if len(creds) > 0 {
			comps = append(comps, report.Comparison{
				Metric: "credentials." + string(proto) + ".top",
				Paper:  1, Measured: boolToFloat(creds[0].Username == "admin" && creds[0].Password == "admin"),
				Note: "top pair is admin/admin (Table 12)",
			})
		}
	}
	return Result{ID: "table12", Title: "Table 12", Artifact: t.String(), Comparisons: comps}
}

func boolToFloat(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// Table13 regenerates the malware corpus table and verifies captured
// payloads resolve to corpus samples.
func Table13(w *World) Result {
	identified := make(map[string]int)
	for _, ev := range w.Events() {
		if ev.Type != honeypot.AttackMalware || len(ev.Payload) == 0 {
			continue
		}
		if s, ok := w.Corpus.Identify(ev.Payload); ok {
			identified[string(s.Family)]++
		}
	}
	t := report.NewTable("Malware corpus (synthetic; hashes of generated samples)",
		"SlNo", "SHA256", "Variant")
	for i, s := range w.Corpus.Samples() {
		t.AddRow(i+1, s.SHA256, string(s.Family))
		if i >= 19 { // artifact shows the head; full corpus via the API
			t.AddRow("...", fmt.Sprintf("(%d more samples)", w.Corpus.Len()-20), "")
			break
		}
	}
	comps := []report.Comparison{{
		Metric: "malware.corpus", Paper: 134, Measured: float64(w.Corpus.Len()),
		Note: "Table 13 lists 134 samples; corpus mirrors the variant mix",
	}, {
		Metric: "malware.identifiedFamilies", Paper: 0,
		Measured: float64(len(identified)),
		Note:     "families observed in captured payloads",
	}}
	return Result{ID: "table13", Title: "Table 13", Artifact: t.String(), Comparisons: comps}
}

// Figure2 reports top device types per protocol.
func Figure2(w *World) Result {
	_, summary := w.Classify()
	t := report.NewTable("Top IoT device types by protocol (%)",
		"Protocol", "Type", "Share")
	var comps []report.Comparison
	for _, p := range iot.ScannedProtocols {
		types := summary.TypeByProtocol[p]
		if len(types) == 0 {
			continue
		}
		total := 0
		for _, n := range types {
			total += n
		}
		type tc struct {
			typ iot.DeviceType
			n   int
		}
		rows := make([]tc, 0, len(types))
		for typ, n := range types {
			rows = append(rows, tc{typ, n})
		}
		sort.Slice(rows, func(i, j int) bool {
			if rows[i].n != rows[j].n {
				return rows[i].n > rows[j].n
			}
			return rows[i].typ < rows[j].typ
		})
		for _, r := range rows {
			t.AddRow(string(p), string(r.typ), report.Percent(float64(r.n)/float64(total)))
		}
	}
	// Cameras must lead Telnet and UPnP identifications (Figure 2 shape).
	for _, p := range []iot.Protocol{iot.ProtoTelnet, iot.ProtoUPnP} {
		types := summary.TypeByProtocol[p]
		max := 0
		for _, n := range types {
			if n > max {
				max = n
			}
		}
		comps = append(comps, report.Comparison{
			Metric: "devicetypes." + string(p) + ".camerasLead",
			Paper:  1, Measured: boolToFloat(types[iot.TypeCamera] == max && max > 0),
			Note: "cameras are the top type",
		})
	}
	return Result{ID: "fig2", Title: "Figure 2", Artifact: t.String(), Comparisons: comps}
}

// Figure3 reports scanning-service traffic distribution per honeypot.
func Figure3(w *World) Result {
	events := w.Events()
	services := w.Sources.ScanningServiceIPs()

	perPot := make(map[string]map[string]int)
	totals := make(map[string]int)
	for _, ev := range events {
		svc, ok := services[ev.Src]
		if !ok {
			continue
		}
		if perPot[ev.Honeypot] == nil {
			perPot[ev.Honeypot] = make(map[string]int)
		}
		perPot[ev.Honeypot][svc]++
		totals[ev.Honeypot]++
	}
	t := report.NewTable("Scanning-service traffic on honeypots (%)",
		"Honeypot", "Service", "Share")
	for _, pot := range report.SortedKeys(perPot) {
		for _, svc := range report.SortedKeys(perPot[pot]) {
			t.AddRow(pot, svc, report.Percent(float64(perPot[pot][svc])/float64(totals[pot])))
		}
	}
	// Unique scanning-service sources across all honeypots vs paper 10,696.
	uniq := make(map[netsim.IPv4]bool)
	for _, ev := range events {
		if _, ok := services[ev.Src]; ok {
			uniq[ev.Src] = true
		}
	}
	comps := []report.Comparison{{
		Metric: "scanningservices.uniqueIPs", Paper: 10696,
		Measured: float64(len(uniq)),
		Scaled:   float64(len(uniq)) / w.Cfg.AttackIntensity,
	}}
	return Result{ID: "fig3", Title: "Figure 3", Artifact: t.String(), Comparisons: comps}
}

// Figure4 reports attack-type shares per honeypot.
func Figure4(w *World) Result {
	shares := honeypot.TypeShares(w.Events())
	t := report.NewTable("Attack types in different honeypots (%)",
		"Honeypot", "Type", "Share", "")
	for _, pot := range report.SortedKeys(shares) {
		for _, typ := range report.SortedKeys(shares[pot]) {
			s := shares[pot][typ]
			t.AddRow(pot, string(typ), report.Percent(s), report.Bar(s, 30))
		}
	}
	comps := []report.Comparison{{
		Metric: "attacktypes.upotDoS", Paper: 0.80,
		Measured: shares["U-Pot"][honeypot.AttackDoS],
		Note:     "U-Pot DoS share (>80% per Section 5.1.3)",
	}}
	return Result{ID: "fig4", Title: "Figure 4", Artifact: t.String(), Comparisons: comps}
}

// Figure5 compares our scanning-service classification with GreyNoise.
func Figure5(w *World) Result {
	sources := correlate.HoneypotSources(w.Events()).Sorted()
	cmp := correlate.CompareScanningServices(sources, w.RDNS, w.GreyNoise)
	t := report.NewTable("Scanning-service classification",
		"Method", "Identified")
	t.AddRow("Our classification", cmp.Ours)
	t.AddRow("GreyNoise", cmp.GreyNoise)
	t.AddRow("Ours but missed by GreyNoise", cmp.MissedByGN)
	comps := []report.Comparison{{
		Metric: "greynoise.missed", Paper: 2023,
		Measured: float64(cmp.MissedByGN),
		Scaled:   float64(cmp.MissedByGN) / w.Cfg.AttackIntensity,
		Note:     "scanning-service IPs GreyNoise did not know",
	}, {
		Metric: "greynoise.oursHigher", Paper: 1,
		Measured: boolToFloat(cmp.Ours > cmp.GreyNoise),
		Note:     "our method identifies more than GreyNoise",
	}}
	return Result{ID: "fig5", Title: "Figure 5", Artifact: t.String(), Comparisons: comps}
}

// Figure6 reports VirusTotal malicious shares per protocol and origin.
func Figure6(w *World) Result {
	shares := correlate.VirusTotalShares(w.Events(), w.Flows(), w.VirusTotal)
	t := report.NewTable("Malicious sources by VirusTotal (%)",
		"Protocol", "Origin", "Sources", "Flagged", "Share")
	var smbShare, otherSum float64
	others := 0
	for _, s := range shares {
		t.AddRow(string(s.Protocol), s.Origin, s.Sources, s.Flagged, report.Percent(s.Share()))
		// Shape metric over honeypot origins with enough sources to be
		// meaningful: SMB must sit above the cross-protocol average.
		if s.Origin != "H" || s.Sources < 5 {
			continue
		}
		if s.Protocol == iot.ProtoSMB {
			smbShare = s.Share()
		} else {
			otherSum += s.Share()
			others++
		}
	}
	meanOther := 0.0
	if others > 0 {
		meanOther = otherSum / float64(others)
	}
	comps := []report.Comparison{{
		Metric: "virustotal.topHoneypotProtocol", Paper: 1,
		Measured: boolToFloat(smbShare > meanOther),
		Note:     "SMB honeypot sources exceed the average malicious share (Section 4.3.3)",
	}}
	return Result{ID: "fig6", Title: "Figure 6", Artifact: t.String(), Comparisons: comps}
}

// Figure7 reports attack-type shares per protocol.
func Figure7(w *World) Result {
	shares := honeypot.TypeSharesByProtocol(w.Events())
	t := report.NewTable("Attack trends by type and protocol (%)",
		"Protocol", "Type", "Share", "")
	for _, proto := range report.SortedKeys(shares) {
		for _, typ := range report.SortedKeys(shares[proto]) {
			s := shares[proto][typ]
			t.AddRow(proto, string(typ), report.Percent(s), report.Bar(s, 30))
		}
	}
	udpDoS := (shares[string(iot.ProtoUPnP)][honeypot.AttackDoS] +
		shares[string(iot.ProtoCoAP)][honeypot.AttackDoS]) / 2
	tcpDoS := (shares[string(iot.ProtoTelnet)][honeypot.AttackDoS] +
		shares[string(iot.ProtoSSH)][honeypot.AttackDoS]) / 2
	comps := []report.Comparison{{
		Metric: "trends.udpDoSAboveTcp", Paper: 1,
		Measured: boolToFloat(udpDoS > tcpDoS),
		Note:     "UDP protocols receive more DoS than TCP (Section 5.1.7)",
	}, {
		Metric: "trends.telnetMalware", Paper: 1,
		Measured: boolToFloat(shares[string(iot.ProtoTelnet)][honeypot.AttackMalware] > 0.05),
		Note:     "Telnet shows malware deployment",
	}}
	return Result{ID: "fig7", Title: "Figure 7", Artifact: t.String(), Comparisons: comps}
}

// Figure8 reports the daily attack series with listing markers.
func Figure8(w *World) Result {
	daily := honeypot.DailyCounts(w.Events(), netsim.ExperimentStart, attack.ExperimentDays)
	var b strings.Builder
	b.WriteString("Total attacks by day (# = attacks; listings and DoS spikes marked)\n")
	maxN := 1
	for _, n := range daily {
		if n > maxN {
			maxN = n
		}
	}
	listings := map[int]string{}
	for _, l := range attack.PaperListings {
		listings[l.Day] = l.Service
	}
	for d, n := range daily {
		mark := ""
		if svc, ok := listings[d]; ok {
			mark = " <- listed on " + svc
		}
		for _, spike := range attack.DoSSpikeDays {
			if d == spike {
				mark += " <- DoS attack"
			}
		}
		fmt.Fprintf(&b, "Apr %02d  %6d  %s%s\n", d+1, n,
			report.Bar(float64(n)/float64(maxN), 40), mark)
	}
	firstWeek, lastWeek := 0, 0
	for d := 0; d < 7; d++ {
		firstWeek += daily[d]
		lastWeek += daily[attack.ExperimentDays-7+d]
	}
	comps := []report.Comparison{{
		Metric: "daily.upwardTrend", Paper: 1,
		Measured: boolToFloat(lastWeek > firstWeek),
		Note:     "attacks rise after scanning-service listings (Figure 8)",
	}, {
		Metric: "daily.dosSpike", Paper: 1,
		Measured: boolToFloat(daily[23] > daily[22] && daily[25] > daily[24]),
		Note:     "DoS spike days stand out",
	}}
	return Result{ID: "fig8", Title: "Figure 8", Artifact: b.String(), Comparisons: comps}
}

// Figure9 reports multistage attack flows.
func Figure9(w *World) Result {
	exclude := make(map[netsim.IPv4]bool)
	for ip := range w.Sources.ScanningServiceIPs() {
		exclude[ip] = true
	}
	attacks := honeypot.DetectMultistage(w.Events(), exclude)
	stages := honeypot.StageCounts(attacks)

	t := report.NewTable("Multistage attacks: protocols per stage",
		"Stage", "Protocol", "Count")
	for i, stage := range stages {
		for _, proto := range report.SortedKeys(stageToStrings(stage)) {
			t.AddRow(i+1, proto, stage[iot.Protocol(proto)])
		}
	}
	var stage1TelnetSSH, stage1Total int
	if len(stages) > 0 {
		for p, n := range stages[0] {
			stage1Total += n
			if p == iot.ProtoTelnet || p == iot.ProtoSSH {
				stage1TelnetSSH += n
			}
		}
	}
	stage2SMBLeads := false
	if len(stages) > 1 {
		maxN := 0
		var maxP iot.Protocol
		for p, n := range stages[1] {
			if n > maxN {
				maxN = n
				maxP = p
			}
		}
		stage2SMBLeads = maxP == iot.ProtoSMB
	}
	comps := []report.Comparison{{
		Metric: "multistage.count", Paper: attack.PaperMultistageCount,
		Measured: float64(len(attacks)),
		Scaled:   float64(len(attacks)) / w.Cfg.AttackIntensity,
	}, {
		Metric: "multistage.telnetSSHFirst", Paper: 1,
		Measured: boolToFloat(stage1Total > 0 && float64(stage1TelnetSSH)/float64(stage1Total) > 0.5),
		Note:     "majority initiate with Telnet/SSH (Section 5.4)",
	}, {
		Metric: "multistage.smbSecond", Paper: 1,
		Measured: boolToFloat(stage2SMBLeads),
		Note:     "SMB receives most second-stage attacks",
	}}
	return Result{ID: "fig9", Title: "Figure 9", Artifact: t.String(), Comparisons: comps}
}

func stageToStrings(m map[iot.Protocol]int) map[string]int {
	out := make(map[string]int, len(m))
	for k, v := range m {
		out[string(k)] = v
	}
	return out
}

// Headline computes the Section 5.3 intersection: misconfigured devices
// that attacked the honeypots and/or the telescope, plus the Censys
// extension and the reverse-lookup findings.
func Headline(w *World) Result {
	findings, _ := w.Classify()
	events, flows := w.Events(), w.Flows()

	mis := make(correlate.IPSet)
	for _, f := range findings {
		if f.Misconfigured() {
			mis[f.Result.IP] = struct{}{}
		}
	}
	hpSources := correlate.HoneypotSources(events)
	telSources := correlate.TelescopeSources(flows)
	x := correlate.Intersect(mis, hpSources, telSources)

	censys := w.PopulateCensys()
	ext := correlate.ExtendWithCensys(censys, correlate.NewIPSet(x.All()), hpSources, telSources)

	domains := correlate.ReverseLookupStudy(hpSources.Sorted(), w.RDNS)

	scale := w.ScaleFactor()
	t := report.NewTable("Misconfigured devices observed attacking (Section 5.3)",
		"Subset", "Count", "Scaled", "Paper")
	t.AddRow("honeypots only", len(x.HoneypotOnly), int(float64(len(x.HoneypotOnly))*scale), 1147)
	t.AddRow("telescope only", len(x.TelescopeOnly), int(float64(len(x.TelescopeOnly))*scale), 1274)
	t.AddRow("both", len(x.Both), int(float64(len(x.Both))*scale), 8697)
	t.AddRow("total", x.Total(), int(float64(x.Total())*scale), 11118)
	t.AddRow("censys extension", ext.Total(), int(float64(ext.Total())*scale), 1671)
	t.AddRow("registered domains", domains.RegisteredDomains, 0, 797)
	t.AddRow("domains with webpage", domains.WithWebpage, 0, 427)

	// All intersecting devices must be VT-flagged, as in the paper.
	flagged := 0
	for _, ip := range x.All() {
		if w.VirusTotal.IsMalicious(ip) {
			flagged++
		}
	}

	// The pipeline intersection above runs at the world's scale, where the
	// three-way split is a handful of devices. Validate the split *shape*
	// on a dedicated larger population (a pure hash-walk; no scanning):
	// of the paper's 11,118, 78.2% attacked both datasets.
	bothShare := infectedSplitShare(w)

	comps := []report.Comparison{
		{Metric: "headline.total", Paper: 11118, Measured: float64(x.Total()),
			Scaled: float64(x.Total()) * scale},
		{Metric: "headline.bothDominates", Paper: 1,
			Measured: boolToFloat(bothShare > 0.5),
			Note:     fmt.Sprintf("both-share %.2f at population level (paper 0.78)", bothShare)},
		{Metric: "headline.vtFlagged", Paper: 1,
			Measured: boolToFloat(x.Total() == 0 || flagged == x.Total()),
			Note:     "every intersecting device flagged by ≥1 vendor"},
		{Metric: "headline.censysExtension", Paper: 1671, Measured: float64(ext.Total()),
			Scaled: float64(ext.Total()) * scale,
			Note:   "IoT-tagged attackers outside the misconfigured set"},
	}
	return Result{ID: "headline", Title: "Section 5.3 headline", Artifact: t.String(), Comparisons: comps}
}

// infectedSplitShare derives the infected population of a /12 universe at
// 64× boost (≈170 infected devices) and returns the share that attacks
// both the honeypots and the telescope.
func infectedSplitShare(w *World) float64 {
	u := iot.NewUniverse(iot.UniverseConfig{
		Seed:         w.Cfg.Seed,
		Prefix:       netsim.MustParsePrefix("100.0.0.0/12"),
		DensityBoost: 64,
	})
	infected := attack.DeriveInfected(w.Cfg.Seed, u)
	if len(infected.IPs()) == 0 {
		return 0
	}
	both := 0
	misconfigured := 0
	for _, ip := range infected.IPs() {
		t, _ := infected.TargetsFor(ip)
		if t.Configured {
			continue
		}
		misconfigured++
		if t.Honeypots && t.Telescope {
			both++
		}
	}
	if misconfigured == 0 {
		return 0
	}
	return float64(both) / float64(misconfigured)
}
