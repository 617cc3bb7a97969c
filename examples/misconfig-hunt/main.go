// misconfig-hunt: the full Section 3.1/3.2 pipeline on a /16 — scan,
// cross-check against the simulated open datasets (Project Sonar, Shodan),
// fingerprint and filter honeypots, classify misconfigurations, and type
// devices from their banners.
//
//	go run ./examples/misconfig-hunt
package main

import (
	"context"
	"fmt"
	"log"
	"os"

	"openhire/internal/core/classify"
	"openhire/internal/core/fingerprint"
	"openhire/internal/core/report"
	"openhire/internal/core/scan"
	"openhire/internal/datasets"
	"openhire/internal/iot"
	"openhire/internal/netsim"
)

func main() {
	prefix := netsim.MustParsePrefix("100.0.0.0/16")
	universe := iot.NewUniverse(iot.UniverseConfig{
		Seed:         7,
		Prefix:       prefix,
		DensityBoost: 64,
	})
	network := netsim.NewNetwork(netsim.NewSimClock(netsim.ExperimentStart))
	network.AddProvider(prefix, universe)

	scanner := scan.NewScanner(scan.Config{
		Network: network,
		Source:  netsim.MustParseIPv4("130.226.0.1"),
		Prefix:  prefix,
		Seed:    7,
		Workers: 128,
	})
	fmt.Println("scanning", prefix, "...")
	results, _, err := scanner.Run(context.Background(), scan.AllModules(), nil, 0, nil)
	if err != nil {
		log.Fatal(err)
	}

	// Cross-check with the open datasets, Table 4 style.
	sonar := datasets.ProjectSonar(8, universe)
	shodan := datasets.Shodan(9, universe)
	t4 := report.NewTable("Exposure by source", "Protocol", "Our scan", "Sonar", "Shodan")
	for _, p := range iot.ScannedProtocols {
		sonarCell := "NA"
		if sonar.Covers(p) {
			sonarCell = report.Comma(sonar.Count(p))
		}
		t4.AddRow(string(p), len(results[p]), sonarCell, shodan.Count(p))
	}
	fmt.Println()
	_ = t4.Render(os.Stdout)

	// Honeypot sanitization.
	var dets []fingerprint.Detection
	var findings []classify.Finding
	for _, p := range iot.ScannedProtocols {
		genuine, d := fingerprint.Filter(results[p])
		dets = append(dets, d...)
		findings = append(findings, classify.ClassifyAll(genuine)...)
	}
	fmt.Printf("\nfiltered %d honeypots:", len(dets))
	for _, fc := range fingerprint.CountByFamily(dets) {
		fmt.Printf(" %s=%d", fc.Family, fc.Count)
	}
	fmt.Println()

	// Misconfiguration + device-type summary.
	summary := classify.Summarize(findings)
	fmt.Printf("\nmisconfigured devices: %d (%.1f%% of responses)\n",
		summary.TotalMisconfigured,
		100*float64(summary.TotalMisconfigured)/float64(len(findings)))

	t2 := report.NewTable("\nDevice types per protocol", "Protocol", "Type", "Count")
	for _, p := range iot.ScannedProtocols {
		for _, typ := range report.SortedKeys(stringKeys(summary.TypeByProtocol[p])) {
			t2.AddRow(string(p), typ, summary.TypeByProtocol[p][iot.DeviceType(typ)])
		}
	}
	_ = t2.Render(os.Stdout)
}

func stringKeys(m map[iot.DeviceType]int) map[string]int {
	out := make(map[string]int, len(m))
	for k, v := range m {
		out[string(k)] = v
	}
	return out
}
