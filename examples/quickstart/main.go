// Quickstart: build a tiny simulated Internet, scan it for misconfigured
// IoT devices, and print what the pipeline finds.
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"

	"openhire/internal/core/classify"
	"openhire/internal/core/fingerprint"
	"openhire/internal/core/scan"
	"openhire/internal/iot"
	"openhire/internal/netsim"
)

func main() {
	// 1. A /20 universe (4,096 addresses) with a boosted device density so
	//    the small range still contains a realistic population.
	prefix := netsim.MustParsePrefix("100.0.0.0/20")
	universe := iot.NewUniverse(iot.UniverseConfig{
		Seed:         42,
		Prefix:       prefix,
		DensityBoost: 256,
	})
	network := netsim.NewNetwork(netsim.NewSimClock(netsim.ExperimentStart))
	network.AddProvider(prefix, universe)

	// 2. Scan all six protocols, ZMap-style.
	scanner := scan.NewScanner(scan.Config{
		Network: network,
		Source:  netsim.MustParseIPv4("130.226.0.1"),
		Prefix:  prefix,
		Seed:    42,
		Workers: 64,
	})
	results, _, err := scanner.Run(context.Background(), scan.AllModules(), nil, 0, nil)
	if err != nil {
		log.Fatal(err)
	}

	// 3. Filter honeypots and classify misconfigurations.
	for _, proto := range iot.ScannedProtocols {
		genuine, honeypots := fingerprint.Filter(results[proto])
		findings := classify.ClassifyAll(genuine)
		misconfigured := 0
		for _, f := range findings {
			if f.Misconfigured() {
				misconfigured++
			}
		}
		fmt.Printf("%-7s exposed=%-4d misconfigured=%-4d honeypots=%d\n",
			proto, len(genuine), misconfigured, len(honeypots))
	}

	// 4. Show a few concrete findings with their evidence.
	fmt.Println("\nsample findings:")
	shown := 0
	for _, proto := range iot.ScannedProtocols {
		genuine, _ := fingerprint.Filter(results[proto])
		for _, f := range classify.ClassifyAll(genuine) {
			if !f.Misconfigured() || shown >= 8 {
				continue
			}
			shown++
			device := f.DeviceModel
			if device == "" {
				device = "(untyped)"
			}
			fmt.Printf("  %-15s %-7s %-28s evidence: %q\n",
				f.Result.IP, proto, f.Misconfig, f.Indicator)
			_ = device
		}
	}
}
