// Quickstart: build a tiny simulated Internet, scan it for misconfigured
// IoT devices, and print what the pipeline finds.
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"io"
	"log"
	"os"

	"openhire/internal/core/classify"
	"openhire/internal/core/fingerprint"
	"openhire/internal/core/scan"
	"openhire/internal/iot"
	"openhire/internal/netsim"
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run builds the world, scans it and writes one count line per protocol,
// then a few sample findings, to w.
func run(w io.Writer) error {
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
		return err
	}

	// 3. Filter honeypots and classify misconfigurations, once per protocol;
	//    keep each protocol's first two misconfigured findings for step 4.
	var samples []classify.Finding
	for _, proto := range iot.ScannedProtocols {
		genuine, honeypots := fingerprint.Filter(results[proto])
		n := 0
		for _, f := range classify.ClassifyAll(genuine) {
			if !f.Misconfigured() {
				continue
			}
			if n < 2 {
				samples = append(samples, f)
			}
			n++
		}
		fmt.Fprintf(w, "%-7s exposed=%-4d misconfigured=%-4d honeypots=%d\n",
			proto, len(genuine), n, len(honeypots))
	}

	// 4. Show a few concrete findings with their device and evidence.
	fmt.Fprintln(w, "\nsample findings:")
	for _, f := range samples {
		device := f.DeviceModel
		if device == "" {
			device = "(untyped)"
		}
		fmt.Fprintf(w, "  %-15s %-7s %-28s %-24s evidence: %q\n",
			f.Result.IP, f.Result.Protocol, f.Misconfig, device, f.Indicator)
	}
	return nil
}
