package main

import (
	"flag"
	"reflect"
	"strings"
	"testing"
)

// TestFlagsPinned pins openhire-scan's flag surface — every name and default,
// as the manifest's config section records them — to what the binary
// registered before its wiring moved into internal/cli: no flag may be added,
// dropped, renamed or re-defaulted by a harness change.
func TestFlagsPinned(t *testing.T) {
	want := map[string]string{
		"boost":             "16",
		"breaker-threshold": "0",
		"checkpoint":        "",
		"checkpoint-every":  "4096",
		"cpuprofile":        "",
		"debug-addr":        "",
		"extended":          "false",
		"faults":            "",
		"in":                "",
		"manifest":          "",
		"max-attempts":      "0",
		"memprofile":        "",
		"out":               "",
		"prefix":            "100.0.0.0/14",
		"probe-timeout":     "0s",
		"protocol":          "",
		"resume":            "false",
		"seed":              "2021",
		"show-honeypots":    "false",
		"target-budget":     "0s",
		"trace":             "",
		"trace-sample":      "16",
		"verify-honeypots":  "false",
		"workers":           "128",
	}
	got := make(map[string]string)
	flag.VisitAll(func(f *flag.Flag) {
		if !strings.HasPrefix(f.Name, "test.") {
			got[f.Name] = f.DefValue
		}
	})
	if !reflect.DeepEqual(got, want) {
		t.Errorf("flag defaults changed:\n got %v\nwant %v", got, want)
	}
}
