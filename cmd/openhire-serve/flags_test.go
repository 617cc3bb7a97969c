package main

import (
	"flag"
	"reflect"
	"strings"
	"testing"
)

// TestFlagsPinned pins openhire-serve's flag surface — every name and default,
// as the manifest's config section records them — to what the binary
// registered before its wiring moved into internal/cli: no flag may be added,
// dropped, renamed or re-defaulted by a harness change.
func TestFlagsPinned(t *testing.T) {
	want := map[string]string{
		"addr":               "",
		"boost":              "16",
		"checkpoint":         "",
		"cpuprofile":         "",
		"cycles":             "0",
		"intensity":          "0.0625",
		"manifest":           "",
		"memprofile":         "",
		"no-tsdb":            "false",
		"out":                "",
		"prefix":             "100.0.0.0/14",
		"resume":             "false",
		"scale":              "0.0001220703125",
		"seed":               "2021",
		"segment-targets":    "0",
		"segments-per-cycle": "4",
		"telescope-dir":      "",
		"tsdb-out":           "",
		"tsdb-retention":     "0",
		"workers":            "64",
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
