package main

import (
	"flag"
	"reflect"
	"strings"
	"testing"
)

// TestFlagsPinned pins openhire-telescope's flag surface — every name and default,
// as the manifest's config section records them — to what the binary
// registered before its wiring moved into internal/cli: no flag may be added,
// dropped, renamed or re-defaulted by a harness change.
func TestFlagsPinned(t *testing.T) {
	want := map[string]string{
		"checkpoint":   "",
		"cpuprofile":   "",
		"days":         "1",
		"debug-addr":   "",
		"format":       "csv",
		"manifest":     "",
		"memprofile":   "",
		"out":          "",
		"parse":        "",
		"resume":       "false",
		"rotate":       "false",
		"scale":        "0.0001220703125",
		"seed":         "2021",
		"trace":        "",
		"trace-sample": "16",
		"workers":      "0",
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

// TestFormatCheckedAtParse pins that -format is validated with the flags —
// main passes checkFormat to cli.Usage (exit 2) before any work — rather than
// when the first file is written, after the capture was generated.
func TestFormatCheckedAtParse(t *testing.T) {
	for format, ok := range map[string]bool{"csv": true, "bin": true, "xyz": false, "": false, "CSV": false} {
		if err := checkFormat(format); (err == nil) != ok {
			t.Errorf("checkFormat(%q) = %v, want ok %v", format, err, ok)
		}
	}
}
