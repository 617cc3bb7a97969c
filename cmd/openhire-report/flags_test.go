package main

import (
	"flag"
	"reflect"
	"strings"
	"testing"
)

// TestFlagsPinned pins openhire-report's flag surface — every name and default,
// as the manifest's config section records them — to what the binary
// registered before its wiring moved into internal/cli: no flag may be added,
// dropped, renamed or re-defaulted by a harness change.
func TestFlagsPinned(t *testing.T) {
	want := map[string]string{
		"checkpoint":   "",
		"cpuprofile":   "",
		"debug-addr":   "",
		"manifest":     "",
		"memprofile":   "",
		"only":         "",
		"quick":        "false",
		"resume":       "false",
		"seed":         "2021",
		"trace":        "",
		"trace-sample": "16",
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
