package main

import (
	"errors"
	"flag"
	"os"
	"os/exec"
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

// mainArgsEnv, set in a child process of TestOutOfRangeScaleExits2, holds
// the arguments that child runs main with.
const mainArgsEnv = "OPENHIRE_TEST_MAIN_ARGS"

// TestOutOfRangeScaleExits2 runs main in a child process with each -scale
// outside (0, 1]: it must exit 2 naming the range, before any work. The
// generator would replace such a scale with 1/8192 while the binary reported
// the value it was given.
func TestOutOfRangeScaleExits2(t *testing.T) {
	if args := os.Getenv(mainArgsEnv); args != "" {
		os.Args = append([]string{"openhire-serve"}, strings.Fields(args)...)
		main()
		return
	}
	for _, scale := range []string{"2", "0", "-1", "NaN"} {
		cmd := exec.Command(os.Args[0], "-test.run=^TestOutOfRangeScaleExits2$")
		cmd.Env = append(os.Environ(), mainArgsEnv+"=-scale="+scale+" -cycles=1")
		out, err := cmd.CombinedOutput()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 || !strings.Contains(string(out), "outside (0, 1]") {
			t.Errorf("-scale %s: %v, want exit 2 naming the range\n%s", scale, err, out)
		}
	}
}
