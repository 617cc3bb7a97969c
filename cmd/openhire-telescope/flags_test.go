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

// mainArgsEnv, set in a child process of TestOutOfRangeScaleExits2, holds
// the arguments that child runs main with.
const mainArgsEnv = "OPENHIRE_TEST_MAIN_ARGS"

// TestOutOfRangeScaleExits2 runs main in a child process with each -scale
// outside (0, 1]: it must exit 2 naming the range, before any work. The
// generator would replace such a scale with 1/8192 while the binary reported
// the value it was given.
func TestOutOfRangeScaleExits2(t *testing.T) {
	if args := os.Getenv(mainArgsEnv); args != "" {
		os.Args = append([]string{"openhire-telescope"}, strings.Fields(args)...)
		main()
		return
	}
	for _, scale := range []string{"2", "0", "-1", "NaN"} {
		cmd := exec.Command(os.Args[0], "-test.run=^TestOutOfRangeScaleExits2$")
		cmd.Env = append(os.Environ(), mainArgsEnv+"=-scale="+scale+" -days=1")
		out, err := cmd.CombinedOutput()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 || !strings.Contains(string(out), "outside (0, 1]") {
			t.Errorf("-scale %s: %v, want exit 2 naming the range\n%s", scale, err, out)
		}
	}
}
