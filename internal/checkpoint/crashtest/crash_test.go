// Package crashtest is the kill-and-resume harness: it builds the leg
// binaries, arms one crashpoint per child process, kills each leg at every
// registered durable-state transition, resumes from the checkpoint, and
// asserts the final artifacts are byte-identical to an uninterrupted golden
// run. It also proves the zero-perturbation property — a checkpointing run
// that is never killed emits the same bytes as a run without -checkpoint.
//
// `go test -short` sweeps only each binary's mid-run commit site; the full run
// covers every site plus the @3 (third hit) variants of the commit sites.
package crashtest

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"testing"

	"openhire/internal/checkpoint/crashpoint"
)

// binDir holds the leg binaries TestMain builds once for the whole sweep.
var binDir string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "crashtest-bin-")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	binDir = dir
	root, err := filepath.Abs(filepath.Join("..", "..", ".."))
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	for _, name := range []string{"openhire-scan", "openhire-telescope", "openhire-honeypots", "openhire-report", "openhire-serve"} {
		args := []string{"build"}
		if raceEnabled {
			args = append(args, "-race")
		}
		args = append(args, "-o", filepath.Join(dir, name), "openhire/cmd/"+name)
		cmd := exec.Command("go", args...)
		cmd.Dir = root
		if out, err := cmd.CombinedOutput(); err != nil {
			fmt.Fprintf(os.Stderr, "building %s: %v\n%s", name, err, out)
			os.RemoveAll(dir)
			os.Exit(1)
		}
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// leg describes one binary's sweep: its arguments (artifact paths relative
// to a per-run working directory, identical across runs so manifests align),
// the extra checkpointing flags, and the kill sites to arm.
type leg struct {
	binary    string
	args      []string
	ckptArgs  []string
	sites     []string
	shortSite string   // the one mid-leg commit site -short keeps
	atN       string   // the commit site also swept at its third hit
	extra     []string // further kill specs the full sweep arms
}

func scanLeg() leg {
	return leg{
		binary: "openhire-scan",
		args: []string{
			"-seed", "7", "-prefix", "100.0.0.0/22", "-boost", "16",
			"-workers", "19", "-faults", "calibrated",
			"-out", "results.jsonl", "-trace", "run.trace", "-trace-sample", "4",
			"-manifest", "manifest.json",
		},
		ckptArgs:  []string{"-checkpoint", "ck", "-checkpoint-every", "64"},
		sites:     crashpoint.ScanSites,
		shortSite: crashpoint.SiteScanSegmentCommit,
		atN:       crashpoint.SiteScanSegmentCommit,
	}
}

func telescopeLeg() leg {
	return leg{
		binary: "openhire-telescope",
		args: []string{
			"-seed", "5", "-days", "3", "-scale", "0.0002", "-workers", "4",
			"-rotate", "-out", "flows.csv",
			"-trace", "run.trace", "-trace-sample", "4",
			"-manifest", "manifest.json",
		},
		ckptArgs:  []string{"-checkpoint", "ck"},
		sites:     crashpoint.TelescopeSites,
		shortSite: crashpoint.SiteTelescopeDayCommit,
		atN:       crashpoint.SiteTelescopeDayCommit,
	}
}

func honeypotLeg() leg {
	return leg{
		binary: "openhire-honeypots",
		args: []string{
			"-seed", "9", "-intensity", "0.002", "-workers", "16",
			"-export", "exports", "-trace", "run.trace", "-trace-sample", "4",
			"-manifest", "manifest.json",
		},
		ckptArgs:  []string{"-checkpoint", "ck"},
		sites:     crashpoint.HoneypotSites,
		shortSite: crashpoint.SiteCampaignDayCommit,
		atN:       crashpoint.SiteCampaignDayCommit,
	}
}

// reportLeg runs one scan, one attack and one telescope experiment on the
// quick world, so every world phase the trace and manifest tails read is
// forced by some experiment and re-forced on resume.
func reportLeg() leg {
	return leg{
		binary: "openhire-report",
		args: []string{
			"-seed", "13", "-quick", "-only", "table4,table7,table8",
			"-trace", "run.trace", "-trace-sample", "4",
			"-manifest", "manifest.json",
		},
		ckptArgs:  []string{"-checkpoint", "ck"},
		sites:     crashpoint.ReportSites,
		shortSite: crashpoint.SiteReportExperimentCommit,
		atN:       crashpoint.SiteReportExperimentCommit,
	}
}

func serveLeg() leg {
	return leg{
		binary: "openhire-serve",
		args: []string{
			"-seed", "11", "-prefix", "100.0.0.0/24", "-boost", "16",
			"-workers", "9", "-cycles", "3", "-segments-per-cycle", "2",
			"-segment-targets", "64", "-intensity", "0.002", "-scale", "0.0002",
			"-out", "aggregates.json", "-tsdb-out", "timeseries.json",
			"-telescope-dir", "telescope", "-manifest", "manifest.json",
		},
		ckptArgs:  []string{"-checkpoint", "ck"},
		sites:     crashpoint.ServeSites,
		shortSite: crashpoint.SiteServeCycleCommit,
		atN:       crashpoint.SiteServeCycleCommit,
		// A cycle renames 24 hour files, then serve-tsdb.ckpt and
		// serve.ckpt as one group, then the wall file: the 53rd rename is
		// cycle 2's serve.ckpt, so the kill leaves cycle 2's tsdb file
		// beside cycle 1's serve.ckpt, and the resume must rewrite it.
		extra: []string{crashpoint.SiteAtomicStaged + "@53"},
	}
}

// run executes one child process in dir with an optional armed crashpoint
// and returns its exit code.
func run(t *testing.T, dir string, l leg, crashSpec string, extra ...string) int {
	t.Helper()
	cmd := exec.Command(filepath.Join(binDir, l.binary), append(append([]string{}, l.args...), extra...)...)
	cmd.Dir = dir
	cmd.Env = append(os.Environ(), crashpoint.EnvVar+"="+crashSpec)
	out, err := cmd.CombinedOutput()
	if err == nil {
		return 0
	}
	if ee, ok := err.(*exec.ExitError); ok {
		if ee.ExitCode() != crashpoint.ExitCode {
			t.Logf("%s output:\n%s", l.binary, out)
		}
		return ee.ExitCode()
	}
	t.Fatalf("%s: %v\n%s", l.binary, err, out)
	return -1
}

// artifacts lists a run directory's durable outputs (everything except the
// manifest, compared structurally, and the checkpoint directory itself) as
// sorted dir-relative paths.
func artifacts(t *testing.T, dir string) []string {
	t.Helper()
	var out []string
	err := filepath.Walk(dir, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(dir, path)
		if info.IsDir() {
			if rel == "ck" {
				return filepath.SkipDir
			}
			return nil
		}
		if rel == "manifest.json" {
			return nil
		}
		out = append(out, rel)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(out)
	return out
}

// checkNoStagingFiles asserts nothing under dir — the checkpoint directory
// included — is a hidden ".NAME.tmp" staging file. A kill inside the
// atomic-write staging window orphans one (up to 24 when it lands in a
// cycle's hour-file group), but staging names are deterministic and a resumed
// run writes every file the killed run was writing, so it stages over each
// orphan and renames it away.
func checkNoStagingFiles(t *testing.T, label, dir string) {
	t.Helper()
	err := filepath.Walk(dir, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		if path != dir && info.Name()[0] == '.' {
			rel, _ := filepath.Rel(dir, path)
			t.Errorf("%s: staging file %s left behind", label, rel)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// compareArtifacts asserts every durable output in got is byte-identical to
// golden, and that neither side has files the other lacks.
func compareArtifacts(t *testing.T, label, golden, got string) {
	t.Helper()
	ga, oa := artifacts(t, golden), artifacts(t, got)
	if len(ga) == 0 {
		t.Fatalf("%s: golden run produced no artifacts", label)
	}
	gset := make(map[string]bool, len(ga))
	for _, p := range ga {
		gset[p] = true
	}
	for _, p := range oa {
		if !gset[p] {
			t.Errorf("%s: extra artifact %s", label, p)
		}
	}
	for _, p := range ga {
		want, err := os.ReadFile(filepath.Join(golden, p))
		if err != nil {
			t.Fatal(err)
		}
		gotBytes, err := os.ReadFile(filepath.Join(got, p))
		if err != nil {
			t.Errorf("%s: missing artifact %s", label, p)
			continue
		}
		if !bytes.Equal(want, gotBytes) {
			t.Errorf("%s: artifact %s differs from golden (%d vs %d bytes)",
				label, p, len(want), len(gotBytes))
		}
	}
}

// scrubManifest loads a manifest and removes the fields that legitimately
// vary between a plain, a checkpointing, and a resumed run of the same
// (seed, config): wall-clock phase timings always, and — when dropCkpt is
// set — the checkpointing config flags and the committed-checkpoint records
// themselves. Everything else must match exactly.
func scrubManifest(t *testing.T, path string, dropCkpt bool) string {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("manifest: %v", err)
	}
	var m map[string]any
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatalf("manifest %s: %v", path, err)
	}
	if cfg, ok := m["config"].(map[string]any); ok {
		delete(cfg, "resume")
		if dropCkpt {
			delete(cfg, "checkpoint")
			delete(cfg, "checkpoint-every")
		}
	}
	if dropCkpt {
		delete(m, "checkpoints")
	}
	if phases, ok := m["phases"].([]any); ok {
		for _, p := range phases {
			if pm, ok := p.(map[string]any); ok {
				delete(pm, "wall_ns")
			}
		}
	}
	out, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	return string(out)
}

// compareManifests asserts two manifests agree after scrubbing.
func compareManifests(t *testing.T, label, pathA, pathB string, dropCkpt bool) {
	t.Helper()
	a := scrubManifest(t, pathA, dropCkpt)
	b := scrubManifest(t, pathB, dropCkpt)
	if a != b {
		t.Errorf("%s: manifests differ after scrubbing:\n  A: %s\n  B: %s", label, a, b)
	}
}

// sweep drives one leg through the full matrix: golden run, zero-perturbation
// check, then kill-and-resume at each requested site spec.
func sweep(t *testing.T, l leg) {
	t.Parallel()

	golden := t.TempDir()
	if code := run(t, golden, l, ""); code != 0 {
		t.Fatalf("golden run exited %d", code)
	}

	// Zero-perturbation: checkpointing enabled but never killed must emit
	// byte-identical artifacts and a manifest that differs only in the
	// checkpointing flags and records.
	ckptGolden := t.TempDir()
	if code := run(t, ckptGolden, l, "", l.ckptArgs...); code != 0 {
		t.Fatalf("checkpointed golden run exited %d", code)
	}
	compareArtifacts(t, "zero-perturbation", golden, ckptGolden)
	compareManifests(t, "zero-perturbation",
		filepath.Join(golden, "manifest.json"), filepath.Join(ckptGolden, "manifest.json"), true)

	specs := []string{l.shortSite}
	if !testing.Short() {
		specs = specs[:0]
		for _, s := range l.sites {
			specs = append(specs, s)
		}
		specs = append(specs, l.atN+"@3")
		specs = append(specs, l.extra...)
	}
	for _, spec := range specs {
		spec := spec
		t.Run(spec, func(t *testing.T) {
			dir := t.TempDir()
			code := run(t, dir, l, spec, l.ckptArgs...)
			if code == 0 {
				t.Fatalf("site %s never fired: killed run exited 0", spec)
			}
			if code != crashpoint.ExitCode {
				t.Fatalf("killed run exited %d, want %d", code, crashpoint.ExitCode)
			}
			if code := run(t, dir, l, "", append(append([]string{}, l.ckptArgs...), "-resume")...); code != 0 {
				t.Fatalf("resume exited %d", code)
			}
			compareArtifacts(t, "kill at "+spec, golden, dir)
			checkNoStagingFiles(t, "kill at "+spec, dir)
			// The resumed manifest's checkpoint records must match the
			// never-killed run's exactly: checkpoint bytes are independent
			// of kill history.
			compareManifests(t, "kill at "+spec,
				filepath.Join(ckptGolden, "manifest.json"), filepath.Join(dir, "manifest.json"), false)
		})
	}
}

func TestCrashResumeScan(t *testing.T)      { sweep(t, scanLeg()) }
func TestCrashResumeTelescope(t *testing.T) { sweep(t, telescopeLeg()) }
func TestCrashResumeHoneypots(t *testing.T) { sweep(t, honeypotLeg()) }
func TestCrashResumeReport(t *testing.T)    { sweep(t, reportLeg()) }
func TestCrashResumeServe(t *testing.T)     { sweep(t, serveLeg()) }

// TestReportResumeInstrumentedAfterBareKill pins that what the report's
// checkpoint says about the world's phases does not depend on what was
// observing the killed run. The phase list used to be read off the tracer, so
// a run killed without instruments checkpointed none, and a resume with
// -manifest recorded only the phases its remaining experiments forced. Kill a
// bare run after its second experiment, resume it with -trace and -manifest:
// the trace file and the whole manifest — phases, counters, output digests —
// must be those of an uninterrupted instrumented run, except for the chain
// records: a bare checkpoint carries no trace events, so its bytes
// legitimately differ from an instrumented one's.
func TestReportResumeInstrumentedAfterBareKill(t *testing.T) {
	t.Parallel()
	l := reportLeg()
	golden := t.TempDir()
	if code := run(t, golden, l, "", l.ckptArgs...); code != 0 {
		t.Fatalf("golden run exited %d", code)
	}

	bare := l
	bare.args = []string{"-seed", "13", "-quick", "-only", "table4,table7,table8"}
	dir := t.TempDir()
	spec := crashpoint.SiteReportExperimentCommit + "@2"
	if code := run(t, dir, bare, spec, l.ckptArgs...); code != crashpoint.ExitCode {
		t.Fatalf("bare run armed with %s exited %d, want %d", spec, code, crashpoint.ExitCode)
	}
	if code := run(t, dir, l, "", append(append([]string{}, l.ckptArgs...), "-resume")...); code != 0 {
		t.Fatalf("instrumented resume exited %d", code)
	}

	compareArtifacts(t, "bare kill, instrumented resume", golden, dir)
	compareManifests(t, "bare kill, instrumented resume",
		filepath.Join(golden, "manifest.json"), filepath.Join(dir, "manifest.json"), true)
}

// TestCheckpointIgnoresObservation pins that durable state does not depend on
// what was observing the run: the telescope leg's -rotate checkpoint carries
// the day files' digests, and it used to compute them only when a registry
// existed — so asking for a debug listener changed the checkpoint bytes.
func TestCheckpointIgnoresObservation(t *testing.T) {
	t.Parallel()
	l := leg{
		binary: "openhire-telescope",
		args: []string{
			"-seed", "5", "-days", "2", "-scale", "0.0002", "-workers", "4",
			"-rotate", "-out", "flows.csv", "-checkpoint", "ck",
		},
	}
	bare, observed := t.TempDir(), t.TempDir()
	if code := run(t, bare, l, ""); code != 0 {
		t.Fatalf("bare run exited %d", code)
	}
	if code := run(t, observed, l, "", "-debug-addr", "127.0.0.1:0"); code != 0 {
		t.Fatalf("observed run exited %d", code)
	}
	want, err := os.ReadFile(filepath.Join(bare, "ck", "telescope.ckpt"))
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join(observed, "ck", "telescope.ckpt"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want, got) {
		t.Errorf("telescope.ckpt differs with -debug-addr (%d vs %d bytes)", len(want), len(got))
	}
}

// goldenDayFiles are the sha256 digests of openhire-telescope's rotated day
// files in both formats, recorded from the binary at the last commit whose
// encoder was fmt.Fprintf per record and whose drain was sort.Slice. The
// sweeps above only compare a binary with itself; these constants are what
// notices a codec or drain-order change that moves the bytes on both sides.
var goldenDayFiles = map[string][3]string{
	"csv": {
		"d227f0ff9a655fb64558db1b550b20f7bab98f3432f79608109a32b356114069",
		"ed2a5bc564960536a4e0ae021c04571a9fbed26e163881fef31f5cea6100a008",
		"56d75bfeab45357410eedc5ee278c8b8e0d7ab52bb8ec726496abb5265ff7b14",
	},
	"bin": {
		"2c8e3bb79903f37a3c4036794d04af6bf27fa1e750bc99746d4f40965e36a6bd",
		"74107dabcf33f34b3ee77897389af20e86d6e385e2852c9472d7b7c895790d7e",
		"30f9f1a55a1a32dcb7f45b309dfd1afcbcf0c6277d2b58d63d9aafea07697569",
	},
}

// TestTelescopeDayFilesGolden pins the day files' bytes across binaries, and
// that -parse reads each format back to the same table.
func TestTelescopeDayFilesGolden(t *testing.T) {
	t.Parallel()
	tables := make(map[string]string)
	for format, want := range goldenDayFiles {
		dir := t.TempDir()
		l := leg{binary: "openhire-telescope", args: []string{
			"-seed", "5", "-days", "3", "-scale", "0.0002", "-workers", "4",
			"-rotate", "-out", "flows", "-format", format,
		}}
		if code := run(t, dir, l, ""); code != 0 {
			t.Fatalf("-format %s run exited %d", format, code)
		}
		for day, wantSum := range want {
			name := fmt.Sprintf("flows.day%02d", day)
			data, err := os.ReadFile(filepath.Join(dir, name))
			if err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(data)
			if got := hex.EncodeToString(sum[:]); got != wantSum {
				t.Errorf("-format %s %s diverged from golden:\n got %s\nwant %s", format, name, got, wantSum)
			}
			cmd := exec.Command(filepath.Join(binDir, l.binary), "-parse", name)
			cmd.Dir = dir
			out, err := cmd.Output()
			if err != nil {
				t.Fatalf("-parse %s (%s): %v", name, format, err)
			}
			// The first line names the file and is the same in both formats too.
			tables[format] += string(out)
		}
	}
	if tables["csv"] != tables["bin"] || tables["csv"] == "" {
		t.Errorf("-parse tables differ between formats:\ncsv:\n%s\nbin:\n%s", tables["csv"], tables["bin"])
	}
}
