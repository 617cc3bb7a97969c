package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// resultSet is what -all writes and -compare reads: every run of every
// workload in both modes, the host they ran on, and what only several runs
// together can say.
type resultSet struct {
	Host    hostInfo `json:"host"`
	Seed    uint64   `json:"seed"`
	Seconds float64  `json:"seconds"`
	Runs    []setRun `json:"runs"`
	// Derived holds cross-run numbers by workload: trace_overhead_pct (traced
	// against untraced median operation) and serve.scrape_cycle_ratio.
	Derived map[string]map[string]float64 `json:"derived"`
	// CrossChecks are the output checks that need two processes.
	CrossChecks []crossCheck `json:"cross_checks"`
}

type hostInfo struct {
	CPUs       int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPUModel   string `json:"cpu_model"`
	GoVersion  string `json:"go_version"`
	Platform   string `json:"platform"`
}

type setRun struct {
	Workload string            `json:"workload"`
	Traced   bool              `json:"traced"`
	WallS    float64           `json:"wall_s"`
	Info     map[string]string `json:"info,omitempty"`
	result
}

type crossCheck struct {
	Name string `json:"name"`
	OK   bool   `json:"ok"`
}

func readHost() hostInfo {
	h := hostInfo{
		CPUs:       runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Platform:   runtime.GOOS + "/" + runtime.GOARCH,
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	return h
}

// runChild runs one workload in a process of its own, so process-level
// numbers (peak RSS, GC counts, set-up) belong to that workload alone.
func runChild(cfg config, name string, traced bool) (setRun, error) {
	self, err := os.Executable()
	if err != nil {
		return setRun{}, err
	}
	trace := "0"
	if traced {
		trace = "1"
	}
	cmd := exec.Command(self, "-workload", name, "-seed", strconv.FormatUint(cfg.seed, 10),
		"-seconds", strconv.FormatFloat(cfg.seconds, 'g', -1, 64), "-trace", trace)
	var stdout bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
	start := time.Now()
	if err := cmd.Run(); err != nil {
		return setRun{}, fmt.Errorf("%s (trace %s): %w", name, trace, err)
	}
	out := setRun{Workload: name, Traced: traced, WallS: time.Since(start).Seconds(), Info: make(map[string]string)}
	last := ""
	sc := bufio.NewScanner(&stdout)
	for sc.Scan() {
		last = sc.Text()
		if f := strings.Fields(last); len(f) == 3 && f[0] == "info" {
			out.Info[f[1]] = f[2]
		}
	}
	if err := json.Unmarshal([]byte(last), &out.result); err != nil {
		return out, fmt.Errorf("%s (trace %s): last line is not a result: %w", name, trace, err)
	}
	return out, nil
}

// runAll runs every workload untraced then traced, repeat times each.
func runAll(cfg config, repeat int, outPath string) int {
	set := resultSet{Host: readHost(), Seed: cfg.seed, Seconds: cfg.seconds}
	for _, wl := range workloads {
		for _, traced := range []bool{false, true} {
			for i := 0; i < repeat; i++ {
				run, err := runChild(cfg, wl.name, traced)
				if err != nil {
					fmt.Fprintln(os.Stderr, "openhire-bench:", err)
					return 1
				}
				fmt.Fprintf(os.Stderr, "%-18s trace=%-5v %5.1fs  attempted %d failed %d\n",
					wl.name, traced, run.WallS, run.Attempted, run.Failed)
				set.Runs = append(set.Runs, run)
			}
		}
	}
	set.derive()

	data, err := json.MarshalIndent(set, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "openhire-bench:", err)
		return 1
	}
	data = append(data, '\n')
	if outPath == "" {
		_, err = os.Stdout.Write(data)
	} else {
		err = os.WriteFile(outPath, data, 0o644)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "openhire-bench:", err)
		return 1
	}
	attempted, failed := set.failures()
	fmt.Fprintf(os.Stderr, "fail_ratio %d/%d\n", failed, attempted)
	if failed > 0 {
		return 1
	}
	return 0
}

// medianOf is the median of one metric over the runs of a workload in a mode.
func (s *resultSet) medianOf(workload string, traced bool, metric string) (float64, bool) {
	var xs []float64
	for _, r := range s.Runs {
		if r.Workload == workload && r.Traced == traced {
			if m, ok := r.Metrics[metric]; ok {
				xs = append(xs, m.Value)
			}
		}
	}
	return median(xs), len(xs) > 0
}

// infoValues lists the distinct values an info key took over a workload's runs.
func (s *resultSet) infoValues(workload, key string) []string {
	seen := make(map[string]bool)
	for _, r := range s.Runs {
		if v, ok := r.Info[key]; ok && r.Workload == workload {
			seen[v] = true
		}
	}
	return sortedKeys(seen)
}

// derive fills in what needs more than one run: tracing overhead, the scrape
// perturbation ratio, and the digest checks across modes and workloads.
func (s *resultSet) derive() {
	s.Derived = make(map[string]map[string]float64)
	for _, wl := range workloads {
		plain, ok1 := s.medianOf(wl.name, false, "op_ms_p50")
		traced, ok2 := s.medianOf(wl.name, true, "trace.op_ms_p50")
		if ok1 && ok2 {
			s.Derived[wl.name] = map[string]float64{"trace_overhead_pct": 100 * (traced/plain - 1)}
		}
	}
	month, ok1 := s.medianOf("serve_month", true, "serve.cycle_ms_p50")
	scrape, ok2 := s.medianOf("serve_scrape", true, "serve.cycle_ms_p50")
	if ok1 && ok2 && s.Derived["serve_scrape"] != nil {
		s.Derived["serve_scrape"]["serve.scrape_cycle_ratio"] = ratio(scrape, month)
	}

	// One digest per workload means the traced and untraced runs, and every
	// repeat, produced the same bytes for the seed.
	for name, key := range map[string]string{
		"report_default": "report_sha256",
		"serve_month":    "aggregates_sha256_cycle30",
		"serve_durable":  "aggregates_sha256_cycle30",
		"serve_scrape":   "aggregates_sha256_cycle30",
	} {
		if vals := s.infoValues(name, key); len(vals) > 0 {
			s.CrossChecks = append(s.CrossChecks, crossCheck{name + ": one " + key + " across runs and modes", len(vals) == 1})
		}
	}
	// Scraping must not perturb the run: same aggregates with and without it.
	a, b := s.infoValues("serve_month", "aggregates_sha256_cycle30"), s.infoValues("serve_scrape", "aggregates_sha256_cycle30")
	if len(a) > 0 && len(b) > 0 {
		s.CrossChecks = append(s.CrossChecks, crossCheck{"serve_scrape aggregates equal serve_month's", len(a) == 1 && len(b) == 1 && a[0] == b[0]})
	}
	sort.Slice(s.CrossChecks, func(i, j int) bool { return s.CrossChecks[i].Name < s.CrossChecks[j].Name })
}

// failures totals the checks of every run and the cross-run ones.
func (s *resultSet) failures() (attempted, failed int) {
	for _, r := range s.Runs {
		attempted += r.Attempted
		failed += r.Failed
	}
	for _, c := range s.CrossChecks {
		attempted++
		if !c.OK {
			failed++
		}
	}
	return attempted, failed
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func loadSet(path string) (*resultSet, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	set := &resultSet{}
	if err := json.Unmarshal(data, set); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return set, nil
}

// compareFiles prints, per workload and end-to-end metric, how much worse
// set B reads than set A beside the metric's bound, and returns 1 when any
// is outside it or either set has a failed check.
func compareFiles(out io.Writer, pathA, pathB string) int {
	a, err := loadSet(pathA)
	if err != nil {
		fmt.Fprintln(os.Stderr, "openhire-bench:", err)
		return 2
	}
	b, err := loadSet(pathB)
	if err != nil {
		fmt.Fprintln(os.Stderr, "openhire-bench:", err)
		return 2
	}
	outside := compareSets(out, a, b)
	_, failedA := a.failures()
	_, failedB := b.failures()
	fmt.Fprintf(out, "\nfailed checks: A %d, B %d; end-to-end metrics outside their bound: %d\n", failedA, failedB, outside)
	if outside > 0 || failedA > 0 || failedB > 0 {
		return 1
	}
	return 0
}

func compareSets(out io.Writer, a, b *resultSet) (outside int) {
	fmt.Fprintf(out, "%-18s %-22s %14s %14s %9s %7s\n", "workload", "metric", "A", "B", "worse by", "bound")
	for _, wl := range workloads {
		for _, d := range endToEnd {
			va, okA := a.medianOf(wl.name, false, d.Name)
			vb, okB := b.medianOf(wl.name, false, d.Name)
			if !okA || !okB {
				continue
			}
			worse := ratio(vb-va, va)
			if d.Better == "higher" {
				worse = -worse
			}
			verdict := ""
			if worse > d.Bound {
				verdict = "  OUTSIDE"
				outside++
			}
			fmt.Fprintf(out, "%-18s %-22s %14.6g %14.6g %+8.2f%% %6.0f%%%s\n", wl.name, d.Name, va, vb, 100*worse, 100*d.Bound, verdict)
		}
	}
	// Per-layer metrics have no bound; the ones that moved say where to look.
	fmt.Fprintf(out, "\nper-layer metrics that differ by more than 10%% (informational)\n")
	for _, wl := range workloads {
		for _, d := range perLayer {
			va, okA := a.medianOf(wl.name, true, d.Name)
			vb, okB := b.medianOf(wl.name, true, d.Name)
			if !okA || !okB || va == 0 {
				continue
			}
			if diff := (vb - va) / va; diff > 0.10 || diff < -0.10 {
				fmt.Fprintf(out, "%-18s %-34s %14.6g %14.6g %+8.1f%%\n", wl.name, d.Name, va, vb, 100*diff)
			}
		}
	}
	return outside
}
