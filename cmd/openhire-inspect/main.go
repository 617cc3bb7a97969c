// Command openhire-inspect analyzes the observability artifacts the pipeline
// binaries emit: flight-recorder traces (-trace) and run manifests
// (-manifest).
//
// Usage:
//
//	openhire-inspect summarize FILE
//	openhire-inspect diff A B
//	openhire-inspect prom MANIFEST
//	openhire-inspect timeline [-last N] (URL|FILE)
//	openhire-inspect checkpoint FILE
//
// summarize prints a human-readable digest of one trace: per-protocol
// simulated-latency percentiles, the observed retransmit/backoff schedule,
// outcome counts, circuit-breaker and host-flap timelines, and top talkers.
//
// diff compares two artifacts of the same kind — manifests on seed, build,
// config, counters, gauges, histograms, phase sim-timings and output
// digests; traces key-by-key on their event sequences. Wall-clock timings
// are excluded by design. Exit status 1 when the artifacts differ, so the
// command doubles as a regression gate: two runs of the same (seed, config,
// build) must diff clean, and any reported divergence is a real behavior
// change.
//
// prom re-emits a manifest's counter/gauge/histogram sets in the Prometheus
// text exposition format (the live equivalent is /metrics?format=prom on a
// running binary's -debug-addr).
//
// timeline renders a serve daemon's time-series observatory — per-cycle
// leg-duration attribution, trend sparklines and rollup summaries — from a
// live daemon URL, a serve-tsdb checkpoint file, or a -tsdb-out state file.
//
// checkpoint decodes a serve daemon's binary serve.ckpt and prints its state
// as indented JSON, followed by the payload's encoded bytes per member.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strings"

	"openhire/internal/obs"
	"openhire/internal/obs/trace"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	switch os.Args[1] {
	case "summarize":
		if len(os.Args) != 3 {
			usage()
			os.Exit(2)
		}
		if err := summarize(os.Stdout, os.Args[2]); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	case "diff":
		if len(os.Args) != 4 {
			usage()
			os.Exit(2)
		}
		n, err := diff(os.Stdout, os.Args[2], os.Args[3])
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if n > 0 {
			os.Exit(1)
		}
	case "prom":
		if len(os.Args) != 3 {
			usage()
			os.Exit(2)
		}
		if err := prom(os.Stdout, os.Args[2]); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	case "timeline":
		if err := timelineCmd(os.Stdout, os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	case "checkpoint":
		if len(os.Args) != 3 {
			usage()
			os.Exit(2)
		}
		if err := inspectCheckpoint(os.Stdout, os.Args[2]); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	default:
		usage()
		os.Exit(2)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  openhire-inspect summarize FILE   digest one trace or manifest
  openhire-inspect diff A B         compare two traces or two manifests (exit 1 on differences)
  openhire-inspect prom MANIFEST    emit a manifest's metrics in Prometheus text format
  openhire-inspect timeline [-last N] (URL|FILE)
                                    render a serve daemon's time-series timeline from a live
                                    /api/timeseries URL, a serve-tsdb checkpoint, or a -tsdb-out file
  openhire-inspect checkpoint FILE  print a serve.ckpt's decoded state and its bytes per member`)
}

// artifactKind sniffs whether a file is a JSONL trace or a JSON manifest by
// its first line: traces always open with the {"kind":"trace.meta",...}
// record, manifests with an indented JSON object.
func artifactKind(path string) (string, error) {
	f, err := os.Open(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	br := bufio.NewReader(f)
	line, err := br.ReadBytes('\n')
	if err != nil && len(line) == 0 {
		return "", fmt.Errorf("%s: %w", path, err)
	}
	if bytes.Contains(line, []byte(`"trace.meta"`)) {
		return "trace", nil
	}
	if bytes.HasPrefix(bytes.TrimSpace(line), []byte("{")) {
		return "manifest", nil
	}
	return "", fmt.Errorf("%s: neither a trace nor a manifest", path)
}

// readManifest parses a run manifest from disk.
func readManifest(path string) (*obs.Manifest, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var m obs.Manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &m, nil
}

// prom re-emits a manifest's metric sets in Prometheus text format.
func prom(w *os.File, path string) error {
	m, err := readManifest(path)
	if err != nil {
		return err
	}
	s := obs.Snapshot{Counters: m.Counters, Gauges: m.Gauges, Histograms: m.Histograms}
	return s.WritePrometheus(w)
}

// summarize dispatches on artifact kind.
func summarize(w io.Writer, path string) error {
	kind, err := artifactKind(path)
	if err != nil {
		return err
	}
	if kind == "manifest" {
		return summarizeManifest(w, path)
	}
	meta, evs, truncated, err := trace.ReadFileLenient(path)
	if err != nil {
		return err
	}
	if truncated {
		fmt.Fprintf(os.Stderr, "warning: %s ends in a partial event line (crash tail); dropped\n", path)
	}
	return summarizeTrace(w, path, meta, evs)
}

// summarizeManifest prints a short digest of one run manifest.
func summarizeManifest(w io.Writer, path string) error {
	m, err := readManifest(path)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "manifest %s: binary %s, seed %d\n", path, m.Binary, m.Seed)
	if m.Build != nil {
		fmt.Fprintf(w, "build: %s %s %s", m.Build.GoVersion, m.Build.Module, m.Build.Version)
		if m.Build.Revision != "" {
			fmt.Fprintf(w, " rev %.12s dirty=%v", m.Build.Revision, m.Build.Dirty)
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "%d config keys, %d counters, %d gauges, %d histograms, %d phases, %d outputs\n",
		len(m.Config), len(m.Counters), len(m.Gauges), len(m.Histograms), len(m.Phases), len(m.Outputs))
	for _, sp := range m.Phases {
		fmt.Fprintf(w, "  phase %-24s sim %s\n", sp.Name, fmtNS(sp.SimNS))
	}
	for _, name := range sortedKeys(m.Outputs) {
		fmt.Fprintf(w, "  output %-30s %s\n", name, shortDigest(m.Outputs[name]))
	}
	if m.Interrupted {
		fmt.Fprintln(w, "interrupted: true (run stopped at a checkpoint; artifacts cover the committed prefix)")
	}
	if len(m.Checkpoints) > 0 {
		var total int64
		for _, c := range m.Checkpoints {
			total += c.Bytes
		}
		fmt.Fprintf(w, "checkpoints: %d committed, %s total, %s avg\n",
			len(m.Checkpoints), fmtBytes(total), fmtBytes(total/int64(len(m.Checkpoints))))
		for _, c := range m.Checkpoints {
			fmt.Fprintf(w, "  ckpt %-10s %10s  %s\n", c.Name, fmtBytes(c.Bytes), shortDigest(c.Digest))
		}
	}
	return nil
}

// fmtBytes renders a byte count with a binary unit suffix.
func fmtBytes(n int64) string {
	switch {
	case n >= 1<<20:
		return fmt.Sprintf("%.1f MiB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.1f KiB", float64(n)/(1<<10))
	default:
		return fmt.Sprintf("%d B", n)
	}
}

// shortDigest abbreviates a "sha256:..." digest for display.
func shortDigest(d string) string {
	if rest, ok := strings.CutPrefix(d, "sha256:"); ok && len(rest) > 12 {
		return "sha256:" + rest[:12] + "…"
	}
	return d
}
