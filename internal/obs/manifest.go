package obs

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"hash"
	"io"
	"runtime/debug"

	"openhire/internal/checkpoint/atomicio"
)

// Manifest is one run's machine-readable ground truth: the seed and resolved
// configuration, per-phase simulated/wall timings, the full counter sets,
// and content digests of the outputs. Everything except wall timings is a
// pure function of (seed, config, build), so diffing two manifests isolates
// exactly what changed between runs or PRs.
//
// encoding/json sorts map keys, so marshaled manifests are deterministic.
type Manifest struct {
	// Binary names the emitting command ("openhire-scan", ...).
	Binary string `json:"binary"`
	// Seed is the simulation seed the run used.
	Seed uint64 `json:"seed"`
	// Config is the fully resolved flag set: every flag, default or not,
	// with its final string value.
	Config map[string]string `json:"config,omitempty"`
	// Build pins the third leg of the "(seed, config, build)" purity claim:
	// two manifests that differ on equal seed and config must differ here.
	Build *BuildInfo `json:"build,omitempty"`
	// Phases are the tracer's spans in completion order.
	Phases []SpanRecord `json:"phases,omitempty"`
	// Counters, Gauges and Histograms mirror the registry snapshot.
	Counters   map[string]uint64            `json:"counters,omitempty"`
	Gauges     map[string]float64           `json:"gauges,omitempty"`
	Histograms map[string]HistogramSnapshot `json:"histograms,omitempty"`
	// Outputs maps artifact names to "sha256:..." content digests.
	Outputs map[string]string `json:"outputs,omitempty"`
	// Checkpoints lists every checkpoint the run committed, in commit order.
	// Checkpoint files at a given cadence point are pure functions of
	// (seed, config, build), so this list is identical between a run that was
	// never killed and one that was killed and resumed.
	Checkpoints []CheckpointRecord `json:"checkpoints,omitempty"`
	// Interrupted is true when the run was stopped early by SIGINT/SIGTERM:
	// workers drained, artifacts flushed, but coverage is partial.
	Interrupted bool `json:"interrupted,omitempty"`
}

// CheckpointRecord describes one committed checkpoint file.
type CheckpointRecord struct {
	// Name is the checkpoint's position label ("scan.seg0042", "day07", ...).
	Name string `json:"name"`
	// Bytes is the checkpoint file size.
	Bytes int64 `json:"bytes"`
	// Digest is the "sha256:..." digest of the file contents.
	Digest string `json:"digest"`
}

// NewManifest starts a manifest for the named binary and seed.
func NewManifest(binary string, seed uint64) *Manifest {
	return &Manifest{
		Binary:  binary,
		Seed:    seed,
		Config:  make(map[string]string),
		Build:   readBuildInfo(),
		Outputs: make(map[string]string),
	}
}

// BuildInfo identifies the build that produced a run: toolchain, module
// version, and VCS state. Every field is constant for a given binary, so two
// runs of the same build carry identical build sections and a manifest diff
// that reaches them has isolated a build difference.
type BuildInfo struct {
	GoVersion string `json:"go_version,omitempty"`
	Module    string `json:"module,omitempty"`
	Version   string `json:"module_version,omitempty"`
	Revision  string `json:"vcs_revision,omitempty"`
	Dirty     bool   `json:"vcs_dirty,omitempty"`
}

// readBuildInfo extracts the embedded build metadata. Binaries built with
// module and VCS stamping get all fields; `go test` binaries at least the
// toolchain version. Returns nil only when the runtime embeds nothing.
func readBuildInfo() *BuildInfo {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return nil
	}
	out := &BuildInfo{
		GoVersion: bi.GoVersion,
		Module:    bi.Main.Path,
		Version:   bi.Main.Version,
	}
	for _, s := range bi.Settings {
		switch s.Key {
		case "vcs.revision":
			out.Revision = s.Value
		case "vcs.modified":
			out.Dirty = s.Value == "true"
		}
	}
	return out
}

// RecordFlags snapshots the resolved configuration: every flag's final value
// after parsing, including untouched defaults — the paper pipeline's "what
// exactly did this run do" record.
func (m *Manifest) RecordFlags(fs *flag.FlagSet) {
	fs.VisitAll(func(f *flag.Flag) {
		m.Config[f.Name] = f.Value.String()
	})
}

// FromRegistry copies the registry's snapshot into the manifest.
func (m *Manifest) FromRegistry(r *Registry) {
	s := r.Snapshot()
	m.Counters = s.Counters
	m.Gauges = s.Gauges
	m.Histograms = s.Histograms
}

// FromTracer copies the tracer's finished spans into the manifest.
func (m *Manifest) FromTracer(t *Tracer) {
	m.Phases = t.Spans()
}

// AddOutput records a named artifact digest (use Digest or a DigestWriter).
func (m *Manifest) AddOutput(name, digest string) {
	m.Outputs[name] = digest
}

// WriteFile marshals the manifest (indented, trailing newline) to path.
// The write is atomic: a kill mid-write never leaves a torn manifest.
func (m *Manifest) WriteFile(path string) error {
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	return atomicio.WriteFileBytes(path, append(data, '\n'))
}

// Digest returns the "sha256:..." content digest of data.
func Digest(data []byte) string {
	sum := sha256.Sum256(data)
	return "sha256:" + hex.EncodeToString(sum[:])
}

// DigestWriter accumulates a content digest from streamed writes, so
// artifacts can be digested while (or instead of) being written to disk.
type DigestWriter struct {
	h hash.Hash
	n int64
}

// NewDigestWriter returns an empty digest accumulator.
func NewDigestWriter() *DigestWriter {
	return &DigestWriter{h: sha256.New()}
}

// Write implements io.Writer.
func (d *DigestWriter) Write(p []byte) (int, error) {
	d.n += int64(len(p))
	return d.h.Write(p)
}

// Sum returns the "sha256:..." digest of everything written so far.
func (d *DigestWriter) Sum() string {
	return "sha256:" + hex.EncodeToString(d.h.Sum(nil))
}

// Bytes returns how many bytes were digested.
func (d *DigestWriter) Bytes() int64 { return d.n }

var _ io.Writer = (*DigestWriter)(nil)
