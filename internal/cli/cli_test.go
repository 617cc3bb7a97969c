package cli

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"io"
	"os"
	"path/filepath"
	"syscall"
	"testing"
	"time"

	"openhire/internal/checkpoint"
	"openhire/internal/obs"
	"openhire/internal/obs/trace"
)

// legState is a minimal leg checkpoint: one field of its own, then the chain.
type legState struct {
	Cursor int `json:"cursor"`
	checkpoint.Chain
}

// started builds a harness over a private flag set, parses args, starts it as
// leg, and takes the signal ladder down when the test ends.
func started(t *testing.T, leg, nameFmt string, args ...string) *Run {
	t.Helper()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	r := newRun(fs, "openhire-test", Common|Instruments|Profiles)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	r.Start(nil, leg, nameFmt)
	t.Cleanup(r.stopSignals)
	return r
}

// interrupt delivers SIGINT to this process and waits for the ladder's first
// rung. The harness under test has signal.Notify installed, so the signal
// never reaches the default (fatal) disposition.
func interrupt(t *testing.T, r *Run) {
	t.Helper()
	if r.Interrupted() {
		t.Fatal("Interrupted before any signal")
	}
	if err := syscall.Kill(os.Getpid(), syscall.SIGINT); err != nil {
		t.Fatal(err)
	}
	select {
	case <-r.signaled:
	case <-time.After(10 * time.Second):
		t.Fatal("first signal never reached the ladder")
	}
	if !r.Interrupted() {
		t.Fatal("Interrupted false after the first signal")
	}
}

func TestLadderCancelsPlainRun(t *testing.T) {
	r := started(t, "scan", "seg%04d")
	interrupt(t, r)
	select {
	case <-r.Context().Done():
	case <-time.After(10 * time.Second):
		t.Fatal("plain run: context not cancelled by the first signal")
	}
	// The commit point of a run without -checkpoint saves nothing and still
	// honours the interrupt.
	if err := r.Commit(&legState{}); !errors.Is(err, checkpoint.ErrInterrupted) {
		t.Fatalf("Commit = %v, want ErrInterrupted", err)
	}
	if !r.Stopped(context.Canceled) || !r.Stopped(checkpoint.ErrInterrupted) {
		t.Error("Stopped does not recognise the ladder's own errors")
	}
}

func TestLadderCancelsRunWithoutHarnessChain(t *testing.T) {
	// openhire-serve: -checkpoint is set but the Loop commits on its own.
	r := started(t, "", "", "-checkpoint", t.TempDir())
	interrupt(t, r)
	select {
	case <-r.Context().Done():
	case <-time.After(10 * time.Second):
		t.Fatal("context not cancelled by the first signal")
	}
}

func TestLadderDrainsCheckpointedRunToCommit(t *testing.T) {
	dir := t.TempDir()
	r := started(t, "scan", "seg%04d", "-seed", "3", "-checkpoint", dir)
	st := &legState{Cursor: 1}
	if err := r.Commit(st); err != nil {
		t.Fatalf("Commit before any signal: %v", err)
	}
	interrupt(t, r)
	if r.Context().Err() != nil {
		t.Fatal("checkpointed run: context cancelled before the commit that follows the signal")
	}
	st.Cursor = 2
	if err := r.Commit(st); !errors.Is(err, checkpoint.ErrInterrupted) {
		t.Fatalf("Commit after the signal = %v, want ErrInterrupted", err)
	}
	// ErrInterrupted means "state is durable": the file holds this commit.
	var saved legState
	if _, err := checkpoint.Load(dir, "scan", 3, &saved); err != nil {
		t.Fatal(err)
	}
	if saved.Cursor != 2 || len(saved.Checkpoints) != 1 {
		t.Errorf("checkpoint on disk has cursor %d after %d records, want 2 after 1", saved.Cursor, len(saved.Checkpoints))
	}
	if r.Context().Err() == nil {
		t.Error("context still live after the interrupted commit")
	}
	if len(r.Checkpoints) != 2 || r.Checkpoints[1].Name != "seg0001" {
		t.Errorf("run records = %+v, want seg0000 and seg0001", r.Checkpoints)
	}
}

func TestResumeRestoresRecorderAndChain(t *testing.T) {
	dir := t.TempDir()
	args := []string{"-seed", "3", "-checkpoint", dir, "-trace", filepath.Join(dir, "t.jsonl"), "-trace-sample", "1"}
	r := started(t, "telescope", "day%02d", args...)
	if r.Resume(&legState{}) {
		t.Fatal("Resume without -resume loaded a checkpoint")
	}
	r.Rec.Record(7, trace.Event{Kind: "flow.rotate", Day: 1})
	st := &legState{Cursor: 5}
	if err := r.Commit(st); err != nil {
		t.Fatal(err)
	}
	if st.TraceEvents != nil {
		t.Error("Commit left the recorder dump in the live state")
	}

	fresh := started(t, "telescope", "day%02d", append(args, "-resume")...)
	got := &legState{}
	if !fresh.Resume(got) {
		t.Fatal("Resume found no checkpoint")
	}
	if got.Cursor != 5 || fresh.Rec.Len() != 1 || got.TraceEvents != nil {
		t.Errorf("resumed cursor %d, %d recorder events, %d events left in state; want 5, 1, 0",
			got.Cursor, fresh.Rec.Len(), len(got.TraceEvents))
	}
	if len(fresh.Checkpoints) != 1 || fresh.Checkpoints[0] != r.Checkpoints[0] {
		t.Errorf("resumed records %+v, want the killed run's %+v", fresh.Checkpoints, r.Checkpoints)
	}

	empty := started(t, "telescope", "day%02d", "-checkpoint", t.TempDir(), "-resume")
	if empty.Resume(&legState{}) {
		t.Error("Resume on an empty directory is not a fresh start")
	}
}

func TestInstrumentsExistIffAsked(t *testing.T) {
	bare := started(t, "scan", "seg%04d")
	if bare.Reg != nil || bare.Tracer != nil || bare.Rec != nil {
		t.Error("bare run has instruments")
	}
	dir := t.TempDir()
	for _, args := range [][]string{
		{"-manifest", filepath.Join(dir, "m.json")},
		{"-debug-addr", "127.0.0.1:0"},
		{"-trace", filepath.Join(dir, "t.jsonl")},
	} {
		r := started(t, "scan", "seg%04d", args...)
		if r.Reg == nil || r.Tracer == nil {
			t.Errorf("%v: no registry/tracer", args)
		}
		if (r.Rec != nil) != (args[0] == "-trace") {
			t.Errorf("%v: recorder presence wrong", args)
		}
	}
}

func TestFinishWritesDigestedManifest(t *testing.T) {
	dir := t.TempDir()
	manifest, artifact := filepath.Join(dir, "m.json"), filepath.Join(dir, "out.txt")
	r := started(t, "scan", "seg%04d", "-seed", "9", "-manifest", manifest)
	digest, err := r.WriteArtifact(artifact, func(w io.Writer) error {
		_, err := io.WriteString(w, "payload\n")
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if want := obs.Digest([]byte("payload\n")); digest != want {
		t.Errorf("digest %s, want %s", digest, want)
	}
	r.AddOutput("events.jsonl", "sha256:00")
	r.Finish("", "")

	data, err := os.ReadFile(manifest)
	if err != nil {
		t.Fatal(err)
	}
	var m obs.Manifest
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	if m.Binary != "openhire-test" || m.Seed != 9 || m.Interrupted {
		t.Errorf("manifest header = %q seed %d interrupted %v", m.Binary, m.Seed, m.Interrupted)
	}
	if m.Outputs[artifact] != digest || m.Outputs["events.jsonl"] != "sha256:00" {
		t.Errorf("outputs = %v", m.Outputs)
	}
	if m.Config["seed"] != "9" || m.Config["trace-sample"] != "16" || m.Config["resume"] != "false" {
		t.Errorf("config = %v", m.Config)
	}
}
