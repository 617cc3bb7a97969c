package cli

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"syscall"
	"testing"
	"time"

	"openhire/internal/checkpoint"
	"openhire/internal/checkpoint/wire"
	"openhire/internal/obs"
	"openhire/internal/obs/trace"
)

// cursor encodes a minimal leg position.
func cursor(c int) []byte { return wire.AppendInt(nil, c) }

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
	if err := r.Commit(cursor(0), nil); !errors.Is(err, checkpoint.ErrInterrupted) {
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
	if r.Resume(nil, nil) {
		t.Fatal("Resume without -resume loaded a checkpoint")
	}
	if err := r.Commit(cursor(1), nil); err != nil {
		t.Fatalf("Commit before any signal: %v", err)
	}
	interrupt(t, r)
	if r.Context().Err() != nil {
		t.Fatal("checkpointed run: context cancelled before the commit that follows the signal")
	}
	if err := r.Commit(cursor(2), nil); !errors.Is(err, checkpoint.ErrInterrupted) {
		t.Fatalf("Commit after the signal = %v, want ErrInterrupted", err)
	}
	// ErrInterrupted means "state is durable": the file holds this commit.
	payload, _, err := checkpoint.LoadPayload(dir, "scan", 3)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasSuffix(payload, cursor(2)) {
		t.Errorf("checkpoint on disk ends %v, want the second commit's position %v", payload, cursor(2))
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
	r := started(t, "scan", "seg%04d", args...)
	if r.Resume(nil, nil) {
		t.Fatal("Resume without -resume loaded a checkpoint")
	}
	r.Rec.Record(7, trace.Event{Kind: "probe.sent", Protocol: "telnet", IP: "0.0.0.7"})
	if err := r.Commit(cursor(4), []byte("one")); err != nil {
		t.Fatal(err)
	}
	r.Rec.Record(9, trace.Event{Kind: "probe.sent", Protocol: "mqtt", IP: "0.0.0.9", Port: 1883})
	if err := r.Commit(cursor(5), []byte("two")); err != nil {
		t.Fatal(err)
	}
	// Recorded after the last commit: lost with the kill, not logged.
	r.Rec.Record(11, trace.Event{Kind: "probe.sent", Protocol: "amqp"})

	fresh := started(t, "scan", "seg%04d", append(args, "-resume")...)
	var pos int
	var frames []string
	found := fresh.Resume(func(rd *wire.Reader) { pos = rd.Int() }, func(f []byte) error {
		frames = append(frames, string(f))
		return nil
	})
	if !found || pos != 5 || !reflect.DeepEqual(frames, []string{"one", "two"}) {
		t.Fatalf("Resume = %v, position %d, frames %q; want true, 5, [one two]", found, pos, frames)
	}
	if got, want := fresh.Rec.Events(), r.Rec.Events()[1:]; !reflect.DeepEqual(got, want) { // amqp sorts first
		t.Errorf("restored recorder %+v, want the committed %+v", got, want)
	}
	if !reflect.DeepEqual(fresh.Checkpoints, r.Checkpoints) {
		t.Errorf("resumed records %+v, want the killed run's %+v", fresh.Checkpoints, r.Checkpoints)
	}
	// The restored events are logged already: the next frame holds only
	// what the resumed run records.
	if err := fresh.Commit(cursor(6), nil); err != nil {
		t.Fatal(err)
	}
	again := started(t, "scan", "seg%04d", append(args, "-resume")...)
	again.Resume(func(rd *wire.Reader) { rd.Int() }, func([]byte) error { return nil })
	if again.Rec.Len() != 2 {
		t.Errorf("second resume restored %d events, want 2", again.Rec.Len())
	}

	// A resume without -trace reads past the logged events.
	untraced := started(t, "scan", "seg%04d", "-seed", "3", "-checkpoint", dir, "-resume")
	if !untraced.Resume(func(rd *wire.Reader) { rd.Int() }, func([]byte) error { return nil }) || untraced.Rec != nil {
		t.Error("a resume without -trace did not load the traced run's checkpoint")
	}

	empty := started(t, "scan", "seg%04d", "-checkpoint", t.TempDir(), "-resume")
	if empty.Resume(nil, nil) {
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
