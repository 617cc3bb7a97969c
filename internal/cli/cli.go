// Package cli is the run harness the five openhire binaries share. A main
// declares its leg-specific flags, builds its config, makes the leg call and
// prints its tables; everything around that — the shared flag groups, the
// two-signal shutdown ladder, the checkpoint chain, atomic digested artifact
// writes, the registry/tracer/recorder/debug-server/profile lifecycle and the
// trace + manifest epilogue — lives here, once.
//
// The order in a main is New (package level, so the flags register before
// flag.Parse), Parse, Start, the leg call with Resume/Commit/WriteArtifact
// as it goes, Finish.
package cli

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"sync"
	"syscall"

	"openhire/internal/checkpoint"
	"openhire/internal/checkpoint/atomicio"
	"openhire/internal/checkpoint/crashpoint"
	"openhire/internal/checkpoint/wire"
	"openhire/internal/obs"
	"openhire/internal/obs/trace"
)

// Groups selects the shared flag groups a binary registers.
type Groups uint8

const (
	// Common is -seed, -manifest, -checkpoint and -resume.
	Common Groups = 1 << iota
	// Instruments is -debug-addr, -trace and -trace-sample.
	Instruments
	// Profiles is -cpuprofile and -memprofile.
	Profiles
)

// Run is one binary's run record in the making. The exported fields are what
// a main reads; all of them are nil-safe where they are threaded, so a bare
// run does exactly the work it did before the instruments existed.
type Run struct {
	// Seed, CheckpointDir and Resuming are the -seed, -checkpoint and
	// -resume values, valid after Parse. The four leg binaries only need
	// Seed — Checkpointing, Resume and Commit read the other two for them.
	Seed          uint64
	CheckpointDir string
	Resuming      bool
	// Reg and Tracer exist iff any of -debug-addr, -manifest or -trace is
	// set; Rec iff -trace is. Set by Start. (openhire-serve, which has -addr
	// in place of -debug-addr, makes its own registry for a listener-only
	// run.)
	Reg    *obs.Registry
	Tracer *obs.Tracer
	Rec    *trace.Recorder
	// Checkpoints are the records committed so far, for the manifest. Resume
	// and Commit maintain it; openhire-serve, whose Loop keeps its own chain,
	// sets it before Finish.
	Checkpoints []obs.CheckpointRecord

	binary string
	fs     *flag.FlagSet

	manifestPath           string
	debugAddr, tracePath   string
	traceSample            uint64
	cpuProfile, memProfile string

	leg, nameFmt string
	batch        *checkpoint.Batch
	rederive     bool
	ctx          context.Context
	cancel       context.CancelFunc
	signaled     chan struct{} // closed by the first SIGINT/SIGTERM
	stopSignals  func()
	stopProfiles func() error
	outputs      map[string]string
}

// New registers the selected flag groups on the process flag set and returns
// the run they configure.
func New(binary string, groups Groups) *Run {
	return newRun(flag.CommandLine, binary, groups)
}

func newRun(fs *flag.FlagSet, binary string, groups Groups) *Run {
	r := &Run{
		binary:       binary,
		fs:           fs,
		signaled:     make(chan struct{}),
		stopSignals:  func() {},
		stopProfiles: func() error { return nil },
		outputs:      make(map[string]string),
	}
	r.ctx, r.cancel = context.WithCancel(context.Background())
	if groups&Common != 0 {
		fs.Uint64Var(&r.Seed, "seed", 2021, "simulation seed")
		fs.StringVar(&r.manifestPath, "manifest", "", "write a JSON run manifest (seed, config, timings, counters, digests) to this file")
		fs.StringVar(&r.CheckpointDir, "checkpoint", "", "checkpoint resumable state into this directory at every commit point")
		fs.BoolVar(&r.Resuming, "resume", false, "resume from the checkpoint in -checkpoint DIR (fresh start if none exists)")
	}
	if groups&Instruments != 0 {
		fs.StringVar(&r.debugAddr, "debug-addr", "", "serve /metrics, /debug/vars and /debug/pprof on this address while the run is live")
		fs.StringVar(&r.tracePath, "trace", "", "write the flight recorder's JSONL lifecycle trace to this file")
		fs.Uint64Var(&r.traceSample, "trace-sample", 16, "trace one of every N addresses (pure hash of seed+address; 1 = all)")
	}
	if groups&Profiles != 0 {
		fs.StringVar(&r.cpuProfile, "cpuprofile", "", "write a pprof CPU profile of the workload to this file")
		fs.StringVar(&r.memProfile, "memprofile", "", "write a pprof heap profile (post-GC live memory) to this file")
	}
	return r
}

// Check prints err and exits 1; a nil err is a no-op.
func Check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// Usage is Check for bad invocations: it exits 2.
func Usage(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
}

// Parse parses the command line and rejects -resume without -checkpoint.
func (r *Run) Parse() {
	_ = r.fs.Parse(os.Args[1:]) // ExitOnError: the flag set exits 2 itself
	if r.Resuming && r.CheckpointDir == "" {
		Usage(errors.New("-resume requires -checkpoint DIR"))
	}
}

// Start brings up what the flags asked for — profiles, registry and tracer
// (reading simulated time from clock; nil for a leg without one), debug
// endpoints, flight recorder — and installs the signal ladder.
//
// leg and nameFmt name the checkpoint chain the binary commits through the
// harness ("scan", "seg%04d"); both are empty for a binary that does not
// (openhire-serve: its Loop commits every cycle itself). They decide what
// the first SIGINT/SIGTERM does besides setting Interrupted: a run that
// checkpoints through the harness drains to its next Commit, which returns
// checkpoint.ErrInterrupted once the state is durable; any other run has its
// Context cancelled at once. A second signal exits 130.
func (r *Run) Start(clock obs.Clock, leg, nameFmt string) {
	r.leg, r.nameFmt = leg, nameFmt
	stop, err := obs.StartProfiles(r.cpuProfile, r.memProfile)
	Check(err)
	r.stopProfiles = stop
	if r.debugAddr != "" || r.manifestPath != "" || r.tracePath != "" {
		r.Reg = obs.NewRegistry()
		r.Tracer = obs.NewTracer(clock)
	}
	if r.debugAddr != "" {
		addr, _, err := obs.Serve(r.debugAddr, r.Reg)
		Check(err)
		fmt.Fprintf(os.Stderr, "debug endpoints on http://%s/\n", addr)
	}
	if r.tracePath != "" {
		r.Rec = trace.NewRecorder(r.binary, r.Seed, r.traceSample)
	}
	r.stopSignals = r.watchSignals()
}

// watchSignals runs the ladder on its own goroutine until the returned stop
// function is called; stop waits for the goroutine to exit.
func (r *Run) watchSignals() (stop func()) {
	ch := make(chan os.Signal, 2) // both rungs of the ladder
	signal.Notify(ch, os.Interrupt, syscall.SIGTERM)
	quit, exited := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(exited)
		select {
		case <-ch:
		case <-quit:
			return
		}
		fmt.Fprintln(os.Stderr, "interrupt: draining and flushing (^C again to force quit)")
		close(r.signaled)
		if !r.Checkpointing() || r.leg == "" {
			r.cancel()
		}
		select {
		case <-ch:
			os.Exit(130)
		case <-quit:
		}
	}()
	var once sync.Once
	return func() {
		once.Do(func() {
			signal.Stop(ch)
			close(quit)
		})
		<-exited
	}
}

// Context is the run context the leg call takes: cancelled by the first
// signal, or — on a run that checkpoints through the harness — by the Commit
// that follows it.
func (r *Run) Context() context.Context { return r.ctx }

// Interrupted reports whether a SIGINT/SIGTERM has arrived.
func (r *Run) Interrupted() bool {
	select {
	case <-r.signaled:
		return true
	default:
		return false
	}
}

// Checkpointing reports whether -checkpoint is set.
func (r *Run) Checkpointing() bool { return r.CheckpointDir != "" }

// Rederive declares that the leg's resume re-runs its committed work, which
// records its trace events again, so its commits log none.
func (r *Run) Rederive() { r.rederive = true }

// Resume opens the leg's commit chain under -checkpoint, once, before the
// first Commit. Under -resume it loads the newest checkpoint, restores the
// flight recorder and the records from the log, hands each logged frame,
// oldest first, to readFrame and the position to readPos, and reports true;
// otherwise it starts an empty chain. A damaged, foreign or older-format
// checkpoint or log, or a frame or position its reader refuses, exits 1.
func (r *Run) Resume(readPos func(*wire.Reader), readFrame func([]byte) error) bool {
	if !r.Checkpointing() {
		return false
	}
	b, pos, frames, err := checkpoint.OpenBatch(r.CheckpointDir, r.leg, r.nameFmt, r.Seed, r.Resuming)
	Check(err)
	r.batch = b
	if pos == nil {
		return false
	}
	for i, frame := range frames {
		rd := wire.NewReader(frame)
		r.Rec.ReadEvents(rd)
		err := rd.Err()
		if err == nil {
			err = readFrame(rd.Rest())
		}
		if err != nil {
			Check(fmt.Errorf("%s: frame %d: %w: %w", checkpoint.LogName(r.CheckpointDir, r.leg), i, checkpoint.ErrCorruptCheckpoint, err))
		}
	}
	rd := wire.NewReader(pos)
	if readPos(rd); rd.Close() != nil {
		Check(fmt.Errorf("%s: %w: %w", checkpoint.FileName(r.CheckpointDir, r.leg), checkpoint.ErrCorruptCheckpoint, rd.Close()))
	}
	r.Checkpoints = b.Records
	return true
}

// Commit is the leg's commit point. With -checkpoint it logs frame — what
// the leg produced since its last commit and a resume cannot re-derive —
// with the flight recorder's events since then, and writes pos as the next
// checkpoint; either way it then honours a pending interrupt — only once the
// state is durable — by cancelling Context and returning ErrInterrupted.
func (r *Run) Commit(pos, frame []byte) error {
	if r.Checkpointing() {
		rec := r.Rec
		if r.rederive {
			rec = nil // a nil recorder logs no events
		}
		if err := r.batch.Commit(pos, append(rec.AppendNew(nil), frame...)); err != nil {
			return err
		}
		r.Checkpoints = r.batch.Records
	}
	if r.Interrupted() {
		r.cancel()
		return checkpoint.ErrInterrupted
	}
	return nil
}

// Stopped classifies what a leg call or Commit returned: true when the
// ladder stopped it (the binary then flushes what it has and exits 0), false
// for nil; any other error exits 1.
func (r *Run) Stopped(err error) bool {
	if err == nil {
		return false
	}
	if r.Interrupted() && (errors.Is(err, checkpoint.ErrInterrupted) || errors.Is(err, context.Canceled)) {
		return true
	}
	Check(err)
	return false
}

// WriteArtifact atomically writes one durable output and records its content
// digest, which it also returns, as a manifest output under path.
func (r *Run) WriteArtifact(path string, write func(io.Writer) error) (string, error) {
	dw := obs.NewDigestWriter()
	err := atomicio.WriteFile(path, func(w io.Writer) error {
		return write(io.MultiWriter(w, dw))
	})
	if err != nil {
		return "", err
	}
	r.outputs[path] = dw.Sum()
	return dw.Sum(), nil
}

// AddOutput records a manifest output that WriteArtifact did not write: a
// digest of content that has no file, or of a file an earlier process wrote.
func (r *Run) AddOutput(name, digest string) { r.outputs[name] = digest }

// StopProfiles ends the -cpuprofile capture and writes -memprofile. A main
// calls it where its workload ends so the profiles exclude the reporting
// tail; Finish calls it otherwise.
func (r *Run) StopProfiles() {
	stop := r.stopProfiles
	r.stopProfiles = func() error { return nil }
	Check(stop())
}

// Finish is the epilogue: it writes the -trace artifact and then the
// -manifest (resolved flags, phases, registry, checkpoints, interrupted,
// outputs), passing the leg's two crashpoint sites after the respective
// file is durable, closes the leg's log and takes the signal ladder down.
func (r *Run) Finish(traceSite, manifestSite string) {
	r.StopProfiles()
	if r.Rec != nil {
		_, err := r.WriteArtifact(r.tracePath, r.Rec.WriteJSONL)
		Check(err)
		crashpoint.Here(traceSite)
		fmt.Fprintf(os.Stderr, "trace written to %s (%d events)\n", r.tracePath, r.Rec.Len())
	}
	if r.manifestPath != "" {
		m := obs.NewManifest(r.binary, r.Seed)
		m.RecordFlags(r.fs)
		m.FromTracer(r.Tracer)
		m.FromRegistry(r.Reg)
		m.Checkpoints = r.Checkpoints
		m.Interrupted = r.Interrupted()
		m.Outputs = r.outputs
		Check(m.WriteFile(r.manifestPath))
		crashpoint.Here(manifestSite)
		fmt.Fprintf(os.Stderr, "manifest written to %s\n", r.manifestPath)
	}
	if r.batch != nil {
		Check(r.batch.Close())
	}
	r.stopSignals()
}
