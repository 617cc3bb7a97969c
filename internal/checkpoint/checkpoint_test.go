package checkpoint

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"openhire/internal/attack"
	"openhire/internal/checkpoint/wire"
	"openhire/internal/core/scan"
	"openhire/internal/obs"
)

// jsonCheckpoint builds by hand the version-1 container older builds wrote
// around a JSON payload.
func jsonCheckpoint(leg string, seed uint64, payload string) []byte {
	b := binary.LittleEndian.AppendUint16([]byte("OHCK"), versionJSON)
	b = binary.LittleEndian.AppendUint16(b, uint16(len(leg)))
	b = binary.LittleEndian.AppendUint64(append(b, leg...), seed)
	b = append(binary.LittleEndian.AppendUint64(b, uint64(len(payload))), payload...)
	return binary.LittleEndian.AppendUint32(b, crc32.Checksum(b, castagnoli))
}

// commits drives a fresh chain through the given (position, frame) commits.
func commits(t testing.TB, dir, leg string, frames ...string) *Batch {
	t.Helper()
	b, pos, _, err := OpenBatch(dir, leg, "seg%04d", 7, false)
	if err != nil || pos != nil {
		t.Fatalf("OpenBatch = %v, %v; want a fresh chain", pos, err)
	}
	for i, f := range frames {
		if err := b.Commit([]byte{byte(i)}, []byte(f)); err != nil {
			t.Fatal(err)
		}
	}
	return b
}

// reopen resumes dir's chain and checks it loaded one.
func reopen(t *testing.T, dir, leg string) (*Batch, []byte, []string) {
	t.Helper()
	b, pos, frames, err := OpenBatch(dir, leg, "seg%04d", 7, true)
	if err != nil {
		t.Fatal(err)
	}
	if pos == nil {
		t.Fatal("OpenBatch found no checkpoint")
	}
	var out []string
	for _, f := range frames {
		out = append(out, string(f))
	}
	return b, pos, out
}

// TestSaveLoadRoundTrip asserts a resume gets back what the commits saved:
// the newest position, every frame in order, and the records the live chain
// holds.
func TestSaveLoadRoundTrip(t *testing.T) {
	dir := t.TempDir()
	live := commits(t, dir, "scan", "a", "", "ccc")
	defer live.Close()
	b, pos, frames := reopen(t, dir, "scan")
	defer b.Close()
	if !bytes.Equal(pos, []byte{2}) || !reflect.DeepEqual(frames, []string{"a", "", "ccc"}) {
		t.Fatalf("resumed position %v frames %q, want [2] and a, \"\", ccc", pos, frames)
	}
	if !reflect.DeepEqual(b.Records, live.Records) {
		t.Fatalf("resumed records %+v, live %+v", b.Records, live.Records)
	}
}

// TestLoadMissingFile asserts a never-written checkpoint surfaces as
// os.ErrNotExist — the signal binaries use for "fresh start".
func TestLoadMissingFile(t *testing.T) {
	_, _, err := LoadPayload(t.TempDir(), "scan", 1)
	if !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("err = %v, want os.ErrNotExist", err)
	}
}

// TestLoadWrongLegOrSeed asserts a mismatched run identity is a descriptive
// error, not a corruption report — the file is intact, it just belongs to a
// different run.
func TestLoadWrongLegOrSeed(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(FileName(dir, "scan"), Encode("scan", 7, []byte{1}), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := LoadPayload(dir, "scan", 8); err == nil || errors.Is(err, ErrCorruptCheckpoint) {
		t.Fatalf("seed mismatch: err = %v, want descriptive non-corrupt error", err)
	}
	if err := os.Rename(FileName(dir, "scan"), FileName(dir, "telescope")); err != nil {
		t.Fatal(err)
	}
	if _, _, err := LoadPayload(dir, "telescope", 7); err == nil || errors.Is(err, ErrCorruptCheckpoint) {
		t.Fatalf("leg mismatch: err = %v, want descriptive non-corrupt error", err)
	}
}

// TestDecodeRejectsDamage walks every single-byte truncation and a bit flip
// in every byte of a small checkpoint and asserts each yields a clean
// ErrCorruptCheckpoint — never a panic, never silent acceptance.
func TestDecodeRejectsDamage(t *testing.T) {
	data := Encode("scan", 99, []byte{0x80, 0x01, 7, 7, 7})
	if _, err := Decode(data); err != nil {
		t.Fatalf("pristine container rejected: %v", err)
	}
	for n := 0; n < len(data); n++ {
		if _, err := Decode(data[:n]); !errors.Is(err, ErrCorruptCheckpoint) {
			t.Fatalf("truncation to %d bytes: err = %v, want ErrCorruptCheckpoint", n, err)
		}
	}
	for i := range data {
		for bit := 0; bit < 8; bit++ {
			flipped := bytes.Clone(data)
			flipped[i] ^= 1 << bit
			if _, err := Decode(flipped); !errors.Is(err, ErrCorruptCheckpoint) {
				t.Fatalf("bit flip at byte %d bit %d: err = %v, want ErrCorruptCheckpoint",
					i, bit, err)
			}
		}
	}
}

// TestLoadCorruptFile asserts damage surfaces through a resume as
// ErrCorruptCheckpoint too (binaries report it and refuse to resume).
func TestLoadCorruptFile(t *testing.T) {
	dir := t.TempDir()
	commits(t, dir, "scan", "a").Close()
	path := FileName(dir, "scan")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)-3], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := OpenBatch(dir, "scan", "seg%04d", 7, true); !errors.Is(err, ErrCorruptCheckpoint) {
		t.Fatalf("err = %v, want ErrCorruptCheckpoint", err)
	}
}

// TestSaveCreatesDirectory asserts a chain materializes the checkpoint
// directory itself — binaries point -checkpoint at paths that do not exist
// yet.
func TestSaveCreatesDirectory(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "nested", "ck")
	commits(t, dir, "scan", "a").Close()
	for _, path := range []string{FileName(dir, "scan"), LogName(dir, "scan")} {
		if _, err := os.Stat(path); err != nil {
			t.Fatal(err)
		}
	}
}

// batchSeeds returns one real checkpoint from each batch leg's position
// codec, committed through a Batch.
func batchSeeds(f *testing.F) [][]byte {
	report := wire.AppendInt(nil, 2)
	report = wire.AppendString(wire.AppendString(report, "scan"), "attack_month")
	telescope := wire.AppendString(wire.AppendInt(wire.AppendInt(nil, 2), 1), "flows.csv.day00")
	telescope = wire.AppendDigest(telescope, obs.Digest([]byte("day00")))
	st := &scan.SegmentedState{Module: 1, BreakerHits: map[uint32]int{7: 2}, TargetsFed: 320,
		Modules: []scan.ModuleSnapshot{{Protocol: "telnet", Stats: scan.Stats{Probed: 256, Responded: 3}}, {Protocol: "mqtt"}}}
	st.Iterator.Perm.Cur = 5
	positions := map[string][]byte{
		"scan":      scan.AppendState(nil, st),
		"honeypots": attack.AppendResume(nil, &attack.CampaignResume{NextDay: 3, SrcState: 77, EventsPlanned: 40, EventsRun: 40}),
		"report":    report,
		"telescope": telescope,
	}
	var seeds [][]byte
	for _, leg := range []string{"scan", "honeypots", "report", "telescope"} {
		dir := f.TempDir()
		b, _, _, err := OpenBatch(dir, leg, "n%d", 7, false)
		if err != nil {
			f.Fatal(err)
		}
		if err := b.Commit(positions[leg], []byte("frame")); err != nil {
			f.Fatal(err)
		}
		b.Close()
		data, err := os.ReadFile(FileName(dir, leg))
		if err != nil {
			f.Fatal(err)
		}
		seeds = append(seeds, data)
	}
	return seeds
}

// FuzzCheckpointLoad feeds arbitrary bytes (seeded with a real checkpoint
// from each batch leg, a truncated, a bit-flipped and an empty one, and an
// older build's JSON container) through Decode and asserts it never panics,
// refuses with ErrCorruptCheckpoint or (for the JSON container)
// ErrPayloadFormat, and never accepts a container whose re-encoding
// disagrees with the input.
func FuzzCheckpointLoad(f *testing.F) {
	seeds := batchSeeds(f)
	for _, s := range seeds {
		f.Add(s)
	}
	valid := seeds[0]
	f.Add(valid[:len(valid)-1])
	f.Add([]byte{})
	flipped := bytes.Clone(valid)
	flipped[10] ^= 0x40
	f.Add(flipped)
	f.Add(jsonCheckpoint("scan", 7, `{"cursor":1}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := Decode(data)
		if err != nil {
			if !errors.Is(err, ErrCorruptCheckpoint) && !errors.Is(err, ErrPayloadFormat) {
				t.Fatalf("unexpected error from Decode: %v", err)
			}
			return
		}
		if again := Encode(got.Leg, got.Seed, got.Payload); string(again) != string(data) {
			t.Fatalf("accepted container does not re-encode to itself")
		}
	})
}

// TestLoadRefusesOtherPayloadFormat asserts an intact JSON container from an
// older build is refused with ErrPayloadFormat, naming the file, not decoded
// as a corrupt or foreign file — by LoadPayload and by a resume.
func TestLoadRefusesOtherPayloadFormat(t *testing.T) {
	dir := t.TempDir()
	path := FileName(dir, "scan")
	if err := os.WriteFile(path, jsonCheckpoint("scan", 7, `{"cursor":1}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := LoadPayload(dir, "scan", 7); !errors.Is(err, ErrPayloadFormat) || !bytes.Contains([]byte(err.Error()), []byte(path)) {
		t.Fatalf("LoadPayload of a JSON file: err = %v, want ErrPayloadFormat naming %s", err, path)
	}
	if _, _, _, err := OpenBatch(dir, "scan", "seg%04d", 7, true); !errors.Is(err, ErrPayloadFormat) {
		t.Fatalf("resume from a JSON file: err = %v, want ErrPayloadFormat", err)
	}
	if err := os.WriteFile(FileName(dir, "serve"), Encode("serve", 7, []byte{1}), 0o644); err != nil {
		t.Fatal(err)
	}
	payload, rec, err := LoadPayload(dir, "serve", 7)
	if err != nil || len(payload) != 1 || rec.Bytes == 0 {
		t.Fatalf("LoadPayload = %v, %+v, %v", payload, rec, err)
	}
}

// TestChainNamesAndResume drives each leg's chain the way its binary does —
// commit, commit, kill, resume, commit — and asserts the record names count
// up from zero in the leg's format, the resumed chain is the uninterrupted
// one (the loaded file's own record re-derived and appended), the files are
// the uninterrupted run's bytes, an empty directory is a fresh start, and a
// foreign seed or leg is rejected.
func TestChainNamesAndResume(t *testing.T) {
	for _, tc := range []struct {
		leg, nameFmt string
		want         []string
	}{
		{"scan", "seg%04d", []string{"seg0000", "seg0001", "seg0002"}},
		{"telescope", "day%02d", []string{"day00", "day01", "day02"}},
		{"honeypots", "day%02d", []string{"day00", "day01", "day02"}},
		{"report", "exp%02d", []string{"exp00", "exp01", "exp02"}},
		{"serve", "cycle%04d", []string{"cycle0000", "cycle0001", "cycle0002"}},
	} {
		t.Run(tc.leg, func(t *testing.T) {
			open := func(dir string, seed uint64, resume bool) (*Batch, []byte, [][]byte) {
				t.Helper()
				b, pos, frames, err := OpenBatch(dir, tc.leg, tc.nameFmt, seed, resume)
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { b.Close() })
				return b, pos, frames
			}
			golden, killed := t.TempDir(), t.TempDir()
			if _, pos, _ := open(killed, 7, true); pos != nil {
				t.Fatal("resume on an empty directory is not a fresh start")
			}
			uninterrupted, _, _ := open(golden, 7, false)
			live, _, _ := open(killed, 7, false)
			for i := 0; i < 3; i++ {
				for _, b := range []*Batch{uninterrupted, live} {
					if b == live && i == 2 {
						continue
					}
					if err := b.Commit([]byte{byte(i)}, []byte{byte(i), 'f'}); err != nil {
						t.Fatal(err)
					}
				}
			}
			resumed, pos, frames := open(killed, 7, true)
			if !bytes.Equal(pos, []byte{1}) || len(frames) != 2 || !reflect.DeepEqual(resumed.Records, live.Records) {
				t.Fatalf("resumed position %v, %d frames, records %+v; want [1], 2 and %+v", pos, len(frames), resumed.Records, live.Records)
			}
			if err := resumed.Commit([]byte{2}, []byte{2, 'f'}); err != nil {
				t.Fatal(err)
			}
			for i, name := range tc.want {
				if got := resumed.Records[i].Name; got != name {
					t.Errorf("record %d named %q, want %q", i, got, name)
				}
			}
			if !reflect.DeepEqual(resumed.Records, uninterrupted.Records) {
				t.Errorf("resumed chain %+v, uninterrupted %+v", resumed.Records, uninterrupted.Records)
			}
			sameFiles(t, golden, killed, tc.leg)
			if _, _, _, err := OpenBatch(killed, tc.leg, tc.nameFmt, 8, true); err == nil {
				t.Error("resume accepted a checkpoint written under another seed")
			}
			if err := os.Rename(FileName(killed, tc.leg), FileName(killed, "other")); err != nil {
				t.Fatal(err)
			}
			if _, _, _, err := OpenBatch(killed, "other", tc.nameFmt, 7, true); err == nil {
				t.Error("resume accepted a checkpoint written by another leg")
			}
		})
	}
}

// sameFiles asserts two directories hold byte-identical checkpoint and log
// files for leg.
func sameFiles(t *testing.T, a, b, leg string) {
	t.Helper()
	for _, name := range []func(string, string) string{FileName, LogName} {
		x, err := os.ReadFile(name(a, leg))
		if err != nil {
			t.Fatal(err)
		}
		y, err := os.ReadFile(name(b, leg))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(x, y) {
			t.Errorf("%s differs from the uninterrupted run's (%d vs %d bytes)", filepath.Base(name(b, leg)), len(y), len(x))
		}
	}
}

// killedAfterAppend returns a directory in the state a kill between the
// third commit's log fsync and its checkpoint rename leaves — two committed
// frames, the third appended past the recorded length — and the committed
// log length.
func killedAfterAppend(t *testing.T) (dir string, committed int) {
	t.Helper()
	dir = t.TempDir()
	b := commits(t, dir, "scan", "first", "second")
	ckpt, err := os.ReadFile(FileName(dir, "scan"))
	if err != nil {
		t.Fatal(err)
	}
	info, err := os.Stat(LogName(dir, "scan"))
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Commit([]byte{2}, []byte("third frame")); err != nil {
		t.Fatal(err)
	}
	b.Close()
	if err := os.WriteFile(FileName(dir, "scan"), ckpt, 0o644); err != nil {
		t.Fatal(err)
	}
	return dir, int(info.Size())
}

// resumeThird resumes dir, checks the committed frames came back, commits
// the third frame again and asserts checkpoint, log and records equal the
// uninterrupted run's.
func resumeThird(t *testing.T, label, dir, golden string, want []obs.CheckpointRecord) {
	t.Helper()
	b, _, frames, err := OpenBatch(dir, "scan", "seg%04d", 7, true)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	defer b.Close()
	if len(frames) != 2 || string(frames[1]) != "second" {
		t.Fatalf("%s: resumed frames %q, want first and second", label, frames)
	}
	if err := b.Commit([]byte{2}, []byte("third frame")); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(b.Records, want) {
		t.Errorf("%s: records %+v, want %+v", label, b.Records, want)
	}
	sameFiles(t, golden, dir, "scan")
}

// TestResumeDropsTornTail cuts the log at every byte offset of a frame whose
// checkpoint never landed — every state a kill inside the append leaves —
// and appends garbage past the recorded length: each resume drops the tail
// and the run ends with the uninterrupted run's checkpoint, log and records.
func TestResumeDropsTornTail(t *testing.T) {
	golden := t.TempDir()
	g := commits(t, golden, "scan", "first", "second", "third frame")
	g.Close()
	dir, committed := killedAfterAppend(t)
	log, err := os.ReadFile(LogName(dir, "scan"))
	if err != nil {
		t.Fatal(err)
	}
	ckpt, err := os.ReadFile(FileName(dir, "scan"))
	if err != nil {
		t.Fatal(err)
	}
	tails := map[string][]byte{"garbage": append(log[:committed:committed], "\xff\x00garbage"...)}
	for cut := committed; cut <= len(log); cut++ {
		tails[fmt.Sprintf("cut at %d", cut)] = log[:cut]
	}
	for label, tail := range tails {
		d := t.TempDir()
		if err := os.WriteFile(FileName(d, "scan"), ckpt, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(LogName(d, "scan"), tail, 0o644); err != nil {
			t.Fatal(err)
		}
		resumeThird(t, label, d, golden, g.Records)
	}
}

// TestResumeRefusesDamagedLog asserts a log shorter than its checkpoint
// recorded, or with any byte of the recorded prefix flipped, fails with
// ErrCorruptCheckpoint instead of restoring a partial or altered history.
func TestResumeRefusesDamagedLog(t *testing.T) {
	dir := t.TempDir()
	commits(t, dir, "scan", "first", "second").Close()
	log, err := os.ReadFile(LogName(dir, "scan"))
	if err != nil {
		t.Fatal(err)
	}
	damaged := [][]byte{log[:len(log)-1], nil}
	for i := range log {
		flipped := bytes.Clone(log)
		flipped[i] ^= 0x10
		damaged = append(damaged, flipped)
	}
	for i, d := range damaged {
		if err := os.WriteFile(LogName(dir, "scan"), d, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, _, _, err := OpenBatch(dir, "scan", "seg%04d", 7, true); !errors.Is(err, ErrCorruptCheckpoint) {
			t.Fatalf("damaged log %d (%d bytes): err = %v, want ErrCorruptCheckpoint", i, len(d), err)
		}
	}
	if err := os.Remove(LogName(dir, "scan")); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := OpenBatch(dir, "scan", "seg%04d", 7, true); !errors.Is(err, ErrCorruptCheckpoint) {
		t.Fatalf("missing log: err = %v, want ErrCorruptCheckpoint", err)
	}
}

// FuzzLogFrames feeds arbitrary bytes through the log's frame decoder: it
// never panics, and the frames it accepts fit in the input, so a damaged log
// can never make it allocate more than its own size.
func FuzzLogFrames(f *testing.F) {
	dir := f.TempDir()
	commits(f, dir, "scan", "first", "", "third").Close()
	log, err := os.ReadFile(LogName(dir, "scan"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(log)
	f.Add(log[:len(log)-2])
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0x0f})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		prev, frames, err := readLog(data)
		if err != nil {
			return
		}
		total := 0
		for _, fr := range frames {
			total += len(fr)
		}
		if len(prev) != len(frames)-1 || total > len(data) {
			t.Fatalf("%d frames of %d bytes with %d records from %d input bytes", len(frames), total, len(prev), len(data))
		}
	})
}
