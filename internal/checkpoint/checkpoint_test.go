package checkpoint

import (
	"errors"
	"os"
	"path/filepath"
	"testing"
)

type sampleState struct {
	Cursor uint64         `json:"cursor"`
	Names  []string       `json:"names,omitempty"`
	Hits   map[string]int `json:"hits,omitempty"`
}

// TestSaveLoadRoundTrip asserts Restore(Save(state)) identity through the
// full container: every field survives, and the returned records agree on
// size and digest.
func TestSaveLoadRoundTrip(t *testing.T) {
	dir := t.TempDir()
	in := sampleState{
		Cursor: 1 << 40,
		Names:  []string{"a", "b", ""},
		Hits:   map[string]int{"x": 3, "y": 0},
	}
	saved, err := Save(dir, "scan", "seg0001", 42, &in)
	if err != nil {
		t.Fatal(err)
	}
	if saved.Name != "seg0001" || saved.Bytes == 0 || saved.Digest == "" {
		t.Fatalf("bad record: %+v", saved)
	}
	var out sampleState
	loaded, err := Load(dir, "scan", 42, &out)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Bytes != saved.Bytes || loaded.Digest != saved.Digest {
		t.Fatalf("load record %+v disagrees with save record %+v", loaded, saved)
	}
	if out.Cursor != in.Cursor || len(out.Names) != len(in.Names) ||
		out.Hits["x"] != 3 {
		t.Fatalf("state did not round-trip: %+v", out)
	}
}

// TestLoadMissingFile asserts a never-written checkpoint surfaces as
// os.ErrNotExist — the signal binaries use for "fresh start".
func TestLoadMissingFile(t *testing.T) {
	var st sampleState
	_, err := Load(t.TempDir(), "scan", 1, &st)
	if !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("err = %v, want os.ErrNotExist", err)
	}
}

// TestLoadWrongLegOrSeed asserts a mismatched run identity is a descriptive
// error, not a corruption report — the file is intact, it just belongs to a
// different run.
func TestLoadWrongLegOrSeed(t *testing.T) {
	dir := t.TempDir()
	if _, err := Save(dir, "scan", "s", 7, &sampleState{Cursor: 1}); err != nil {
		t.Fatal(err)
	}
	var st sampleState
	if _, err := Load(dir, "scan", 8, &st); err == nil || errors.Is(err, ErrCorruptCheckpoint) {
		t.Fatalf("seed mismatch: err = %v, want descriptive non-corrupt error", err)
	}
	data, err := os.ReadFile(FileName(dir, "scan"))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(FileName(dir, "telescope"), data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(dir, "telescope", 7, &st); err == nil || errors.Is(err, ErrCorruptCheckpoint) {
		t.Fatalf("leg mismatch: err = %v, want descriptive non-corrupt error", err)
	}
}

// TestDecodeRejectsDamage walks every single-byte truncation and a bit flip
// in every byte of a small checkpoint and asserts each yields a clean
// ErrCorruptCheckpoint — never a panic, never silent acceptance.
func TestDecodeRejectsDamage(t *testing.T) {
	data := Encode("scan", 99, []byte(`{"cursor":12345}`))
	if _, _, _, err := Decode(data); err != nil {
		t.Fatalf("pristine container rejected: %v", err)
	}
	for n := 0; n < len(data); n++ {
		if _, _, _, err := Decode(data[:n]); !errors.Is(err, ErrCorruptCheckpoint) {
			t.Fatalf("truncation to %d bytes: err = %v, want ErrCorruptCheckpoint", n, err)
		}
	}
	for i := range data {
		for bit := 0; bit < 8; bit++ {
			flipped := make([]byte, len(data))
			copy(flipped, data)
			flipped[i] ^= 1 << bit
			if _, _, _, err := Decode(flipped); !errors.Is(err, ErrCorruptCheckpoint) {
				t.Fatalf("bit flip at byte %d bit %d: err = %v, want ErrCorruptCheckpoint",
					i, bit, err)
			}
		}
	}
}

// TestLoadCorruptFile asserts damage surfaces through Load as
// ErrCorruptCheckpoint too (binaries report it and refuse to resume).
func TestLoadCorruptFile(t *testing.T) {
	dir := t.TempDir()
	if _, err := Save(dir, "scan", "s", 7, &sampleState{Cursor: 1}); err != nil {
		t.Fatal(err)
	}
	path := FileName(dir, "scan")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)-3], 0o644); err != nil {
		t.Fatal(err)
	}
	var st sampleState
	if _, err := Load(dir, "scan", 7, &st); !errors.Is(err, ErrCorruptCheckpoint) {
		t.Fatalf("err = %v, want ErrCorruptCheckpoint", err)
	}
}

// TestSaveCreatesDirectory asserts Save materializes the checkpoint
// directory itself — binaries point -checkpoint at paths that do not exist
// yet.
func TestSaveCreatesDirectory(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "nested", "ck")
	if _, err := Save(dir, "scan", "s", 7, &sampleState{}); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(FileName(dir, "scan")); err != nil {
		t.Fatal(err)
	}
}

// FuzzCheckpointLoad feeds arbitrary bytes (seeded with valid, truncated and
// bit-flipped containers) through Decode and asserts it never panics and
// never accepts a container whose re-encoding disagrees with the input.
func FuzzCheckpointLoad(f *testing.F) {
	valid := Encode("scan", 7, []byte(`{"cursor":1,"names":["a"]}`))
	f.Add(valid)
	f.Add(valid[:len(valid)-1])
	f.Add(valid[:4])
	f.Add([]byte{})
	flipped := make([]byte, len(valid))
	copy(flipped, valid)
	flipped[10] ^= 0x40
	f.Add(flipped)
	f.Fuzz(func(t *testing.T, data []byte) {
		leg, seed, payload, err := Decode(data)
		if err != nil {
			if !errors.Is(err, ErrCorruptCheckpoint) {
				t.Fatalf("non-corrupt error from Decode: %v", err)
			}
			return
		}
		if got := Encode(leg, seed, payload); string(got) != string(data) {
			t.Fatalf("accepted container does not re-encode to itself")
		}
	})
}

// chainedState is a leg state the way the binaries declare one: the leg's own
// fields, then the chain.
type chainedState struct {
	Cursor int `json:"cursor"`
	Chain
}

// TestChainNamesAndResume drives each leg's chain the way its binary does —
// commit, commit, kill, resume, commit — and asserts the record names count
// up from zero in the leg's format, the resumed chain is the uninterrupted
// one (the loaded file's own record re-derived and appended), an empty
// directory is a fresh start, and a foreign seed or leg is rejected.
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
			dir := t.TempDir()
			fresh := &chainedState{}
			if found, err := Resume(dir, tc.leg, tc.nameFmt, 7, fresh); found || err != nil {
				t.Fatalf("Resume on an empty directory = %v, %v; want a fresh start", found, err)
			}
			live := &chainedState{}
			for i := 0; i < 2; i++ {
				live.Cursor = i
				if err := Commit(dir, tc.leg, tc.nameFmt, 7, live); err != nil {
					t.Fatal(err)
				}
			}
			resumed := &chainedState{}
			found, err := Resume(dir, tc.leg, tc.nameFmt, 7, resumed)
			if !found || err != nil {
				t.Fatalf("Resume = %v, %v", found, err)
			}
			if resumed.Cursor != 1 || len(resumed.Checkpoints) != 2 {
				t.Fatalf("resumed cursor %d with %d records, want 1 with 2", resumed.Cursor, len(resumed.Checkpoints))
			}
			for i, rec := range resumed.Checkpoints {
				if rec != live.Checkpoints[i] {
					t.Errorf("record %d: resumed %+v, live %+v", i, rec, live.Checkpoints[i])
				}
			}
			if err := Commit(dir, tc.leg, tc.nameFmt, 7, resumed); err != nil {
				t.Fatal(err)
			}
			for i, name := range tc.want {
				if got := resumed.Checkpoints[i].Name; got != name {
					t.Errorf("record %d named %q, want %q", i, got, name)
				}
			}
			if _, err := Resume(dir, tc.leg, tc.nameFmt, 8, &chainedState{}); err == nil {
				t.Error("Resume accepted a checkpoint written under another seed")
			}
			if err := os.Rename(FileName(dir, tc.leg), FileName(dir, "other")); err != nil {
				t.Fatal(err)
			}
			if _, err := Resume(dir, "other", tc.nameFmt, 7, &chainedState{}); err == nil {
				t.Error("Resume accepted a checkpoint written by another leg")
			}
		})
	}
}
