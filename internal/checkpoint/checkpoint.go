// Package checkpoint reads and writes the resumable-state snapshots that
// make the three legs kill-safe.
//
// The seeded world is derivable, so checkpoints are small: each leg saves
// only its position (cursors, counters, PRNG states) plus the outputs
// accumulated so far. Files are self-describing and integrity-protected:
//
//	magic "OHCK" | version u16 | leg len u16 | leg | seed u64 |
//	payload len u64 | payload | CRC-32C over everything before it
//
// all fixed-width fields little-endian. The version names the payload's
// format: VersionJSON (the batch legs, through Save/Load/Commit/Resume) or
// VersionBinary (the serve daemon's files, typed codecs written with
// package wire). A checkpoint written at a given cadence point is a pure
// function of (seed, config, build) — independent of how many times the
// process was killed and resumed before reaching it — which is what lets
// the obs manifest record checkpoint digests and still diff clean between
// an interrupted run and an uninterrupted one.
//
// Loads are paranoid: any truncation, bit flip, wrong magic, or version
// skew yields an error wrapping ErrCorruptCheckpoint, never a panic or a
// silent partial state.
package checkpoint

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"

	"openhire/internal/checkpoint/atomicio"
	"openhire/internal/obs"
	"openhire/internal/obs/trace"
)

// The container versions, one per payload format. Decode rejects any other
// version rather than guess at a layout.
const (
	// VersionJSON is a JSON payload.
	VersionJSON uint16 = 1
	// VersionBinary is a typed binary payload (package wire).
	VersionBinary uint16 = 2
)

// ErrCorruptCheckpoint reports a checkpoint file that failed validation —
// truncated, bit-flipped, wrong magic, or unknown version. All Load parse
// failures wrap it.
var ErrCorruptCheckpoint = errors.New("corrupt checkpoint")

// ErrPayloadFormat reports an intact checkpoint whose payload is in another
// format than the reader's: a file from a build that wrote the leg's state
// differently. The state is derivable, so the remedy is a fresh run.
var ErrPayloadFormat = errors.New("checkpoint payload in another format")

var magic = [4]byte{'O', 'H', 'C', 'K'}

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// FileName returns the checkpoint path for a leg under dir.
func FileName(dir, leg string) string {
	return filepath.Join(dir, leg+".ckpt")
}

// Save marshals state as the leg's JSON checkpoint payload and atomically
// writes dir/<leg>.ckpt. The returned record carries the given position name
// plus the file's size and content digest, ready for the obs manifest.
func Save(dir, leg, name string, seed uint64, state any) (obs.CheckpointRecord, error) {
	payload, err := json.Marshal(state)
	if err != nil {
		return obs.CheckpointRecord{}, fmt.Errorf("checkpoint %s: marshal: %w", leg, err)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return obs.CheckpointRecord{}, err
	}
	data := Encode(VersionJSON, leg, seed, payload)
	if err := atomicio.WriteFileBytes(FileName(dir, leg), data); err != nil {
		return obs.CheckpointRecord{}, err
	}
	return obs.CheckpointRecord{Name: name, Bytes: int64(len(data)), Digest: obs.Digest(data)}, nil
}

// Load reads dir/<leg>.ckpt as a JSON checkpoint and unmarshals the payload
// into state; see LoadPayload for the errors.
func Load(dir, leg string, seed uint64, state any) (obs.CheckpointRecord, error) {
	payload, rec, err := LoadPayload(dir, leg, seed, VersionJSON)
	if err != nil {
		return obs.CheckpointRecord{}, err
	}
	if err := json.Unmarshal(payload, state); err != nil {
		return obs.CheckpointRecord{}, fmt.Errorf("%s: payload: %w: %v", FileName(dir, leg), ErrCorruptCheckpoint, err)
	}
	return rec, nil
}

// LoadPayload reads dir/<leg>.ckpt, validates it against the expected leg,
// seed and payload version, and returns the payload with the file's record
// (size and digest; no name). A missing file returns an error satisfying
// errors.Is(err, os.ErrNotExist); a damaged one wraps ErrCorruptCheckpoint;
// an intact file in another payload format wraps ErrPayloadFormat; a
// leg/seed mismatch gets its own descriptive error (the file is intact — it
// just belongs to a different run).
func LoadPayload(dir, leg string, seed uint64, version uint16) ([]byte, obs.CheckpointRecord, error) {
	path := FileName(dir, leg)
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, obs.CheckpointRecord{}, err
	}
	f, err := Decode(data)
	if err != nil {
		return nil, obs.CheckpointRecord{}, fmt.Errorf("%s: %w", path, err)
	}
	if f.Version != version {
		return nil, obs.CheckpointRecord{}, fmt.Errorf("%s: %w: version %d (%s payload), this build reads version %d (%s payload) for leg %q",
			path, ErrPayloadFormat, f.Version, formatName(f.Version), version, formatName(version), leg)
	}
	if f.Leg != leg || f.Seed != seed {
		return nil, obs.CheckpointRecord{}, fmt.Errorf("%s: checkpoint is for leg %q seed %d, want leg %q seed %d",
			path, f.Leg, f.Seed, leg, seed)
	}
	return f.Payload, obs.CheckpointRecord{Bytes: int64(len(data)), Digest: obs.Digest(data)}, nil
}

// formatName names a version's payload format.
func formatName(version uint16) string {
	if version == VersionBinary {
		return "binary"
	}
	return "JSON"
}

// File is a decoded checkpoint container.
type File struct {
	Version uint16
	Leg     string
	Seed    uint64
	Payload []byte
}

// Encode builds the container bytes around an already-encoded payload.
func Encode(version uint16, leg string, seed uint64, payload []byte) []byte {
	buf := make([]byte, 0, len(magic)+2+2+len(leg)+8+8+len(payload)+4)
	buf = append(buf, magic[:]...)
	buf = binary.LittleEndian.AppendUint16(buf, version)
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(leg)))
	buf = append(buf, leg...)
	buf = binary.LittleEndian.AppendUint64(buf, seed)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(len(payload)))
	buf = append(buf, payload...)
	return binary.LittleEndian.AppendUint32(buf, crc32.Checksum(buf, castagnoli))
}

// Decode validates container bytes and returns the version, leg, seed and
// payload.
func Decode(data []byte) (File, error) {
	fail := func(what string) (File, error) {
		return File{}, fmt.Errorf("%w: %s", ErrCorruptCheckpoint, what)
	}
	if len(data) < len(magic)+2+2+8+8+4 {
		return fail("short file")
	}
	if [4]byte(data[:4]) != magic {
		return fail("bad magic")
	}
	body, sum := data[:len(data)-4], binary.LittleEndian.Uint32(data[len(data)-4:])
	if crc32.Checksum(body, castagnoli) != sum {
		return fail("CRC mismatch")
	}
	v := binary.LittleEndian.Uint16(body[4:6])
	if v != VersionJSON && v != VersionBinary {
		return fail(fmt.Sprintf("version %d (want %d or %d)", v, VersionJSON, VersionBinary))
	}
	legLen := int(binary.LittleEndian.Uint16(body[6:8]))
	rest := body[8:]
	if len(rest) < legLen+16 {
		return fail("truncated header")
	}
	leg := string(rest[:legLen])
	rest = rest[legLen:]
	seed := binary.LittleEndian.Uint64(rest[:8])
	n := binary.LittleEndian.Uint64(rest[8:16])
	if n != uint64(len(rest[16:])) {
		return fail("payload length mismatch")
	}
	return File{Version: v, Leg: leg, Seed: seed, Payload: rest[16:]}, nil
}

// ErrInterrupted is the sentinel a cadence callback returns to stop a
// checkpointed run cleanly after its state is durable: the runner unwinds,
// the binary writes final artifacts for the work completed so far, records
// interrupted:true in the manifest, and exits 0.
var ErrInterrupted = errors.New("interrupted: state checkpointed")

// Chain is the history every leg's checkpoint state carries: the flight
// recorder's events at commit time and the records of every checkpoint
// committed before this one (a file cannot carry its own digest; Resume
// reconstructs the newest record from the file bytes). Legs embed it last in
// their state struct, so the payload's field order is the leg's own fields
// followed by these two.
type Chain struct {
	TraceEvents []trace.SavedEvent     `json:"trace_events,omitempty"`
	Checkpoints []obs.CheckpointRecord `json:"checkpoints,omitempty"`
}

// History returns the chain itself; embedding Chain is what makes a struct a
// State.
func (c *Chain) History() *Chain { return c }

// State is a leg's checkpoint payload: a pointer to a struct that embeds Chain.
type State interface{ History() *Chain }

// Resume loads the leg's checkpoint into state and appends the loaded file's
// own record to the chain. The record's position name is re-derived from the
// restored history (nameFmt takes the record's index, e.g. "seg%04d"), so
// chains are independent of kill history. A missing file is a fresh start:
// found is false and state is untouched.
func Resume(dir, leg, nameFmt string, seed uint64, state State) (found bool, err error) {
	loaded, err := Load(dir, leg, seed, state)
	if errors.Is(err, os.ErrNotExist) {
		return false, nil
	}
	if err != nil {
		return false, err
	}
	h := state.History()
	loaded.Name = fmt.Sprintf(nameFmt, len(h.Checkpoints))
	h.Checkpoints = append(h.Checkpoints, loaded)
	return true, nil
}

// Commit saves state as the leg's next checkpoint and appends its record to
// the chain once the file is durable.
func Commit(dir, leg, nameFmt string, seed uint64, state State) error {
	h := state.History()
	recd, err := Save(dir, leg, fmt.Sprintf(nameFmt, len(h.Checkpoints)), seed, state)
	if err != nil {
		return err
	}
	h.Checkpoints = append(h.Checkpoints, recd)
	return nil
}
