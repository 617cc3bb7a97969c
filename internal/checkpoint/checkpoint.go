// Package checkpoint reads and writes the resumable state that makes the
// legs kill-safe.
//
// The seeded world is derivable, so a checkpoint holds a leg's position
// (cursors, counters, PRNG states), never the world. Files are
// self-describing and integrity-protected:
//
//	magic "OHCK" | version u16 | leg len u16 | leg | seed u64 |
//	payload len u64 | payload | CRC-32C over everything before it
//
// all fixed-width fields little-endian. The payload is typed binary (package
// wire). Version 1 named the JSON payloads older builds wrote; such a file
// is refused with ErrPayloadFormat.
//
// A batch leg commits through a Batch: what it produced since its last
// commit is appended to its log as one frame, then its position is written
// as the checkpoint; nothing committed is rewritten. Frames are canonical,
// so the files at a given commit are a pure function of (seed, config,
// build), whatever the kill history before it — which is what lets the obs
// manifest record checkpoint digests and still diff clean between an
// interrupted run and an uninterrupted one.
//
// Loads are paranoid: any truncation, bit flip, wrong magic, unknown
// version, short log or log digest mismatch yields an error wrapping
// ErrCorruptCheckpoint, never a panic or a silent partial state.
package checkpoint

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"

	"openhire/internal/checkpoint/atomicio"
	"openhire/internal/checkpoint/crashpoint"
	"openhire/internal/checkpoint/wire"
	"openhire/internal/obs"
)

// VersionBinary is the container version this build writes and reads: a
// typed binary payload (package wire).
const VersionBinary uint16 = 2

// versionJSON is the version older builds wrote for JSON payloads.
const versionJSON uint16 = 1

// ErrCorruptCheckpoint reports a checkpoint file that failed validation —
// truncated, bit-flipped, wrong magic, unknown version — or a log that does
// not hold what its checkpoint recorded. All load failures wrap it.
var ErrCorruptCheckpoint = errors.New("corrupt checkpoint")

// ErrPayloadFormat reports an intact checkpoint whose payload is in another
// format than the reader's: a JSON file from an older build. The state is
// derivable, so the remedy is a fresh run.
var ErrPayloadFormat = errors.New("checkpoint payload in another format")

// ErrInterrupted is the sentinel a cadence callback returns to stop a
// checkpointed run cleanly after its state is durable: the runner unwinds,
// the binary writes final artifacts for the work completed so far, records
// interrupted:true in the manifest, and exits 0.
var ErrInterrupted = errors.New("interrupted: state checkpointed")

var magic = [4]byte{'O', 'H', 'C', 'K'}

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// FileName returns the checkpoint path for a leg under dir.
func FileName(dir, leg string) string {
	return filepath.Join(dir, leg+".ckpt")
}

// LogName returns the path of a batch leg's log under dir.
func LogName(dir, leg string) string {
	return filepath.Join(dir, leg+".log")
}

// LoadPayload reads dir/<leg>.ckpt, validates it against the expected leg
// and seed, and returns the payload with the file's record (size and digest;
// no name). A missing file returns an error satisfying
// errors.Is(err, os.ErrNotExist); a damaged one wraps ErrCorruptCheckpoint;
// a JSON file from an older build wraps ErrPayloadFormat; a leg/seed
// mismatch gets its own descriptive error (the file is intact — it just
// belongs to a different run). Every error names the file.
func LoadPayload(dir, leg string, seed uint64) ([]byte, obs.CheckpointRecord, error) {
	path := FileName(dir, leg)
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, obs.CheckpointRecord{}, err
	}
	f, err := Decode(data)
	if err != nil {
		return nil, obs.CheckpointRecord{}, fmt.Errorf("%s: %w", path, err)
	}
	if f.Leg != leg || f.Seed != seed {
		return nil, obs.CheckpointRecord{}, fmt.Errorf("%s: checkpoint is for leg %q seed %d, want leg %q seed %d",
			path, f.Leg, f.Seed, leg, seed)
	}
	return f.Payload, obs.CheckpointRecord{Bytes: int64(len(data)), Digest: obs.Digest(data)}, nil
}

// File is a decoded checkpoint container.
type File struct {
	Leg     string
	Seed    uint64
	Payload []byte
}

// Encode builds the container bytes around an already-encoded payload.
func Encode(leg string, seed uint64, payload []byte) []byte {
	buf := make([]byte, 0, len(magic)+2+2+len(leg)+8+8+len(payload)+4)
	buf = append(buf, magic[:]...)
	buf = binary.LittleEndian.AppendUint16(buf, VersionBinary)
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(leg)))
	buf = append(buf, leg...)
	buf = binary.LittleEndian.AppendUint64(buf, seed)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(len(payload)))
	buf = append(buf, payload...)
	return binary.LittleEndian.AppendUint32(buf, crc32.Checksum(buf, castagnoli))
}

// Decode validates container bytes and returns the leg, seed and payload.
// An intact version-1 (JSON) container wraps ErrPayloadFormat; any other
// failure wraps ErrCorruptCheckpoint.
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
	switch v := binary.LittleEndian.Uint16(body[4:6]); v {
	case VersionBinary:
	case versionJSON:
		return File{}, fmt.Errorf("%w: version %d (JSON payload from an older build), this build reads version %d (binary payload)",
			ErrPayloadFormat, v, VersionBinary)
	default:
		return fail(fmt.Sprintf("version %d (want %d)", v, VersionBinary))
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
	return File{Leg: leg, Seed: seed, Payload: rest[16:]}, nil
}

// Batch is a batch leg's commit chain: its checkpoint, whose payload is
//
//	log length uvarint | log sha256 (32 bytes) | position
//
// and its log, one frame per commit:
//
//	body length uvarint | previous checkpoint's bytes uvarint and sha256
//	(not in the first frame) | leg frame
//
// A file cannot carry its own digest, so the chain of records lives in the
// log, and nothing committed is ever rewritten.
type Batch struct {
	dir, leg, nameFmt string
	seed              uint64
	log               *os.File
	sum               *obs.DigestWriter // over the committed log
	// Records are the checkpoints committed so far, each named by its index
	// in nameFmt ("seg%04d"): the run manifest's checkpoint list.
	Records []obs.CheckpointRecord
}

// OpenBatch opens the leg's commit chain in dir. With resume it loads
// dir/<leg>.ckpt, checks that the log's recorded prefix hashes to the
// recorded digest, truncates whatever lies past it (a torn append, or a
// frame whose checkpoint never landed) and returns the position and the
// leg frames, oldest first. Without resume, or when there is no checkpoint,
// it starts an empty chain and returns a nil position. A short log or a
// digest mismatch wraps ErrCorruptCheckpoint.
func OpenBatch(dir, leg, nameFmt string, seed uint64, resume bool) (_ *Batch, pos []byte, frames [][]byte, err error) {
	b := &Batch{dir: dir, leg: leg, nameFmt: nameFmt, seed: seed, sum: obs.NewDigestWriter()}
	payload, rec, err := LoadPayload(dir, leg, seed)
	if !resume || errors.Is(err, os.ErrNotExist) {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, nil, nil, err
		}
		// A stale checkpoint must not outlive the log it recorded.
		if err := os.Remove(FileName(dir, leg)); err != nil && !errors.Is(err, os.ErrNotExist) {
			return nil, nil, nil, err
		}
		b.log, err = os.OpenFile(LogName(dir, leg), os.O_RDWR|os.O_CREATE|os.O_TRUNC|os.O_APPEND, 0o644)
		return b, nil, nil, err
	}
	if err != nil {
		return nil, nil, nil, err
	}
	corrupt := func(format string, args ...any) (*Batch, []byte, [][]byte, error) {
		return nil, nil, nil, fmt.Errorf("%s: %w: %s", LogName(dir, leg), ErrCorruptCheckpoint, fmt.Sprintf(format, args...))
	}
	r := wire.NewReader(payload)
	n, sum := r.Uint(), r.Digest()
	if r.Err() != nil {
		return corrupt("checkpoint: %v", r.Err())
	}
	if b.log, err = os.OpenFile(LogName(dir, leg), os.O_RDWR|os.O_APPEND, 0); err != nil {
		return corrupt("%v", err)
	}
	defer func() {
		if err != nil {
			b.log.Close()
		}
	}()
	data, err := io.ReadAll(b.log)
	switch {
	case err != nil:
		return nil, nil, nil, err
	case uint64(len(data)) < n:
		return corrupt("%d bytes, the checkpoint recorded %d", len(data), n)
	}
	if _, _ = b.sum.Write(data[:n]); b.sum.Sum() != sum { // a hash never fails
		return corrupt("the first %d bytes do not hash to the recorded digest", n)
	}
	prev, frames, err := readLog(data[:n])
	if err != nil {
		return corrupt("%v", err)
	}
	if err := b.log.Truncate(int64(n)); err != nil {
		return nil, nil, nil, err
	}
	b.Records = append(prev, rec)
	for i := range b.Records {
		b.Records[i].Name = fmt.Sprintf(nameFmt, i)
	}
	return b, payload[r.Offset():], frames, nil
}

// readLog decodes a committed log into each frame's previous-checkpoint
// record and its leg frame, oldest first. A frame is never allocated more
// than its own bytes.
func readLog(data []byte) (prev []obs.CheckpointRecord, frames [][]byte, err error) {
	r := wire.NewReader(data)
	for r.Err() == nil && r.Offset() < len(data) {
		body := wire.NewReader([]byte(r.Str()))
		if len(frames) > 0 {
			prev = append(prev, obs.CheckpointRecord{Bytes: body.Int64(), Digest: body.Digest()})
		}
		if err := body.Err(); err != nil {
			return nil, nil, fmt.Errorf("frame %d: %w", len(frames), err)
		}
		frames = append(frames, body.Rest())
	}
	if len(frames) == 0 && r.Err() == nil {
		return nil, nil, errors.New("no frames")
	}
	return prev, frames, r.Err()
}

// Commit appends frame to the log with the previous checkpoint's record and
// fsyncs it, then atomically writes pos as the next checkpoint, recording
// the log's new length and digest, and appends that checkpoint's record to
// Records.
func (b *Batch) Commit(pos, frame []byte) error {
	var body []byte
	if k := len(b.Records); k > 0 {
		body = wire.AppendDigest(wire.AppendInt64(nil, b.Records[k-1].Bytes), b.Records[k-1].Digest)
	}
	rec := append(append(wire.AppendUint(nil, uint64(len(body)+len(frame))), body...), frame...)
	if _, err := b.log.Write(rec); err != nil {
		return err
	}
	if err := b.log.Sync(); err != nil {
		return err
	}
	_, _ = b.sum.Write(rec) // a hash never fails
	crashpoint.Here(crashpoint.SiteLogAppended)

	payload := wire.AppendDigest(wire.AppendUint(nil, uint64(b.sum.Bytes())), b.sum.Sum())
	data := Encode(b.leg, b.seed, append(payload, pos...))
	if err := atomicio.WriteFileBytes(FileName(b.dir, b.leg), data); err != nil {
		return err
	}
	b.Records = append(b.Records, obs.CheckpointRecord{
		Name: fmt.Sprintf(b.nameFmt, len(b.Records)), Bytes: int64(len(data)), Digest: obs.Digest(data),
	})
	return nil
}

// Close closes the log.
func (b *Batch) Close() error { return b.log.Close() }
