package serve

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"openhire/internal/obs"
	"openhire/internal/telescope"
)

// The golden digests were recorded from the month re-fold (the whole month's
// log copied, canonically sorted and folded again every cycle) at the last
// commit that still had it, before the honeypot leg became a per-day
// Drain + FoldAttackDay. They sit either side of both month boundaries the
// run crosses; any change to what the aggregates hold moves them and must be
// a deliberate, reviewed decision.
var goldenAggregates = map[int]string{
	29: "78a745957209ea9619474bd864c75f9f72026d10cc1c0bd648091684421276ca",
	30: "f55287ee00691b961df87c5ca15b7f8836abf80b1de6c058db6319fe4d999f29",
	31: "30bbbc1b04570b7146330f981c4bcf1b95f0de67876191a288ebcdd597b553a3",
	61: "44cb2a8d169b6afabb2a47d810e225f1462bb3396dd7c67188e4ac4f345c076e",
}

// aggregatesDigest hashes the -out artifact at the loop's current position.
func aggregatesDigest(t testing.TB, l *Loop) string {
	t.Helper()
	body, err := l.AggregatesJSON()
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(body)
	return hex.EncodeToString(sum[:])
}

// TestServeGoldenDigest pins the daemon's aggregates to the recorded digests
// for every worker count, across two month reseeds.
func TestServeGoldenDigest(t *testing.T) {
	for _, workers := range []int{1, 7} {
		l := New(testConfig(workers))
		for _, cycle := range []int{29, 30, 31, 61} {
			if err := l.Run(context.Background(), cycle); err != nil {
				t.Fatal(err)
			}
			if got := aggregatesDigest(t, l); got != goldenAggregates[cycle] {
				t.Errorf("workers=%d cycle=%d: aggregates diverged from golden:\n got %s\nwant %s",
					workers, cycle, got, goldenAggregates[cycle])
			}
		}
	}
}

// goldenHourFiles is the sha256 over the sorted "name digest\n" lines of the
// telescope_files map after three cycles of testConfig, recorded when the
// hour files became binary FlowTuple records (dayNNNN-hourHH.ft). It moves
// when any hour file's bytes, name or flow order moves.
const goldenHourFiles = "1f17f047e8596962ab9e46fbae03711769d3f207f656b0fb4a743d0fb12e440d"

// goldenHourFilesCSV is the same digest over the files as CSV
// (dayNNNN-hourHH.csv), recorded from the fmt.Fprintf encoder and the
// sequential per-file atomic writes at the last commit that still had them.
// Decoding each binary file and rendering it as CSV must reproduce it: the
// binary files hold exactly the flows the CSV ones did, in the same order.
const goldenHourFilesCSV = "cf5e402a0fff9e371798db0a5b8f6b10063fb6fe0c9d895fce30869c9a66b49b"

// TestHourFilesGoldenDigest pins the hourly capture files — the bytes on disk
// as well as the digests handed to the checkpoint and the manifest — to the
// recorded digest for every worker count, and their decoded flows to the
// digest the CSV files had.
func TestHourFilesGoldenDigest(t *testing.T) {
	for _, workers := range []int{1, 7} {
		cfg := testConfig(workers)
		cfg.TelescopeDir = filepath.Join(t.TempDir(), "telescope")
		l := New(cfg)
		if err := l.Run(context.Background(), 3); err != nil {
			t.Fatal(err)
		}
		files := l.TelescopeFiles()
		if len(files) != 3*24 {
			t.Fatalf("workers=%d: %d hour files recorded, want %d", workers, len(files), 3*24)
		}
		names := make([]string, 0, len(files))
		for name := range files {
			names = append(names, name)
		}
		sort.Strings(names)
		h, hCSV := sha256.New(), sha256.New()
		for _, name := range names {
			data, err := os.ReadFile(filepath.Join(cfg.TelescopeDir, name))
			if err != nil {
				t.Fatal(err)
			}
			if got := obs.Digest(data); got != files[name] {
				t.Errorf("workers=%d %s: recorded digest %s, file on disk hashes to %s", workers, name, files[name], got)
			}
			fmt.Fprintf(h, "%s %s\n", name, files[name])
			var csv bytes.Buffer
			if err := telescope.WriteFlowsCSV(&csv, readFlows(t, data)); err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(hCSV, "%s %s\n", strings.TrimSuffix(name, ".ft")+".csv", obs.Digest(csv.Bytes()))
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != goldenHourFiles {
			t.Errorf("workers=%d: hour files diverged from golden:\n got %s\nwant %s", workers, got, goldenHourFiles)
		}
		if got := hex.EncodeToString(hCSV.Sum(nil)); got != goldenHourFilesCSV {
			t.Errorf("workers=%d: hour files rendered as CSV diverged from golden:\n got %s\nwant %s", workers, got, goldenHourFilesCSV)
		}
		entries, err := os.ReadDir(cfg.TelescopeDir)
		if err != nil {
			t.Fatal(err)
		}
		if len(entries) != len(files) {
			t.Errorf("workers=%d: %d directory entries for %d recorded files (staging file left behind?)", workers, len(entries), len(files))
		}
	}
}

// readFlows decodes a whole binary FlowTuple file.
func readFlows(t *testing.T, data []byte) []*telescope.FlowTuple {
	t.Helper()
	var flows []*telescope.FlowTuple
	r := bytes.NewReader(data)
	for {
		ft, err := telescope.ReadBinary(r)
		if err == io.EOF {
			return flows
		}
		if err != nil {
			t.Fatal(err)
		}
		flows = append(flows, ft)
	}
}
