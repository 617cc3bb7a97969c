package attack

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"openhire/internal/honeypot"
)

// digestEvents hashes a canonically sorted event log field by field. The
// digest is a pure function of log content: two replays whose canonical logs
// are element-wise identical hash identically regardless of worker count,
// scheduling, or the conversation execution machinery underneath.
func digestEvents(events []honeypot.Event) string {
	h := sha256.New()
	for i := range events {
		ev := &events[i]
		fmt.Fprintf(h, "%d|%s|%s|%d|%s|%s|%s|%s|%x\n",
			ev.Time.UnixNano(), ev.Honeypot, ev.Protocol, uint32(ev.Src),
			ev.Type, ev.Username, ev.Password, ev.Detail, ev.Payload)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestCampaignGoldenDigest pins the replay's canonical honeypot log to the
// digest captured from the pre-conversation-engine goroutine-per-dial
// implementation. Any change to what the honeypots observe — event content,
// flood upgrades, fault classification — moves this digest and must be a
// deliberate, reviewed decision. The golden file is written on first run;
// commit it.
func TestCampaignGoldenDigest(t *testing.T) {
	events := runCampaign(t, 8)
	if len(events) == 0 {
		t.Fatal("campaign produced no events")
	}
	got := digestEvents(events)

	path := filepath.Join("testdata", "campaign_golden.digest")
	want, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("golden digest captured: %s (commit %s)", got, path)
		return
	}
	if err != nil {
		t.Fatal(err)
	}
	if got != strings.TrimSpace(string(want)) {
		t.Fatalf("campaign canonical log diverged from pre-refactor golden:\n got %s\nwant %s",
			got, strings.TrimSpace(string(want)))
	}
}

// TestCampaignShardCountByteIdentity replays the golden campaign at 1, 7,
// 32, 64 (the daemon's default) and 128 (the report's) lanes and requires
// every run to hash to the pre-refactor golden digest. Lane routing is by
// (src, dst) while every honeypot-side keyed observable (flood counters) is
// bucketed at least as finely, so the lane count must be invisible in the
// canonical log — this is the equivalence harness pinning the day's
// fork-join to the goroutine-per-dial semantics it replaced.
func TestCampaignShardCountByteIdentity(t *testing.T) {
	path := filepath.Join("testdata", "campaign_golden.digest")
	want, err := os.ReadFile(path)
	if err != nil {
		t.Skipf("golden digest not captured yet: %v", err)
	}
	for _, lanes := range []int{1, 7, 32, 64, 128} {
		events := runCampaign(t, lanes)
		if got := digestEvents(events); got != strings.TrimSpace(string(want)) {
			t.Fatalf("canonical log at %d lanes diverged from golden:\n got %s\nwant %s",
				lanes, got, strings.TrimSpace(string(want)))
		}
	}
}
