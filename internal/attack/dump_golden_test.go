package attack

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"openhire/internal/geo"
	"openhire/internal/netsim"
	"openhire/internal/telescope"
)

// goldenDarknetDump is the SHA-256 of the batch capture path's dump: three
// days generated with RunDay, each drained, written with WriteFlowsBinary and
// then WriteFlowsCSV into one hash. Never edit it to make a change pass: a
// new digest means the telescope files moved.
const goldenDarknetDump = "2588e12959d809d4cdb7d6a3408260bb60d5246d429f04a61060466497103bfe"

// TestDarknetDumpGoldenDigest pins the bytes the batch telescope writes:
// RunDay(0..2) then Drain, with a scanning-service pool and a geo database,
// encoded by both flow codecs, at 1 and 7 workers.
func TestDarknetDumpGoldenDigest(t *testing.T) {
	for _, workers := range []int{1, 7} {
		s := NewSources(7, nil, nil, nil)
		s.BuildScanningPool(600)
		tel := telescope.New(netsim.MustParsePrefix("44.0.0.0/8"), nil)
		g := NewDarknetGenerator(DarknetConfig{
			Seed: 21, Telescope: tel, Sources: s, GeoDB: geo.NewDB(21, nil),
			Scale: 1.0 / 8192, Days: 3, Workers: workers,
		})
		h := sha256.New()
		for day := 0; day < 3; day++ {
			g.RunDay(day)
			flows := tel.Drain()
			if len(flows) == 0 {
				t.Fatalf("workers=%d day %d: no flows drained", workers, day)
			}
			if err := telescope.WriteFlowsBinary(h, flows); err != nil {
				t.Fatal(err)
			}
			if err := telescope.WriteFlowsCSV(h, flows); err != nil {
				t.Fatal(err)
			}
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != goldenDarknetDump {
			t.Errorf("workers=%d: darknet dump diverged from golden:\n got %s\nwant %s", workers, got, goldenDarknetDump)
		}
	}
}
