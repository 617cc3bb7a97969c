package attack

import (
	"testing"

	"openhire/internal/geo"
	"openhire/internal/netsim"
	"openhire/internal/telescope"
)

// BenchmarkDarknetDay measures one day of Table 8-calibrated darknet
// generation at the default CLI scale (1/8192), including telescope ingest
// and geo annotation.
func BenchmarkDarknetDay(b *testing.B) {
	prefix := netsim.MustParsePrefix("44.0.0.0/8")
	geodb := geo.NewDB(1, nil)
	b.ReportAllocs()
	var flows int
	for i := 0; i < b.N; i++ {
		tel := telescope.New(prefix, geodb)
		g := NewDarknetGenerator(DarknetConfig{
			Seed: 9, Telescope: tel, GeoDB: geodb, Scale: 1.0 / 8192, Days: 1,
		})
		flows = g.Run()
	}
	if flows > 0 {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(flows), "ns/flow")
	}
}
