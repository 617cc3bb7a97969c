package serve

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"openhire/internal/obs/tsdb"
	"openhire/internal/prng"
)

// TestMarshalBodyEqualsMarshalIndent requires the endpoint renderer to
// produce json.MarshalIndent's bytes, plus the newline, for generated values
// — nested and empty objects and arrays, and strings full of the
// punctuation and escapes the indenter must pass through untouched — and
// for a time-series answer and catalog like the ones /api/timeseries
// serves.
func TestMarshalBodyEqualsMarshalIndent(t *testing.T) {
	gen := prng.New(2021)
	pieces := []string{"a", "{", "}", "[", "]", ",", ":", `"`, `\`, `\"`, "<&>", "é", " ", "\x01", " ", "\t", "null"}
	var value func(depth int) any
	value = func(depth int) any {
		switch k := gen.Intn(8); {
		case depth > 4 || k == 0:
			var sb strings.Builder
			for n := gen.Intn(6); n > 0; n-- {
				sb.WriteString(pieces[gen.Intn(len(pieces))])
			}
			return sb.String()
		case k == 1:
			return gen.Float64() * float64(gen.Intn(1<<20)-1<<19)
		case k == 2:
			return gen.Bool(0.5)
		case k == 3:
			return nil
		case k < 6:
			m := make(map[string]any)
			for n := gen.Intn(4); n > 0; n-- {
				m[value(5).(string)] = value(depth + 1)
			}
			return m
		default:
			a := make([]any, gen.Intn(4))
			for i := range a {
				a[i] = value(depth + 1)
			}
			return a
		}
	}
	check := func(v any) {
		t.Helper()
		want, err := json.MarshalIndent(v, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		got, err := marshalBody(v)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, append(want, '\n')) {
			t.Fatalf("body differs from MarshalIndent:\n got %q\nwant %q", got, want)
		}
	}
	for i := 0; i < 2000; i++ {
		check(value(0))
	}
	db := tsdb.New(tsdb.Options{})
	for c := int64(0); c < 200; c++ {
		db.Append(c, "serve.exposure.misconfigured", tsdb.Labels{{Key: "protocol", Value: "telnet"}}, float64(c)*1.5)
		db.Append(c, "serve.exposure.misconfigured", tsdb.Labels{{Key: "protocol", Value: "mqtt"}}, 1e-7*float64(c))
		db.Append(c, "serve.trend.attack_events", nil, 1e21+float64(c))
	}
	db.Publish()
	view := db.View()
	if res := view.Query(tsdb.Query{Metric: "serve.exposure.misconfigured", To: -1, Tier: tsdb.TierRaw}); len(res.Series) != 2 {
		t.Fatalf("query matched %d series, want 2", len(res.Series))
	}
	check(view.Query(tsdb.Query{Metric: "serve.exposure.misconfigured", To: -1, Tier: tsdb.TierRaw}))
	check(view.Query(tsdb.Query{Metric: "serve.exposure.misconfigured", To: -1, Tier: tsdb.TierRollup}))
	check(view.Catalog("sim"))
}
