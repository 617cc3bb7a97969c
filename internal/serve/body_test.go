package serve

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
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
	for _, q := range []tsdb.Query{
		{Metric: "serve.exposure.misconfigured", To: -1, Tier: tsdb.TierRaw},
		{Metric: "serve.exposure.misconfigured", To: -1, Tier: tsdb.TierRollup},
		{Metric: "serve.trend.attack_events", From: 3, To: -1, Tier: tsdb.TierRaw, Step: 7},
		{Metric: "no.such.metric", To: -1, Tier: tsdb.TierRaw},
	} {
		sameResultBody(t, view.Query(q))
	}
}

// sameResultBody requires resultBody to render res as marshalBody does:
// the same bytes, or, for a non-finite value, the same refusal.
func sameResultBody(t *testing.T, res tsdb.Result) {
	t.Helper()
	got, gotErr := resultBody(res)
	want, wantErr := marshalBody(res)
	if (gotErr == nil) != (wantErr == nil) {
		t.Fatalf("resultBody error %v, marshalBody error %v", gotErr, wantErr)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("resultBody differs from marshalBody:\n got %q\nwant %q", got, want)
	}
}

// FuzzResultBody builds a tsdb.Result from the fuzz input — names and label
// values from escape-heavy pieces and raw bytes, floats at encoding/json's
// format boundaries or from raw bits (a NaN or an infinity among them),
// empty and nil series, labels, points and buckets, any step and dropped
// count — and requires the append encoder to match marshalBody.
func FuzzResultBody(f *testing.F) {
	rng := rand.New(rand.NewSource(51))
	for n := 0; n < 32; n++ {
		seed := make([]byte, 16+24*n)
		rng.Read(seed)
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		sameResultBody(t, fuzzResult(data))
	})
}

// fuzzResult decodes a tsdb.Result from data, reading zeros past its end.
func fuzzResult(data []byte) tsdb.Result {
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	u64 := func() uint64 {
		var v uint64
		for i := 0; i < 8; i++ {
			v = v<<8 | uint64(next())
		}
		return v
	}
	pieces := []string{"a", `"`, `\`, "<&>", "\x00", "\x1f", "\u2028", "é", "\xff", "{}", " "}
	str := func() string {
		var sb strings.Builder
		for n := next() % 6; n > 0; n-- {
			if c := next(); c < 200 {
				sb.WriteString(pieces[int(c)%len(pieces)])
			} else {
				sb.WriteByte(next())
			}
		}
		return sb.String()
	}
	specials := []float64{0, math.Copysign(0, -1), 1e-6, -1e-6, 1e21, -1e21, 9.999999999999999e-7,
		9.999999999999999e20, 1e-9, 1.5, math.MaxFloat64, -math.MaxFloat64, math.SmallestNonzeroFloat64,
		math.NaN(), math.Inf(1)}
	float := func() float64 {
		if k := int(next() % 40); k < len(specials) {
			return specials[k]
		}
		return math.Float64frombits(u64())
	}
	res := tsdb.Result{Metric: str(), Tier: str(), Step: int(int8(next())), From: int64(u64()), To: int64(u64())}
	if n := int(next() % 4); n > 0 || next()%2 == 0 {
		res.Series = make([]tsdb.SeriesResult, n)
	}
	for i := range res.Series {
		s := &res.Series[i]
		s.Name = str()
		if n := int(next() % 4); n > 0 || next()%2 == 0 {
			s.Labels = make(map[string]string, n)
			for ; n > 0; n-- {
				s.Labels[str()] = str()
			}
		}
		if n := int(next() % 5); n > 0 || next()%2 == 0 {
			s.Points = make([]tsdb.Point, n)
			for j := range s.Points {
				s.Points[j] = tsdb.Point{Cycle: int64(u64()), Value: float()}
			}
		}
		if n := int(next() % 3); n > 0 || next()%2 == 0 {
			s.Buckets = make([]tsdb.Bucket, n)
			for j := range s.Buckets {
				s.Buckets[j] = tsdb.Bucket{Start: int64(u64()), Count: u64(), Sum: float(), Min: float(), Max: float(), Last: float()}
			}
		}
		switch next() % 3 {
		case 1:
			s.Dropped = uint64(next() % 4)
		case 2:
			s.Dropped = u64()
		}
	}
	return res
}

// TestResultBodyRefusesNonFinite requires a NaN or an infinity anywhere in
// an answer to reach marshalBody's error, which the handler serves as a 500.
func TestResultBodyRefusesNonFinite(t *testing.T) {
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for _, s := range []tsdb.SeriesResult{
			{Name: "p", Points: []tsdb.Point{{Value: 1}, {Value: v}}},
			{Name: "b", Buckets: []tsdb.Bucket{{Sum: 1, Min: 1, Max: 1, Last: v}}},
		} {
			if _, err := resultBody(tsdb.Result{Metric: "m", Tier: tsdb.TierRaw, Series: []tsdb.SeriesResult{s}}); err == nil {
				t.Errorf("%s series holding %v rendered without an error", s.Name, v)
			}
		}
	}
}
