package tsdb

import (
	"bytes"
	"fmt"
	"io"
	"net/url"
	"reflect"
	"sort"
	"strconv"
	"sync"
	"testing"

	"openhire/internal/obs"
)

// TestAppendQueryRaw covers the basic append→publish→query path.
func TestAppendQueryRaw(t *testing.T) {
	db := New(Options{})
	for c := int64(0); c < 10; c++ {
		db.Append(c, "m", nil, float64(c*2))
		db.Append(c, "m", Labels{{Key: "proto", Value: "telnet"}}, float64(c))
	}
	db.Publish()
	v := db.View()
	if v.LastCycle != 9 {
		t.Fatalf("LastCycle = %d, want 9", v.LastCycle)
	}
	res := v.Query(Query{Metric: "m", From: 3, To: 5})
	if len(res.Series) != 2 {
		t.Fatalf("matched %d series, want 2", len(res.Series))
	}
	// Sorted by canonical key: "m" before "m{proto=telnet}".
	if got := res.Series[0].Points; len(got) != 3 || got[0] != (Point{3, 6}) || got[2] != (Point{5, 10}) {
		t.Errorf("unlabeled points = %v", got)
	}
	sel := v.Query(Query{Metric: "m", Match: Labels{{Key: "proto", Value: "telnet"}}, From: 0, To: -1})
	if len(sel.Series) != 1 || len(sel.Series[0].Points) != 10 {
		t.Errorf("label-selected query matched %v", sel.Series)
	}
	if none := v.Query(Query{Metric: "m", Match: Labels{{Key: "proto", Value: "ssh"}}, From: 0, To: -1}); len(none.Series) != 0 {
		t.Errorf("mismatched label still returned %d series", len(none.Series))
	}
}

// TestRingEviction fills a series past its raw capacity and asserts the ring
// drops whole oldest chunks while retention stays in
// [RawCapacity, RawCapacity+chunkSize), with Dropped reconciling exactly.
func TestRingEviction(t *testing.T) {
	opt := Options{RawCapacity: 300, RollupEvery: 30, RollupCapacity: 10}
	db := New(opt)
	const total = 1000
	for c := int64(0); c < total; c++ {
		db.Append(c, "m", nil, float64(c))
	}
	db.Publish()
	s := db.View().Lookup("m")
	if s == nil {
		t.Fatal("series not published")
	}
	if s.Len() < opt.RawCapacity || s.Len() >= opt.RawCapacity+chunkSize {
		t.Errorf("retained %d raw points, want [%d, %d)", s.Len(), opt.RawCapacity, opt.RawCapacity+chunkSize)
	}
	if got := s.Dropped + uint64(s.Len()); got != total {
		t.Errorf("dropped(%d) + retained(%d) = %d, want %d", s.Dropped, s.Len(), got, total)
	}
	if first := s.FirstCycle(); first != int64(s.Dropped) {
		t.Errorf("first retained cycle = %d, want %d (contiguous eviction)", first, s.Dropped)
	}
	if last := s.LastCycle(); last != total-1 {
		t.Errorf("last retained cycle = %d, want %d", last, total-1)
	}
}

// TestRollupReconciliation asserts every completed rollup bucket reconciles
// exactly with the raw points that fell inside its window — count, sum, min,
// max and last — including windows whose raw points were since evicted.
func TestRollupReconciliation(t *testing.T) {
	opt := Options{RawCapacity: 4096, RollupEvery: 30, RollupCapacity: 360}
	db := New(opt)
	const total = 95 // 3 complete windows + a partial
	vals := make([]float64, total)
	for c := int64(0); c < total; c++ {
		v := float64((c*2654435761)%1000) - 500 // deterministic, sign-varying
		vals[c] = v
		db.Append(c, "m", nil, v)
	}
	db.Publish()
	s := db.View().Lookup("m")
	if want := total/30 + 1; len(s.Rollups) != want {
		t.Fatalf("%d rollup buckets, want %d", len(s.Rollups), want)
	}
	for i, b := range s.Rollups {
		var want Bucket
		want.Start = int64(i * 30)
		for c := want.Start; c < want.Start+30 && c < total; c++ {
			want.fold(vals[c])
		}
		if b != want {
			t.Errorf("bucket %d = %+v, want %+v", i, b, want)
		}
	}
}

// TestStateRoundTrip asserts State → LoadState → State is byte-identical,
// including a series with evicted chunks and an in-progress rollup bucket —
// the identity the serve restore path relies on to rewrite torn files.
func TestStateRoundTrip(t *testing.T) {
	db := New(Options{RawCapacity: 300, RollupEvery: 30, RollupCapacity: 8})
	for c := int64(0); c < 700; c++ {
		db.Append(c, "a", nil, float64(c)*0.5)
		db.Append(c, "b", Labels{{Key: "k", Value: "v"}, {Key: "a", Value: "z"}}, float64(-c))
	}
	db.Append(700, "sparse", nil, 1)
	want, err := db.MarshalState()
	if err != nil {
		t.Fatal(err)
	}
	st, err := ParseState(want)
	if err != nil {
		t.Fatal(err)
	}
	back := New(db.Options())
	if err := back.LoadState(st); err != nil {
		t.Fatal(err)
	}
	got, err := back.MarshalState()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want, got) {
		t.Errorf("state round trip differs:\n want: %s\n got:  %s", want, got)
	}
	// The loaded store must keep appending seamlessly.
	back.Append(701, "a", nil, 1)
	db.Append(701, "a", nil, 1)
	w2, _ := db.MarshalState()
	g2, _ := back.MarshalState()
	if !bytes.Equal(w2, g2) {
		t.Error("states diverge after appending to a loaded store")
	}
	if err := back.LoadState(&State{RollupEvery: 7}); err == nil {
		t.Error("LoadState accepted a mismatched rollup window")
	}
}

// TestStepDownsampling asserts step>1 raw queries return aligned buckets that
// reconcile with the raw points.
func TestStepDownsampling(t *testing.T) {
	db := New(Options{})
	for c := int64(0); c < 25; c++ {
		db.Append(c, "m", nil, float64(c))
	}
	db.Publish()
	res := db.View().Query(Query{Metric: "m", From: 0, To: -1, Step: 10})
	if len(res.Series) != 1 {
		t.Fatal("no series")
	}
	bs := res.Series[0].Buckets
	if len(bs) != 3 {
		t.Fatalf("%d step buckets, want 3", len(bs))
	}
	if bs[0].Start != 0 || bs[0].Count != 10 || bs[0].Sum != 45 {
		t.Errorf("bucket 0 = %+v", bs[0])
	}
	if bs[2].Start != 20 || bs[2].Count != 5 || bs[2].Last != 24 {
		t.Errorf("bucket 2 = %+v", bs[2])
	}
}

// TestParseQuery covers the /api/timeseries parameter grammar.
func TestParseQuery(t *testing.T) {
	q, err := ParseQuery(url.Values{
		"metric": {"m"}, "label": {"proto:telnet", "hour:03"},
		"from": {"5"}, "to": {"9"}, "step": {"2"}, "tier": {"raw"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if q.Metric != "m" || q.From != 5 || q.To != 9 || q.Step != 2 || len(q.Match) != 2 {
		t.Errorf("parsed %+v", q)
	}
	for _, bad := range []url.Values{
		{"label": {"nocolon"}},
		{"from": {"x"}},
		{"step": {"0"}},
		{"tier": {"hourly"}},
	} {
		if _, err := ParseQuery(bad); err == nil {
			t.Errorf("ParseQuery(%v) accepted", bad)
		}
	}
}

// TestCatalogMerge asserts catalogs from two streams merge sorted with stream
// tags intact.
func TestCatalogMerge(t *testing.T) {
	sim := New(Options{})
	sim.Append(3, "b.metric", nil, 1)
	sim.Publish()
	wall := New(Options{})
	wall.Append(5, "a.metric", nil, 1)
	wall.Publish()
	c := sim.View().Catalog("sim").Merge(wall.View().Catalog("wall"))
	if c.LastCycle != 5 {
		t.Errorf("merged LastCycle = %d, want 5", c.LastCycle)
	}
	if len(c.Series) != 2 || c.Series[0].Name != "a.metric" || c.Series[0].Stream != "wall" ||
		c.Series[1].Name != "b.metric" || c.Series[1].Stream != "sim" {
		t.Errorf("merged series = %+v", c.Series)
	}

	// Many series, some in both streams under the same name and labels: the
	// merge must order them exactly as sorting with the labels rendered per
	// comparison did.
	for i := 0; i < 60; i++ {
		name := fmt.Sprintf("m%d", (i*7)%11)
		labels := Labels{{Key: "p", Value: fmt.Sprint(i % 5)}, {Key: "q", Value: fmt.Sprint(i % 3)}}
		sim.Append(int64(i), name, labels, 1)
		wall.Append(int64(i), name, labels[:i%2+1], 2)
	}
	sim.Publish()
	wall.Publish()
	a, b := sim.View().Catalog("sim"), wall.View().Catalog("wall")
	want := append(append([]CatalogSeries(nil), a.Series...), b.Series...)
	sort.Slice(want, func(i, j int) bool {
		if want[i].Name != want[j].Name {
			return want[i].Name < want[j].Name
		}
		return fmt.Sprint(want[i].Labels) < fmt.Sprint(want[j].Labels)
	})
	if got := a.Merge(b).Series; !reflect.DeepEqual(got, want) {
		t.Errorf("merged order differs from the per-comparison rendering:\n got %+v\nwant %+v", got, want)
	}
}

// TestWritePrometheus pins the range-export text form.
func TestWritePrometheus(t *testing.T) {
	db := New(Options{})
	db.Append(0, "serve.trend.x", Labels{{Key: "proto", Value: "telnet"}}, 1.5)
	db.Append(1, "serve.trend.x", Labels{{Key: "proto", Value: "telnet"}}, 2)
	db.Publish()
	res := db.View().Query(Query{Metric: "serve.trend.x", From: 0, To: -1})
	var buf bytes.Buffer
	if err := res.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	want := "# TYPE serve_trend_x gauge\n" +
		"serve_trend_x{proto=\"telnet\"} 1.5 0\n" +
		"serve_trend_x{proto=\"telnet\"} 2 1\n"
	if buf.String() != want {
		t.Errorf("prom export:\n%s\nwant:\n%s", buf.String(), want)
	}
}

// TestWritePrometheusEqualsFprintf requires the appending sample writer to
// render what one fmt.Fprintf per sample line rendered, over raw points and
// buckets with values that take every float form ('g' switches to an
// exponent at both ends).
func TestWritePrometheusEqualsFprintf(t *testing.T) {
	db := New(Options{RollupEvery: 4})
	values := []float64{0, -0.5, 1e-7, 123456789, 1e21, 3.25e-300, -7}
	for c := int64(0); c < 40; c++ {
		for i, proto := range []string{"telnet", "mqtt"} {
			db.Append(c, "serve.trend.x", Labels{{Key: "proto", Value: proto}}, values[(int(c)+i)%len(values)]*float64(c+1))
		}
	}
	db.Publish()
	for _, q := range []Query{
		{Metric: "serve.trend.x", To: -1, Tier: TierRaw},
		{Metric: "serve.trend.x", To: -1, Tier: TierRollup},
		{Metric: "serve.trend.x", To: -1, Tier: TierRaw, Step: 3},
	} {
		res := db.View().Query(q)
		var want bytes.Buffer
		name := obs.PromName(res.Metric)
		fmt.Fprintf(&want, "# TYPE %s gauge\n", name)
		for _, s := range res.Series {
			lbl := promLabels(s.Labels)
			for _, p := range s.Points {
				fmt.Fprintf(&want, "%s%s %s %d\n", name, lbl, strconv.FormatFloat(p.Value, 'g', -1, 64), p.Cycle)
			}
			for _, b := range s.Buckets {
				fmt.Fprintf(&want, "%s%s %s %d\n", name, lbl, strconv.FormatFloat(b.Sum, 'g', -1, 64), b.Start)
			}
		}
		var got bytes.Buffer
		if err := res.WritePrometheus(&got); err != nil {
			t.Fatal(err)
		}
		if len(res.Series) != 2 {
			t.Fatalf("%+v: matched %d series, want 2", q, len(res.Series))
		}
		if got.String() != want.String() {
			t.Fatalf("%+v: prom export differs from the Fprintf rendering:\n got %q\nwant %q", q, got.String(), want.String())
		}
	}
}

// TestConcurrentReadersCOW hammers published views from reader goroutines
// while the writer appends, publishes and evicts. Under -race this proves the
// copy-on-write discipline: sealed chunks are never mutated after
// publication, and view swaps are atomic.
func TestConcurrentReadersCOW(t *testing.T) {
	db := New(Options{RawCapacity: 256})
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				v := db.View()
				for _, s := range v.Series() {
					last := int64(-1)
					s.Walk(func(p Point) bool {
						if p.Cycle <= last {
							t.Errorf("out-of-order walk: %d after %d", p.Cycle, last)
							return false
						}
						last = p.Cycle
						return true
					})
				}
				v.Query(Query{Metric: "m", From: 0, To: -1, Step: 16})
			}
		}()
	}
	for c := int64(0); c < 3000; c++ {
		db.Append(c, "m", nil, float64(c))
		db.Append(c, "n", Labels{{Key: "i", Value: fmt.Sprint(c % 3)}}, float64(-c))
		if c%7 == 0 {
			db.Publish()
		}
	}
	db.Publish()
	close(stop)
	wg.Wait()
}

// TestNilSafety asserts the nil-receiver conventions the serve loop leans on.
func TestNilSafety(t *testing.T) {
	var db *DB
	db.Append(1, "m", nil, 1) // must not panic
	db.Publish()
	if v := db.View(); v != nil {
		t.Error("nil DB returned a view")
	}
	var v *View
	if res := v.Query(Query{Metric: "m"}); len(res.Series) != 0 {
		t.Error("nil view returned series")
	}
	if c := v.Catalog("sim"); len(c.Series) != 0 {
		t.Error("nil view returned catalog series")
	}
}

// FuzzParseQuery feeds arbitrary /api/timeseries query strings through
// ParseQuery and, when accepted, through a query on a small fixed view: no
// input may panic either, an accepted query names a real tier and a
// non-negative step, and every raw point answered lies inside the resolved
// [From, To] window.
func FuzzParseQuery(f *testing.F) {
	db := New(Options{RawCapacity: 40, RollupEvery: 7, RollupCapacity: 4})
	for c := int64(0); c < 150; c++ {
		db.Append(c, "m", nil, float64(c))
		db.Append(c, "m", Labels{{Key: "proto", Value: fmt.Sprint(c % 3)}}, float64(-c))
		if c%5 == 0 {
			db.Append(c, "sparse", nil, 1)
		}
	}
	db.Publish()
	view := db.View()
	for _, seed := range []string{
		"", "metric=m", "metric=m&from=100&to=120", "metric=m&step=4&tier=raw",
		"metric=m&tier=rollup&from=0&to=-1", "metric=m&label=proto:1&from=-5",
		"metric=sparse&step=9223372036854775807", "metric=m&to=-9223372036854775808",
		"metric=m&label=nocolon", "metric=m&tier=hourly", "from=x", "step=0",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, raw string) {
		values, _ := url.ParseQuery(raw) // what (*url.URL).Query hands the handler
		q, err := ParseQuery(values)
		if err != nil {
			return
		}
		if q.Tier != TierRaw && q.Tier != TierRollup {
			t.Fatalf("%q: accepted tier %q", raw, q.Tier)
		}
		if q.Step < 0 {
			t.Fatalf("%q: accepted step %d", raw, q.Step)
		}
		res := view.Query(q)
		for _, s := range res.Series {
			for _, p := range s.Points {
				if p.Cycle < res.From || p.Cycle > res.To {
					t.Fatalf("%q: point at cycle %d outside [%d, %d]", raw, p.Cycle, res.From, res.To)
				}
			}
		}
		if err := res.WritePrometheus(io.Discard); err != nil {
			t.Fatal(err)
		}
	})
}
