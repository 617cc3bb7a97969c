package tsdb

import (
	"fmt"
	"testing"
)

// BenchmarkTSDBAppendQuery measures the serve commit pattern: a batch of
// appends across a realistic series fan-out, one publish, and a range query
// against the fresh view.
func BenchmarkTSDBAppendQuery(b *testing.B) {
	labels := make([]Labels, 8)
	for i := range labels {
		labels[i] = Labels{{Key: "proto", Value: fmt.Sprintf("p%d", i)}}
	}
	db := New(Options{RawCapacity: 1024})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := int64(i)
		db.Append(c, "serve.trend.attack_events", nil, float64(i))
		for _, lb := range labels {
			db.Append(c, "serve.exposure.targets", lb, float64(i))
			db.Append(c, "serve.exposure.responded", lb, float64(i/2))
		}
		db.Publish()
		res := db.View().Query(Query{Metric: "serve.exposure.targets", From: c - 64, To: -1})
		if len(res.Series) != len(labels) {
			b.Fatalf("query matched %d series", len(res.Series))
		}
	}
}

// BenchmarkViewWalk measures the allocation-free read path over a full ring.
// Spine row it breaks down: serve_scrape api.ts_range.p50_ms.
func BenchmarkViewWalk(b *testing.B) {
	db := New(Options{RawCapacity: 1024})
	for c := int64(0); c < 2048; c++ {
		db.Append(c, "m", nil, float64(c))
	}
	db.Publish()
	s := db.View().Lookup("m")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var sum float64
		s.Walk(func(p Point) bool { sum += p.Value; return true })
		if sum == 0 {
			b.Fatal("empty walk")
		}
	}
}
