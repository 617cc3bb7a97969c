package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math/rand"
	"net/http"
	"sync"
	"time"

	"openhire/internal/obs/tsdb"
	"openhire/internal/serve"
)

// endpoint is one URL of the scrape mix with the class its latency is
// reported under.
type endpoint struct {
	path  string
	class string
}

// scrapeMix is the fixed set a scraper walks round-robin, in an order the
// seed shuffles. The three snapshot endpoints and /api/trends serve
// pre-rendered bodies; the four timeseries queries are the only handlers
// that compute and marshal per request.
var scrapeMix = []endpoint{
	{"/api/status", "snapshot_small"},
	{"/api/exposure", "snapshot_small"},
	{"/api/correlate", "snapshot_small"},
	{"/api/trends", "trends"},
	{"/api/timeseries", "ts_catalog"},
	{"/api/timeseries?metric=serve.exposure.misconfigured", "ts_range"},
	{"/api/timeseries?metric=serve.telescope.hourly_packets&tier=rollup", "ts_rollup"},
	{"/api/timeseries?metric=serve.trend.attack_events&format=prom", "ts_prom"},
}

var scrapeClasses = []string{"snapshot_small", "trends", "ts_catalog", "ts_range", "ts_rollup", "ts_prom"}

// scraper is one client on one keep-alive connection running a paced closed
// loop: it sends the next request when the previous reply has arrived and
// its slot on the schedule has come, whichever is later. Latency is timed
// from the send; how far behind the schedule each send ran is kept too.
//
// The workload's operation is a round, one walk over the whole mix, and its
// latency the sum of the round's request latencies (what a dashboard refresh
// waits for, pacing gaps excluded). The median over single requests would sit
// on the boundary between two endpoint classes of different cost and jump
// with the smallest shift; the median round does not.
type scraper struct {
	base     string
	stamp    func(time.Duration) sample
	interval time.Duration
	mix      []endpoint
	client   *http.Client

	stopCh   chan struct{}
	stopOnce sync.Once
	doneCh   chan struct{}

	// Written by the scraping goroutine, read after stop.
	rounds      []sample             // every completed round's latency
	all         []float64            // every request's latency, ms
	byClass     map[string][]float64 // the same in ms, by endpoint class
	late        []float64            // send time behind schedule, ms
	failed      int
	backwards   int // /api/status watermarks lower than one seen before
	lastCycle   int
	trendsBytes int
}

// scrapeRate is the paced request rate per second.
const scrapeRate = 400

// startScraper starts the loop; stamp marks each latency with the window
// block it fell in.
func startScraper(base string, seed uint64, stamp func(time.Duration) sample) *scraper {
	mix := append([]endpoint(nil), scrapeMix...)
	rand.New(rand.NewSource(int64(seed))).Shuffle(len(mix), func(i, j int) { mix[i], mix[j] = mix[j], mix[i] })
	s := &scraper{
		base:     base,
		stamp:    stamp,
		interval: time.Second / scrapeRate,
		mix:      mix,
		client:   &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}, Timeout: 10 * time.Second},
		stopCh:   make(chan struct{}),
		doneCh:   make(chan struct{}),
		byClass:  make(map[string][]float64),
	}
	go s.loop()
	return s
}

// stop ends the loop and returns once the goroutine has exited and the
// connection is closed.
func (s *scraper) stop() {
	s.stopOnce.Do(func() { close(s.stopCh) })
	<-s.doneCh
	s.client.CloseIdleConnections()
}

func (s *scraper) loop() {
	defer close(s.doneCh)
	due := time.Now()
	timer := time.NewTimer(0)
	defer timer.Stop()
	var round time.Duration
	for i := 0; ; i++ {
		select {
		case <-s.stopCh:
			return
		case <-timer.C:
		}
		now := time.Now()
		s.late = append(s.late, ms(now.Sub(due).Nanoseconds()))
		round += s.request(s.mix[i%len(s.mix)])
		if i%len(s.mix) == len(s.mix)-1 {
			s.rounds = append(s.rounds, s.stamp(round))
			round = 0
		}
		// Closed loop: a reply that took longer than its slot re-anchors the
		// schedule rather than building a backlog.
		due = due.Add(s.interval)
		if now = time.Now(); due.Before(now) {
			due = now
		}
		timer.Reset(due.Sub(now))
	}
}

// request sends one request, checks the reply and returns its latency.
func (s *scraper) request(ep endpoint) time.Duration {
	start := time.Now()
	resp, err := s.client.Get(s.base + ep.path)
	var body []byte
	if err == nil {
		body, err = io.ReadAll(resp.Body)
		_ = resp.Body.Close()
	}
	took := time.Since(start)
	s.all = append(s.all, ms(took.Nanoseconds()))
	s.byClass[ep.class] = append(s.byClass[ep.class], ms(took.Nanoseconds()))
	if err != nil || resp.StatusCode != http.StatusOK || !parseable(ep, body) {
		s.failed++
		return took
	}
	switch ep.path {
	case "/api/trends":
		s.trendsBytes = len(body)
	case "/api/status":
		var st struct {
			Watermark struct {
				Cycle int `json:"cycle"`
			} `json:"watermark"`
		}
		if json.Unmarshal(body, &st) != nil {
			s.failed++
			return took
		}
		if st.Watermark.Cycle < s.lastCycle {
			s.backwards++
		}
		s.lastCycle = st.Watermark.Cycle
	}
	return took
}

// parseable checks a body is what its endpoint promises: JSON, or for the
// Prometheus range text, non-empty lines of at least a name and a value.
func parseable(ep endpoint, body []byte) bool {
	if ep.class != "ts_prom" {
		return json.Valid(body)
	}
	lines := bytes.Split(bytes.TrimSpace(body), []byte("\n"))
	for _, line := range lines {
		if len(line) == 0 || (line[0] != '#' && len(bytes.Fields(line)) < 2) {
			return false
		}
	}
	return len(lines) > 0
}

// checks counts every request as attempted and the bad ones as failed.
func (s *scraper) checks(r *run) {
	r.attempted += len(s.all)
	r.failed += s.failed
	r.check(s.backwards == 0, "/api/status watermark went backwards %d times", s.backwards)
	r.check(len(s.rounds) > 0, "the scraper completed no round of its %d endpoints", len(s.mix))
}

func (s *scraper) layers(r *run, loop *serve.Loop) {
	r.set("api.p50_ms", median(s.all))
	r.set("api.p99_ms", percentile(s.all, 99))
	for _, class := range scrapeClasses {
		r.set("api."+class+".p50_ms", median(s.byClass[class]))
		r.set("api."+class+".p99_ms", percentile(s.byClass[class], 99))
	}
	r.set("api.trends.bytes", float64(s.trendsBytes))
	r.set("api.requests", float64(len(s.all)))
	r.set("api.failed", float64(s.failed))
	r.set("api.pacer_late_ms_p99", percentile(s.late, 99))
	o := loop.Observatory()
	r.set("api.server_mean_us", ratio(lastWallValue(o, "serve.api.latency_sum_ns")/1e3, lastWallValue(o, "serve.api.requests")))
}

// lastWallValue reads the newest point of a wall-stream series.
func lastWallValue(o *serve.Observatory, metric string) float64 {
	res := o.Wall.View().Query(tsdb.Query{Metric: metric, To: -1})
	if len(res.Series) == 0 || len(res.Series[0].Points) == 0 {
		return 0
	}
	pts := res.Series[0].Points
	return pts[len(pts)-1].Value
}
