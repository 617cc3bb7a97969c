package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"openhire/internal/checkpoint"
	"openhire/internal/checkpoint/wire"
	"openhire/internal/core/correlate"
	"openhire/internal/netsim"
	"openhire/internal/obs"
)

// testConfig is the small-world daemon config the tests share: a /24
// population, fractional attack intensity and telescope scale, and a scan
// cadence that leaves a sweep in flight across cycle boundaries.
func testConfig(workers int) Config {
	return Config{
		Seed:             11,
		Prefix:           netsim.MustParsePrefix("100.0.0.0/24"),
		Boost:            16,
		Workers:          workers,
		Intensity:        0.002,
		Scale:            0.0002,
		SegmentsPerCycle: 2,
		SegmentTargets:   64,
	}
}

// collect runs a fresh loop for cycles cycles and returns every published
// snapshot keyed by its watermark cycle.
func collect(t *testing.T, cfg Config, cycles int) map[int]*Published {
	t.Helper()
	snaps := make(map[int]*Published)
	cfg.OnPublish = func(s *Published) { snaps[s.Watermark.Cycle] = s }
	l := New(cfg)
	if err := l.Run(context.Background(), cycles); err != nil {
		t.Fatal(err)
	}
	return snaps
}

// scrubOps drops the status body's wall-clock ops block, leaving only the
// deterministic fields (sorted-key re-marshal) for byte comparison.
func scrubOps(t *testing.T, body []byte) []byte {
	t.Helper()
	var m map[string]json.RawMessage
	if err := json.Unmarshal(body, &m); err != nil {
		t.Fatalf("status body: %v", err)
	}
	delete(m, "ops")
	out, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// sameSnapshot asserts every endpoint body matches between two snapshots
// (status bodies compared with the wall-clock ops block scrubbed).
func sameSnapshot(t *testing.T, label string, want, got *Published) {
	t.Helper()
	if got == nil || want == nil {
		t.Fatalf("%s: missing snapshot (want %v, got %v)", label, want != nil, got != nil)
	}
	for _, b := range []struct {
		name      string
		want, got []byte
	}{
		{"exposure", want.Exposure, got.Exposure},
		{"trends", want.Trends, got.Trends},
		{"correlate", want.Correlate, got.Correlate},
		{"status", scrubOps(t, want.Status), scrubOps(t, got.Status)},
	} {
		if !bytes.Equal(b.want, b.got) {
			t.Errorf("%s: /api/%s bodies differ:\n want: %s\n got:  %s", label, b.name, b.want, b.got)
		}
	}
}

// TestSnapshotsWorkerCountIndependent asserts every published snapshot — not
// just the final one — is byte-identical across worker counts: the aggregates
// fold canonical (order-normalized) leg outputs on the single-threaded cycle
// driver, so scheduling never leaks into the API.
func TestSnapshotsWorkerCountIndependent(t *testing.T) {
	const cycles = 3
	golden := collect(t, testConfig(9), cycles)
	if len(golden) != cycles {
		t.Fatalf("published %d snapshots, want %d", len(golden), cycles)
	}
	for _, workers := range []int{1, 7} {
		snaps := collect(t, testConfig(workers), cycles)
		for c := 1; c <= cycles; c++ {
			sameSnapshot(t, fmt.Sprintf("workers=%d cycle=%d", workers, c), golden[c], snaps[c])
		}
	}
}

// TestSweepCompletionFolds drives enough segments per cycle for whole sweeps
// to finish, and asserts the exposure table actually rolls over: completed
// sweeps accumulate into the totals and the misconfiguration classifier sees
// real responders (the /24 at boost 16 exposes a few hundred endpoints).
func TestSweepCompletionFolds(t *testing.T) {
	cfg := testConfig(9)
	cfg.SegmentsPerCycle = 10000 // a whole sweep per cycle
	cfg.SegmentTargets = 512
	var last *Published
	cfg.OnPublish = func(s *Published) { last = s }
	l := New(cfg)
	if err := l.Run(context.Background(), 2); err != nil {
		t.Fatal(err)
	}
	if last.Watermark.SweepsComplete != 2 {
		t.Fatalf("sweeps complete = %d, want 2", last.Watermark.SweepsComplete)
	}
	if l.agg.Exposure.Total == nil || l.agg.Exposure.Complete == nil {
		t.Fatal("no exposure tables after two complete sweeps")
	}
	var misconfigured, responded uint64
	for _, e := range l.agg.Exposure.Total {
		misconfigured += e.Misconfigured
		responded += e.Responded
	}
	if responded == 0 || misconfigured == 0 {
		t.Fatalf("total exposure: responded=%d misconfigured=%d, want both > 0", responded, misconfigured)
	}
	if got := l.agg.Correlation().Misconfigured; got == 0 {
		t.Fatal("no misconfigured devices in the correlation set after a full sweep")
	}
}

// TestKillResumeSnapshots asserts a checkpointed daemon killed between cycles
// and restored by a fresh Loop publishes byte-identical snapshots: the
// restored position's immediate re-publish matches the killed run's last
// commit, and the continued cycles match an uninterrupted golden run — and,
// in both runs, the reference render, so the restored Aggregates' first
// publish (its join counted from scratch, its trend rows rendered anew) is
// checked on its own as well as every later one. Each
// kill also pins what the checkpoint holds — leg positions and aggregates, no
// honeypot log — and the one twelve days into a month resumes onto the
// golden digest.
func TestKillResumeSnapshots(t *testing.T) {
	for _, tc := range []struct{ kill, total int }{{2, 3}, {12, 29}} {
		t.Run(fmt.Sprintf("kill@%d", tc.kill), func(t *testing.T) {
			testKillResume(t, tc.kill, tc.total)
		})
	}
}

func testKillResume(t *testing.T, kill, total int) {
	golden := make(map[int]*Published)
	ucfg := testConfig(9)
	ucfg.OnPublish = func(s *Published) { golden[s.Watermark.Cycle] = s }
	uninterrupted := withReference(t, New(ucfg))
	if err := uninterrupted.Run(context.Background(), total); err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	cfg := testConfig(9)
	cfg.CheckpointDir = dir
	first := New(cfg)
	if err := first.Run(context.Background(), kill); err != nil {
		t.Fatal(err)
	}

	// What the checkpoint holds: the members that grow with the run are
	// named; the rest is scheduler position and bookkeeping, so a log riding
	// along under any name trips the bound.
	payload, _, err := checkpoint.LoadPayload(dir, "serve", cfg.Seed)
	if err != nil {
		t.Fatal(err)
	}
	_, members, err := DecodeCheckpoint(payload)
	if err != nil {
		t.Fatal(err)
	}
	rest := 0
	for _, m := range members {
		switch m.Name {
		case "scan", "agg", "tsdb", "checkpoints":
		case "events":
			t.Error("serve.ckpt carries an events member: the honeypot log is back in the checkpoint")
		default:
			rest += m.Bytes
		}
	}
	if rest >= 1024 {
		t.Errorf("serve.ckpt outside scan/agg/tsdb/checkpoints is %d bytes, want < 1024", rest)
	}

	// A different worker count after the "kill" — resume must not care.
	cfg = testConfig(4)
	cfg.CheckpointDir = dir
	snaps := make(map[int]*Published)
	cfg.OnPublish = func(s *Published) { snaps[s.Watermark.Cycle] = s }
	second := withReference(t, New(cfg))
	found, err := second.Restore()
	if err != nil {
		t.Fatal(err)
	}
	if !found {
		t.Fatal("Restore found no checkpoint")
	}
	if second.Cycle() != kill {
		t.Fatalf("restored at cycle %d, want %d", second.Cycle(), kill)
	}
	sameSnapshot(t, "restored re-publish", golden[kill], snaps[kill])
	if err := second.Run(context.Background(), total); err != nil {
		t.Fatal(err)
	}
	for c := kill + 1; c <= total; c++ {
		sameSnapshot(t, fmt.Sprintf("resumed cycle %d", c), golden[c], snaps[c])
	}

	aggJSON, err := second.AggregatesJSON()
	if err != nil {
		t.Fatal(err)
	}
	wantJSON, err := uninterrupted.AggregatesJSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(aggJSON, wantJSON) {
		t.Errorf("resumed AggregatesJSON differs from uninterrupted run")
	}
	if want, ok := goldenAggregates[total]; ok {
		if got := aggregatesDigest(t, second); got != want {
			t.Errorf("resumed run at cycle %d diverged from golden:\n got %s\nwant %s", total, got, want)
		}
	}

	// The sim time-series state is part of the determinism contract too: the
	// resumed observatory must land on the uninterrupted run's exact bytes.
	gotTS, err := second.Observatory().Sim.MarshalState()
	if err != nil {
		t.Fatal(err)
	}
	wantTS, err := uninterrupted.Observatory().Sim.MarshalState()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotTS, wantTS) {
		t.Errorf("resumed sim tsdb state differs from uninterrupted run:\n want: %s\n got:  %s", wantTS, gotTS)
	}
}

// TestAPIBeforeFirstCommit asserts every /api endpoint answers 503 until a
// cycle commits.
func TestAPIBeforeFirstCommit(t *testing.T) {
	l := New(testConfig(1))
	addr, closer, err := obs.StartServer("127.0.0.1:0", NewMux(l.Publisher(), nil, l.Observatory()))
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = closer() }()
	for _, ep := range []string{"/api/exposure", "/api/trends", "/api/correlate", "/api/status", "/api/timeseries"} {
		resp, err := http.Get("http://" + addr + ep)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Errorf("%s before first commit: status %d, want 503", ep, resp.StatusCode)
		}
	}
}

// TestAPIWriteDeadline holds a client that asks for /api/trends and never
// reads: the handler must give up, and the connection close, within the
// write deadline instead of pinning the snapshot for as long as the client
// stays. On a keep-alive connection the deadline must not outlive its
// answer: a pprof request, which has none, follows an /api one.
func TestAPIWriteDeadline(t *testing.T) {
	defer func(d time.Duration) { apiWriteTimeout = d }(apiWriteTimeout)
	apiWriteTimeout = 200 * time.Millisecond
	trends := bytes.Repeat([]byte("x"), 16<<20) // far more than the socket buffers hold
	var p Publisher
	p.Publish(&Published{Trends: trends, Status: []byte("{}\n")})
	obsv := newObservatory(Config{})
	addr, closer, err := obs.StartServer("127.0.0.1:0", NewMux(&p, nil, obsv))
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = closer() }()

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	start := time.Now()
	if _, err := io.WriteString(conn, "GET /api/trends HTTP/1.1\r\nHost: openhire\r\n\r\n"); err != nil {
		t.Fatal(err)
	}
	// The observatory counts a request when its handler returns.
	for obsv.apiReqs.Load() == 0 {
		if time.Since(start) > apiWriteTimeout+5*time.Second {
			t.Fatalf("the handler is still writing to a client that does not read, %v after the request", time.Since(start))
		}
		time.Sleep(10 * time.Millisecond)
	}
	// The client finds what the kernel had buffered, then the end of the
	// connection, far short of the body.
	if err := conn.SetReadDeadline(time.Now().Add(5 * time.Second)); err != nil {
		t.Fatal(err)
	}
	n, err := io.Copy(io.Discard, conn)
	if ne, ok := err.(net.Error); ok && ne.Timeout() {
		t.Fatalf("the connection is still open after the handler gave up (%d bytes read)", n)
	}
	if n >= int64(len(trends)) {
		t.Fatalf("the client read %d bytes, the whole body: no deadline cut the answer", n)
	}

	keep, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer keep.Close()
	br := bufio.NewReader(keep)
	for i, path := range []string{"/api/status", "/debug/pprof/cmdline"} {
		if i > 0 {
			time.Sleep(2 * apiWriteTimeout)
		}
		if _, err := fmt.Fprintf(keep, "GET %s HTTP/1.1\r\nHost: openhire\r\n\r\n", path); err != nil {
			t.Fatal(err)
		}
		resp, err := http.ReadResponse(br, nil)
		if err != nil {
			t.Fatalf("%s on the kept-alive connection: %v", path, err)
		}
		_, err = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("%s on the kept-alive connection: status %d, %v", path, resp.StatusCode, err)
		}
	}
}

// TestConcurrentScrapeZeroPerturbation hammers every query endpoint from
// concurrent scrapers while the cycle loop runs, and asserts (a) every
// response is a complete JSON body from some committed watermark, and (b) the
// final aggregates are byte-identical to an unobserved run — the scrape load
// cannot perturb the measurement. Run under -race this also proves the
// publisher handoff is race-free.
func TestConcurrentScrapeZeroPerturbation(t *testing.T) {
	const cycles = 3
	bare := New(testConfig(9))
	if err := bare.Run(context.Background(), cycles); err != nil {
		t.Fatal(err)
	}
	want, err := bare.AggregatesJSON()
	if err != nil {
		t.Fatal(err)
	}

	cfg := testConfig(9)
	cfg.Registry = obs.NewRegistry()
	l := New(cfg)
	addr, closer, err := obs.StartServer("127.0.0.1:0", NewMux(l.Publisher(), cfg.Registry, l.Observatory()))
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = closer() }()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	endpoints := []string{"/api/exposure", "/api/trends", "/api/correlate", "/api/status",
		"/api/timeseries", "/api/timeseries?metric=serve.trend.attack_events",
		"/metrics", "/metrics?format=prom"}
	errCh := make(chan error, len(endpoints))
	for _, ep := range endpoints {
		wg.Add(1)
		go func(ep string) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := http.Get("http://" + addr + ep)
				if err != nil {
					errCh <- err
					return
				}
				body, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil {
					errCh <- err
					return
				}
				if resp.StatusCode == http.StatusServiceUnavailable {
					continue
				}
				if resp.StatusCode != http.StatusOK {
					errCh <- fmt.Errorf("%s: status %d", ep, resp.StatusCode)
					return
				}
				// API bodies are newline-terminated by construction; a
				// missing terminator means a torn read. The registry may
				// legitimately serve an empty prom body before any gauge
				// is set.
				if strings.HasPrefix(ep, "/api/") && (len(body) == 0 || body[len(body)-1] != '\n') {
					errCh <- fmt.Errorf("%s: truncated body (%d bytes)", ep, len(body))
					return
				}
			}
		}(ep)
	}
	runErr := l.Run(context.Background(), cycles)
	close(stop)
	wg.Wait()
	close(errCh)
	if runErr != nil {
		t.Fatal(runErr)
	}
	for err := range errCh {
		t.Error(err)
	}

	got, err := l.AggregatesJSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want, got) {
		t.Errorf("scraped run's aggregates differ from unobserved run")
	}
}

// TestIPSetRoundTrip asserts the correlation sets' deterministic marshal form
// and that an emptied set survives a checkpoint round trip as nil (checkpoint
// byte-identity for fresh vs restored-empty state).
func TestIPSetRoundTrip(t *testing.T) {
	var s correlate.IPSet
	s.Add(netsim.MustParseIPv4("10.0.0.2"))
	s.Add(netsim.MustParseIPv4("10.0.0.1"))
	data, err := s.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprintf("[%d,%d]", uint32(netsim.MustParseIPv4("10.0.0.1")), uint32(netsim.MustParseIPv4("10.0.0.2")))
	if string(data) != want {
		t.Fatalf("marshal = %s, want %s", data, want)
	}
	back := correlate.ReadIPSet(wire.NewReader(correlate.IPSet{}.AppendBinary(nil)))
	if back != nil {
		t.Fatal("empty set did not round-trip to nil")
	}
}
