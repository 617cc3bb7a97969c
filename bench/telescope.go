package main

import (
	"bufio"
	"errors"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"time"

	"openhire/internal/attack"
	"openhire/internal/geo"
	"openhire/internal/iot"
	"openhire/internal/netsim"
	"openhire/internal/telescope"
)

// captureDays bounds how many days one generator can be asked for; the
// window stops on the clock long before.
const captureDays = 365

// paperPacketsPerSecond is the paper's telescope rate: ~2.7 B requests/day.
const paperPacketsPerSecond = 2.7e9 / 86400

// capture is one telescope with its darknet generator and capture file.
type capture struct {
	tel  *telescope.Telescope
	gen  *attack.DarknetGenerator
	path string
	next int // next day to generate
}

// dayResult is what one captured day produced, kept for the checks that run
// once the day's clock has stopped.
type dayResult struct {
	day       int
	generated int
	flows     []*telescope.FlowTuple
	hours     [][]*telescope.FlowTuple
	table     []telescope.ProtocolStats
	parsed    []*telescope.FlowTuple
}

func newCapture(r *run) (*capture, error) {
	dir, err := r.tempDir("telescope-")
	if err != nil {
		return nil, err
	}
	universe := iot.NewUniverse(iot.UniverseConfig{Seed: r.cfg.seed, Prefix: r.cfg.prefix, DensityBoost: 16})
	geodb := geo.NewDB(r.cfg.seed, nil)
	tel := telescope.New(netsim.MustParsePrefix("44.0.0.0/8"), geodb)
	gen := attack.NewDarknetGenerator(attack.DarknetConfig{
		Seed:      r.cfg.seed,
		Telescope: tel,
		Sources:   attack.NewSources(r.cfg.seed, universe, nil, nil),
		GeoDB:     geodb,
		Scale:     r.cfg.captureScale,
		Days:      captureDays,
		Workers:   128,
	})
	return &capture{tel: tel, gen: gen, path: filepath.Join(dir, "day.ft4")}, nil
}

// day runs the whole pipeline for the next day: generate into the telescope,
// drain it, partition by hour, aggregate by protocol, encode every flow to
// the capture file and parse the file back.
func (c *capture) day(r *run, unit int) (dayResult, error) {
	tr := r.tr
	res := dayResult{day: c.next}
	c.next++
	if res.day >= captureDays {
		return res, errors.New("telescope_capture ran out of configured days")
	}
	root := tr.begin("telescope.day", -1, unit)
	defer tr.end(root)

	tr.in("darknet.gen", root, unit, func() { res.generated = c.gen.RunDay(res.day) })
	tr.in("telescope.drain", root, unit, func() { res.flows = c.tel.Drain() })
	tr.in("telescope.partition", root, unit, func() {
		res.hours = telescope.PartitionByHour(res.flows, attack.DayStart(res.day), 24)
	})
	tr.in("telescope.aggregate", root, unit, func() { res.table = telescope.AggregateByProtocol(res.flows) })
	var err error
	tr.in("telescope.encode", root, unit, func() { err = writeFlows(c.path, res.flows) })
	if err != nil {
		return res, err
	}
	tr.in("telescope.parse", root, unit, func() { res.parsed, err = readFlows(c.path, len(res.flows)) })
	return res, err
}

// verify checks a day's parsed side against its in-memory side and returns
// the day's packet count and capture file size.
func (c *capture) verify(r *run, d dayResult) (packets uint64, fileBytes int64) {
	inHours := 0
	for _, h := range d.hours {
		inHours += len(h)
	}
	for _, ft := range d.flows {
		packets += uint64(ft.PacketCnt)
	}
	if info, err := os.Stat(c.path); err == nil {
		fileBytes = info.Size()
	}
	n := len(d.flows)
	// The telescope merges flows that share a key, so a day can drain a few
	// fewer flows than the generator emitted, never more.
	r.check(n > 0 && n <= d.generated, "day %d: generator reported %d flows, telescope drained %d", d.day, d.generated, n)
	r.check(inHours == n, "day %d: hour partitions hold %d flows of %d", d.day, inHours, n)
	r.check(len(d.parsed) == n, "day %d: parsed %d flows of %d written", d.day, len(d.parsed), n)
	r.check(reflect.DeepEqual(telescope.AggregateByProtocol(d.parsed), d.table),
		"day %d: protocol table of the parsed file differs from the in-memory one", d.day)
	return packets, fileBytes
}

// writeFlows encodes flows into the capture file. The file is overwritten in
// place and cut to the new length afterwards: truncating it first makes the
// filesystem free and reallocate ~33 MB of blocks every day, and on the
// sandbox's virtual disk that cost swung the encode stage between 80 and
// 550 ms a day.
func writeFlows(path string, flows []*telescope.FlowTuple) error {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE, 0o644)
	if err != nil {
		return err
	}
	cw := &countingWriter{w: f}
	bw := bufio.NewWriterSize(cw, 1<<20)
	for _, ft := range flows {
		if err := ft.WriteBinary(bw); err != nil {
			_ = f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		_ = f.Close()
		return err
	}
	if err := f.Truncate(cw.n); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}

func readFlows(path string, sizeHint int) ([]*telescope.FlowTuple, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	br := bufio.NewReaderSize(f, 1<<20)
	out := make([]*telescope.FlowTuple, 0, sizeHint)
	for {
		ft, err := telescope.ReadBinary(br)
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return nil, err
		}
		out = append(out, ft)
	}
}

func runTelescope(r *run) error {
	c, err := setUp(r, func(unit int) (*capture, func(), error) {
		c, err := newCapture(r)
		if err != nil {
			return nil, nil, err
		}
		warm, err := c.day(r, unit)
		if err != nil {
			return nil, nil, err
		}
		c.verify(r, warm)
		return c, func() { _ = os.RemoveAll(filepath.Dir(c.path)) }, nil
	})
	if err != nil {
		return err
	}

	var (
		ops        []sample
		flowCount  int
		packets    uint64
		totalBytes int64
	)
	w := r.openWindow()
	for {
		start := time.Now()
		res, err := c.day(r, len(ops))
		if err != nil {
			return err
		}
		ops = append(ops, w.sample(time.Since(start)))
		p, b := c.verify(r, res)
		w.endBlock()
		flowCount += len(res.flows)
		packets += p
		totalBytes += b
		if stop, err := w.done(len(ops), true); err != nil {
			return err
		} else if stop {
			break
		}
	}
	w.close(ops, ops, float64(flowCount), liveHeapMB())
	runtime.KeepAlive(c)

	flows := float64(flowCount)
	r.set("telescope.flows_per_day", flows/float64(len(ops)))
	r.set("telescope.bytes_per_flow", ratio(float64(totalBytes), flows))
	// Packets per flow times the (undisturbed) flow rate.
	packetsPerSecond := ratio(float64(packets), flows) * r.measured["work_per_s"]
	r.set("telescope.packets_per_s", packetsPerSecond)
	r.set("telescope.paper_rate_multiple", packetsPerSecond/paperPacketsPerSecond)
	if r.tr != nil {
		tot := r.tr.totalsFrom(0)
		perFlow := func(name string) float64 { return ratio(float64(tot[name]), flows) }
		r.set("darknet.gen_ns_per_flow", perFlow("darknet.gen"))
		r.set("telescope.drain_ns_per_flow", perFlow("telescope.drain"))
		r.set("telescope.partition_ns_per_flow", perFlow("telescope.partition"))
		r.set("telescope.aggregate_ns_per_flow", perFlow("telescope.aggregate"))
		r.set("telescope.encode_ns_per_flow", perFlow("telescope.encode"))
		r.set("telescope.parse_ns_per_flow", perFlow("telescope.parse"))
		pipeline := tot["darknet.gen"] + tot["telescope.drain"] + tot["telescope.partition"] +
			tot["telescope.aggregate"] + tot["telescope.encode"] + tot["telescope.parse"]
		r.set("telescope.pipeline_share", ratio(float64(pipeline), float64(tot["telescope.day"])))
	}
	return nil
}
