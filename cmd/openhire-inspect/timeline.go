package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"openhire/internal/checkpoint"
	"openhire/internal/obs/tsdb"
)

// timelineCmd renders the serve daemon's time-series observatory: per-cycle
// leg-duration attribution, trend sparklines, and rollup summaries. The
// source is either a live daemon URL (it answers /api/timeseries) or a
// time-series file on disk — the ck/serve-tsdb.ckpt binary checkpoint, or
// the -tsdb-out state JSON. For a checkpoint, the sibling serve-tsdb-wall.ckpt
// (when present) supplies the wall-clock attribution.
func timelineCmd(w io.Writer, args []string) error {
	fs := flag.NewFlagSet("timeline", flag.ContinueOnError)
	last := fs.Int("last", 60, "render at most this many trailing cycles")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("usage: openhire-inspect timeline [-last N] (URL|FILE)")
	}
	target := fs.Arg(0)
	var src tsSource
	var err error
	if strings.HasPrefix(target, "http://") || strings.HasPrefix(target, "https://") {
		src = &httpSource{base: strings.TrimSuffix(target, "/")}
	} else {
		src, err = openFileSource(target)
		if err != nil {
			return err
		}
	}
	return renderTimeline(w, src, *last)
}

// tsSource answers catalog and range queries from either a live daemon or a
// loaded state file, so the renderers below are source-agnostic.
type tsSource interface {
	Catalog() (tsdb.Catalog, error)
	Query(q tsdb.Query) (tsdb.Result, error)
}

// fileSource serves queries from states loaded back into in-memory stores.
type fileSource struct {
	sim  *tsdb.View
	wall *tsdb.View // may be nil
}

// loadView rebuilds a queriable view from a durable state.
func loadView(st *tsdb.State) (*tsdb.View, error) {
	db := tsdb.New(tsdb.Options{
		RawCapacity:    st.RawCapacity,
		RollupEvery:    st.RollupEvery,
		RollupCapacity: st.RollupCapacity,
	})
	if err := db.LoadState(st); err != nil {
		return nil, err
	}
	return db.View(), nil
}

// readStateFile parses either a checkpoint container holding a binary tsdb
// state payload or a bare state JSON (the -tsdb-out artifact); a JSON
// checkpoint from an older build is refused with checkpoint.ErrPayloadFormat.
func readStateFile(path string) (*tsdb.State, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	f, err := checkpoint.Decode(data)
	switch {
	case err == nil:
		if f.Leg != "serve-tsdb" && f.Leg != "serve-tsdb-wall" {
			return nil, fmt.Errorf("%s: checkpoint leg %q is not a time-series state", path, f.Leg)
		}
		return tsdb.DecodeState(f.Payload)
	case errors.Is(err, checkpoint.ErrPayloadFormat):
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return tsdb.ParseState(data)
}

// openFileSource loads path and, when it is the sim checkpoint, picks up the
// sibling wall checkpoint for the attribution table.
func openFileSource(path string) (*fileSource, error) {
	st, err := readStateFile(path)
	if err != nil {
		return nil, err
	}
	sim, err := loadView(st)
	if err != nil {
		return nil, err
	}
	fsrc := &fileSource{sim: sim}
	if base := filepath.Base(path); base == "serve-tsdb.ckpt" {
		sibling := filepath.Join(filepath.Dir(path), "serve-tsdb-wall.ckpt")
		if wallSt, err := readStateFile(sibling); err == nil {
			if wall, err := loadView(wallSt); err == nil {
				fsrc.wall = wall
			}
		}
	}
	return fsrc, nil
}

func (f *fileSource) Catalog() (tsdb.Catalog, error) {
	c := f.sim.Catalog("sim")
	if f.wall != nil {
		c = c.Merge(f.wall.Catalog("wall"))
	}
	return c, nil
}

func (f *fileSource) Query(q tsdb.Query) (tsdb.Result, error) {
	res := f.sim.Query(q)
	if len(res.Series) == 0 && f.wall != nil {
		if wr := f.wall.Query(q); len(wr.Series) > 0 {
			res = wr
		}
	}
	return res, nil
}

// httpSource queries a running daemon's /api/timeseries endpoint.
type httpSource struct {
	base string
}

func (h *httpSource) get(query url.Values, out any) error {
	u := h.base + "/api/timeseries"
	if len(query) > 0 {
		u += "?" + query.Encode()
	}
	resp, err := http.Get(u)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s: %s: %s", u, resp.Status, strings.TrimSpace(string(body)))
	}
	return json.Unmarshal(body, out)
}

func (h *httpSource) Catalog() (tsdb.Catalog, error) {
	var c tsdb.Catalog
	err := h.get(nil, &c)
	return c, err
}

func (h *httpSource) Query(q tsdb.Query) (tsdb.Result, error) {
	v := url.Values{}
	v.Set("metric", q.Metric)
	v.Set("from", strconv.FormatInt(q.From, 10))
	if q.To >= 0 {
		v.Set("to", strconv.FormatInt(q.To, 10))
	}
	if q.Tier != "" && q.Tier != tsdb.TierRaw {
		v.Set("tier", q.Tier)
	}
	var res tsdb.Result
	err := h.get(v, &res)
	return res, err
}

// legOrder pins the attribution columns to the order the cycle runs its legs.
var legOrder = []string{"month", "campaign", "telescope", "honeypots", "scan", "commit", "publish"}

// renderTimeline prints the three timeline sections for the trailing window.
func renderTimeline(w io.Writer, src tsSource, last int) error {
	cat, err := src.Catalog()
	if err != nil {
		return err
	}
	from := cat.LastCycle - int64(last) + 1
	if from < 0 {
		from = 0
	}
	fmt.Fprintf(w, "timeline: cycles %d..%d (retention %d raw, rollup every %d, keep %d)\n",
		from, cat.LastCycle, cat.RawCapacity, cat.RollupEvery, cat.RollupCapacity)
	streams := map[string]int{}
	for _, s := range cat.Series {
		streams[s.Stream]++
	}
	fmt.Fprintf(w, "series: %d sim, %d wall\n", streams["sim"], streams["wall"])

	if err := renderLegTable(w, src, from); err != nil {
		return err
	}
	if err := renderSparklines(w, src, cat, from); err != nil {
		return err
	}
	return renderRollups(w, src, cat)
}

// renderLegTable prints per-cycle wall-time attribution across the legs from
// the wall stream's serve.cycle.leg_wall_ns series.
func renderLegTable(w io.Writer, src tsSource, from int64) error {
	res, err := src.Query(tsdb.Query{Metric: "serve.cycle.leg_wall_ns", From: from, To: -1, Tier: tsdb.TierRaw})
	if err != nil {
		return err
	}
	if len(res.Series) == 0 {
		fmt.Fprintln(w, "\nno wall-clock attribution available (wall stream not present in this source)")
		return nil
	}
	byCycle := map[int64]map[string]float64{}
	present := map[string]bool{}
	for _, s := range res.Series {
		leg := s.Labels["leg"]
		present[leg] = true
		for _, p := range s.Points {
			if byCycle[p.Cycle] == nil {
				byCycle[p.Cycle] = map[string]float64{}
			}
			byCycle[p.Cycle][leg] = p.Value
		}
	}
	var legs []string
	for _, l := range legOrder {
		if present[l] {
			legs = append(legs, l)
			delete(present, l)
		}
	}
	for l := range present {
		legs = append(legs, l)
	}
	sort.Strings(legs[len(legs)-len(present):])
	cycles := make([]int64, 0, len(byCycle))
	for c := range byCycle {
		cycles = append(cycles, c)
	}
	sort.Slice(cycles, func(i, j int) bool { return cycles[i] < cycles[j] })

	fmt.Fprintf(w, "\nper-cycle wall attribution (ms):\n")
	fmt.Fprintf(w, "  %7s", "cycle")
	for _, l := range legs {
		fmt.Fprintf(w, " %10s", l)
	}
	fmt.Fprintf(w, " %10s\n", "total")
	for _, c := range cycles {
		fmt.Fprintf(w, "  %7d", c)
		var total float64
		for _, l := range legs {
			v := byCycle[c][l]
			total += v
			fmt.Fprintf(w, " %10.2f", v/1e6)
		}
		fmt.Fprintf(w, " %10.2f\n", total/1e6)
	}
	return nil
}

// renderSparklines prints one sparkline per sim trend series.
func renderSparklines(w io.Writer, src tsSource, cat tsdb.Catalog, from int64) error {
	var metrics []string
	seen := map[string]bool{}
	for _, s := range cat.Series {
		if s.Stream == "sim" && strings.HasPrefix(s.Name, "serve.trend.") && !seen[s.Name] {
			seen[s.Name] = true
			metrics = append(metrics, s.Name)
		}
	}
	if len(metrics) == 0 {
		return nil
	}
	fmt.Fprintf(w, "\ntrends:\n")
	for _, m := range metrics {
		res, err := src.Query(tsdb.Query{Metric: m, From: from, To: -1, Tier: tsdb.TierRaw})
		if err != nil {
			return err
		}
		for _, s := range res.Series {
			if len(s.Points) == 0 {
				continue
			}
			lo, hi := s.Points[0].Value, s.Points[0].Value
			for _, p := range s.Points {
				if p.Value < lo {
					lo = p.Value
				}
				if p.Value > hi {
					hi = p.Value
				}
			}
			fmt.Fprintf(w, "  %-32s %s  min=%g max=%g last=%g\n",
				m, sparkline(s.Points, lo, hi), lo, hi, s.Points[len(s.Points)-1].Value)
		}
	}
	return nil
}

// sparkline renders points as unicode block heights scaled to [lo, hi].
func sparkline(points []tsdb.Point, lo, hi float64) string {
	blocks := []rune("▁▂▃▄▅▆▇█")
	var sb strings.Builder
	for _, p := range points {
		idx := 0
		if hi > lo {
			idx = int((p.Value - lo) / (hi - lo) * float64(len(blocks)-1))
			if idx < 0 {
				idx = 0
			}
			if idx >= len(blocks) {
				idx = len(blocks) - 1
			}
		}
		sb.WriteRune(blocks[idx])
	}
	return sb.String()
}

// renderRollups prints the trailing rollup buckets for each trend series.
func renderRollups(w io.Writer, src tsSource, cat tsdb.Catalog) error {
	var metrics []string
	seen := map[string]bool{}
	for _, s := range cat.Series {
		if s.Stream == "sim" && strings.HasPrefix(s.Name, "serve.trend.") && s.Rollups > 0 && !seen[s.Name] {
			seen[s.Name] = true
			metrics = append(metrics, s.Name)
		}
	}
	if len(metrics) == 0 {
		return nil
	}
	fmt.Fprintf(w, "\nrollups (%d-cycle windows, trailing 3):\n", cat.RollupEvery)
	for _, m := range metrics {
		res, err := src.Query(tsdb.Query{Metric: m, From: 0, To: -1, Tier: tsdb.TierRollup})
		if err != nil {
			return err
		}
		for _, s := range res.Series {
			bs := s.Buckets
			if len(bs) > 3 {
				bs = bs[len(bs)-3:]
			}
			for _, b := range bs {
				fmt.Fprintf(w, "  %-32s [%d..%d] count=%d sum=%g min=%g max=%g last=%g\n",
					m, b.Start, b.Start+int64(cat.RollupEvery)-1, b.Count, b.Sum, b.Min, b.Max, b.Last)
			}
		}
	}
	return nil
}
