package tsdb

import (
	"bufio"
	"fmt"
	"io"
	"net/url"
	"sort"
	"strconv"
	"strings"

	"openhire/internal/obs"
)

// Tier names for Query.Tier.
const (
	TierRaw    = "raw"
	TierRollup = "rollup"
)

// Query selects points from a view. The time axis is the cycle index — the
// serve daemon's simulated-day counter — so queries over a sim-deterministic
// stream return identical results across runs, worker counts and kill/resume.
type Query struct {
	// Metric is the series name to select (required).
	Metric string
	// Match restricts to series carrying every listed label (subset match).
	Match Labels
	// From/To bound the cycle range, inclusive. To < 0 means "latest".
	From, To int64
	// Step, when > 1, downsamples raw points into aligned Step-cycle buckets
	// (min/max/sum/count/last) instead of returning them raw.
	Step int
	// Tier selects the storage tier: TierRaw (default) walks the raw ring,
	// TierRollup returns the precomputed RollupEvery-cycle buckets.
	Tier string
}

// ParseQuery decodes the /api/timeseries query parameters:
//
//	metric=NAME  (required for a data query; absent = catalog request)
//	label=k:v    (repeatable)
//	from=N to=N  (cycle bounds, inclusive; default 0..latest)
//	step=N       (downsample raw points into N-cycle buckets)
//	tier=raw|rollup
func ParseQuery(values url.Values) (Query, error) {
	q := Query{To: -1}
	q.Metric = values.Get("metric")
	for _, lv := range values["label"] {
		k, v, ok := strings.Cut(lv, ":")
		if !ok {
			return q, fmt.Errorf("tsdb: bad label selector %q (want key:value)", lv)
		}
		q.Match = append(q.Match, Label{Key: k, Value: v})
	}
	var err error
	if s := values.Get("from"); s != "" {
		if q.From, err = strconv.ParseInt(s, 10, 64); err != nil {
			return q, fmt.Errorf("tsdb: bad from %q", s)
		}
	}
	if s := values.Get("to"); s != "" {
		if q.To, err = strconv.ParseInt(s, 10, 64); err != nil {
			return q, fmt.Errorf("tsdb: bad to %q", s)
		}
	}
	if s := values.Get("step"); s != "" {
		if q.Step, err = strconv.Atoi(s); err != nil || q.Step < 1 {
			return q, fmt.Errorf("tsdb: bad step %q", s)
		}
	}
	switch t := values.Get("tier"); t {
	case "", TierRaw:
		q.Tier = TierRaw
	case TierRollup:
		q.Tier = TierRollup
	default:
		return q, fmt.Errorf("tsdb: bad tier %q (want raw or rollup)", t)
	}
	return q, nil
}

// SeriesResult is one matched series' slice of the answer.
type SeriesResult struct {
	Name   string            `json:"name"`
	Labels map[string]string `json:"labels,omitempty"`
	// Points holds raw points (tier=raw, step<=1).
	Points []Point `json:"points,omitempty"`
	// Buckets holds downsampled windows (tier=rollup or step>1).
	Buckets []Bucket `json:"buckets,omitempty"`
	// Dropped counts raw points evicted by the ring before the window.
	Dropped uint64 `json:"dropped,omitempty"`
}

// Result is the full /api/timeseries data answer.
type Result struct {
	Metric string `json:"metric"`
	Tier   string `json:"tier"`
	Step   int    `json:"step,omitempty"`
	// From/To echo the resolved bounds (To resolved to the view's latest).
	From   int64          `json:"from"`
	To     int64          `json:"to"`
	Series []SeriesResult `json:"series,omitempty"`
}

// labelMap renders a sorted label set as a plain map (encoding/json sorts
// keys, so the rendering stays deterministic).
func labelMap(ls Labels) map[string]string {
	if len(ls) == 0 {
		return nil
	}
	m := make(map[string]string, len(ls))
	for _, l := range ls {
		m[l.Key] = l.Value
	}
	return m
}

// Query evaluates q against the view. Matched series come back sorted by
// canonical key.
func (v *View) Query(q Query) Result {
	res := Result{Metric: q.Metric, Tier: q.Tier, Step: q.Step, From: q.From, To: q.To}
	if res.Tier == "" {
		res.Tier = TierRaw
	}
	if v == nil {
		return res
	}
	if res.To < 0 {
		res.To = v.LastCycle
	}
	for _, s := range v.order {
		if s.Name != q.Metric || !s.matches(q.Match) {
			continue
		}
		sr := SeriesResult{Name: s.Name, Labels: labelMap(s.Labels), Dropped: s.Dropped}
		switch {
		case res.Tier == TierRollup:
			every := int64(v.opt.RollupEvery)
			for _, b := range s.Rollups {
				if b.Start+every-1 < res.From || b.Start > res.To {
					continue
				}
				sr.Buckets = append(sr.Buckets, b)
			}
		case q.Step > 1:
			step := int64(q.Step)
			var cur Bucket
			s.Walk(func(p Point) bool {
				if p.Cycle < res.From {
					return true
				}
				if p.Cycle > res.To {
					return false
				}
				start := (p.Cycle / step) * step
				if cur.Count > 0 && cur.Start != start {
					sr.Buckets = append(sr.Buckets, cur)
					cur = Bucket{}
				}
				if cur.Count == 0 {
					cur.Start = start
				}
				cur.fold(p.Value)
				return true
			})
			if cur.Count > 0 {
				sr.Buckets = append(sr.Buckets, cur)
			}
		default:
			s.Walk(func(p Point) bool {
				if p.Cycle < res.From {
					return true
				}
				if p.Cycle > res.To {
					return false
				}
				sr.Points = append(sr.Points, p)
				return true
			})
		}
		res.Series = append(res.Series, sr)
	}
	return res
}

// CatalogSeries is one series' catalog row.
type CatalogSeries struct {
	Name   string            `json:"name"`
	Labels map[string]string `json:"labels,omitempty"`
	// Stream tags which store the series lives in ("sim" or "wall").
	Stream string `json:"stream,omitempty"`
	// Points/Dropped/First/Last describe the retained raw window.
	Points  int    `json:"points"`
	Dropped uint64 `json:"dropped,omitempty"`
	First   int64  `json:"first_cycle"`
	Last    int64  `json:"last_cycle"`
	Rollups int    `json:"rollup_buckets,omitempty"`
}

// Catalog is the /api/timeseries index answer (no metric parameter).
type Catalog struct {
	LastCycle      int64           `json:"last_cycle"`
	RawCapacity    int             `json:"raw_capacity"`
	RollupEvery    int             `json:"rollup_every"`
	RollupCapacity int             `json:"rollup_capacity"`
	Series         []CatalogSeries `json:"series,omitempty"`
}

// Catalog lists the view's series, tagged with stream, sorted by key.
func (v *View) Catalog(stream string) Catalog {
	if v == nil {
		return Catalog{}
	}
	c := Catalog{
		LastCycle:      v.LastCycle,
		RawCapacity:    v.opt.RawCapacity,
		RollupEvery:    v.opt.RollupEvery,
		RollupCapacity: v.opt.RollupCapacity,
	}
	for _, s := range v.order {
		c.Series = append(c.Series, CatalogSeries{
			Name:    s.Name,
			Labels:  labelMap(s.Labels),
			Stream:  stream,
			Points:  s.Len(),
			Dropped: s.Dropped,
			First:   s.FirstCycle(),
			Last:    s.LastCycle(),
			Rollups: len(s.Rollups),
		})
	}
	return c
}

// Merge combines catalogs from several streams, re-sorting by (name, labels).
func (c Catalog) Merge(other Catalog) Catalog {
	out := c
	if other.LastCycle > out.LastCycle {
		out.LastCycle = other.LastCycle
	}
	if out.RawCapacity == 0 {
		out.RawCapacity = other.RawCapacity
	}
	if out.RollupEvery == 0 {
		out.RollupEvery = other.RollupEvery
	}
	if out.RollupCapacity == 0 {
		out.RollupCapacity = other.RollupCapacity
	}
	out.Series = append(append([]CatalogSeries(nil), c.Series...), other.Series...)
	o := catalogOrder{rows: out.Series, labels: make([]string, len(out.Series))}
	for i := range o.rows {
		o.labels[i] = fmt.Sprint(o.rows[i].Labels)
	}
	sort.Sort(o)
	return out
}

// catalogOrder sorts catalog rows by (name, fmt.Sprint of the labels) with
// each row's labels rendered once, not once per comparison; sort.Sort runs
// the same algorithm as sort.Slice, so rows that tie keep the order they
// always had.
type catalogOrder struct {
	rows   []CatalogSeries
	labels []string // labels[i] renders rows[i].Labels
}

func (o catalogOrder) Len() int { return len(o.rows) }

func (o catalogOrder) Less(i, j int) bool {
	if a, b := o.rows[i].Name, o.rows[j].Name; a != b {
		return a < b
	}
	return o.labels[i] < o.labels[j]
}

func (o catalogOrder) Swap(i, j int) {
	o.rows[i], o.rows[j] = o.rows[j], o.rows[i]
	o.labels[i], o.labels[j] = o.labels[j], o.labels[i]
}

// WritePrometheus renders the result in a Prometheus range-style text form:
// one sample line per selected raw point (or per bucket, using the bucket
// sum), "name{labels} value cycle", names sanitized to the Prometheus
// charset and series in sorted-key order — deterministic for a
// sim-deterministic stream.
func (r Result) WritePrometheus(w io.Writer) error {
	bw := bufio.NewWriter(w)
	name := obs.PromName(r.Metric)
	fmt.Fprintf(bw, "# TYPE %s gauge\n", name)
	var line []byte
	sample := func(lbl string, v float64, cycle int64) {
		line = append(append(append(line[:0], name...), lbl...), ' ')
		line = append(strconv.AppendFloat(line, v, 'g', -1, 64), ' ')
		line = append(strconv.AppendInt(line, cycle, 10), '\n')
		_, _ = bw.Write(line)
	}
	for _, s := range r.Series {
		lbl := promLabels(s.Labels)
		for _, p := range s.Points {
			sample(lbl, p.Value, p.Cycle)
		}
		for _, b := range s.Buckets {
			sample(lbl, b.Sum, b.Start)
		}
	}
	return bw.Flush()
}

// promLabels renders a label map in sorted-key Prometheus form.
func promLabels(m map[string]string) string {
	if len(m) == 0 {
		return ""
	}
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var sb strings.Builder
	sb.WriteByte('{')
	for i, k := range keys {
		if i > 0 {
			sb.WriteByte(',')
		}
		fmt.Fprintf(&sb, "%s=%q", obs.PromName(k), m[k])
	}
	sb.WriteByte('}')
	return sb.String()
}
