package tsdb

import (
	"encoding/json"
	"fmt"
	"sort"

	"openhire/internal/checkpoint/wire"
)

// State is the store's durable form: every series' retained raw points and
// rollup buckets, sorted by canonical key. For a sim-deterministic stream the
// marshaled bytes are a pure function of (seed, config, cycle) — independent
// of worker counts and kill history — which is what lets the serve checkpoint
// carry the state and record the standalone file's digest.
type State struct {
	// RawCapacity/RollupEvery/RollupCapacity echo the store's Options, so a
	// loaded file is self-describing.
	RawCapacity    int `json:"raw_capacity"`
	RollupEvery    int `json:"rollup_every"`
	RollupCapacity int `json:"rollup_capacity"`
	// LastCycle is the newest committed cycle across all series.
	LastCycle int64 `json:"last_cycle"`
	// Series is sorted by canonical key.
	Series []SeriesState `json:"series,omitempty"`
}

// SeriesState is one series' durable form.
type SeriesState struct {
	Name   string `json:"name"`
	Labels Labels `json:"labels,omitempty"`
	// Dropped counts raw points the ring evicted before this snapshot, so
	// Dropped+len(Points) reconciles with the rollup counts.
	Dropped uint64 `json:"dropped,omitempty"`
	// Points are the retained raw points, oldest first.
	Points []Point `json:"points,omitempty"`
	// Rollups are the completed buckets, oldest first.
	Rollups []Bucket `json:"rollups,omitempty"`
	// Active is the in-progress rollup bucket (Count 0 = none).
	Active Bucket `json:"active"`
}

// State snapshots the writer's current contents. Driver-thread only.
func (db *DB) State() *State {
	st := &State{
		RawCapacity:    db.opt.RawCapacity,
		RollupEvery:    db.opt.RollupEvery,
		RollupCapacity: db.opt.RollupCapacity,
		LastCycle:      db.lastCy,
	}
	for _, s := range db.order {
		ss := SeriesState{
			Name:    s.name,
			Labels:  s.labels,
			Dropped: s.dropped,
			Points:  make([]Point, 0, s.rawLen()),
			Active:  s.activeBucket,
		}
		for _, c := range s.sealed {
			ss.Points = append(ss.Points, c...)
		}
		ss.Points = append(ss.Points, s.active...)
		if len(s.rollups) > 0 {
			ss.Rollups = append([]Bucket(nil), s.rollups...)
		}
		st.Series = append(st.Series, ss)
	}
	sort.Slice(st.Series, func(i, j int) bool {
		return SeriesKey(st.Series[i].Name, st.Series[i].Labels) < SeriesKey(st.Series[j].Name, st.Series[j].Labels)
	})
	return st
}

// MarshalState renders the current state as canonical JSON (sorted series,
// trailing newline). These are the bytes the serve checkpoint digests.
func (db *DB) MarshalState() ([]byte, error) {
	data, err := json.Marshal(db.State())
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}

// LoadState replaces the store's contents with st and publishes a view.
// Driver-thread only. Loading a state and re-marshaling yields byte-identical
// output — the round-trip identity the kill/resume gates rely on.
func (db *DB) LoadState(st *State) error {
	if st.RollupEvery > 0 && st.RollupEvery != db.opt.RollupEvery {
		return fmt.Errorf("tsdb: state rollup window %d, store configured for %d", st.RollupEvery, db.opt.RollupEvery)
	}
	db.index = make(map[string]*series, len(st.Series))
	db.order = db.order[:0]
	db.lastCy = st.LastCycle
	db.hasAny = st.LastCycle != 0 || len(st.Series) > 0
	for _, ss := range st.Series {
		labels := canonical(append(Labels(nil), ss.Labels...))
		s := &series{
			name:         ss.Name,
			labels:       labels,
			key:          SeriesKey(ss.Name, labels),
			dropped:      ss.Dropped,
			total:        ss.Dropped + uint64(len(ss.Points)),
			activeBucket: ss.Active,
		}
		for i := 0; i < len(ss.Points); i += chunkSize {
			end := i + chunkSize
			if end > len(ss.Points) {
				// The final partial chunk becomes the active tail.
				s.active = append(make([]Point, 0, chunkSize), ss.Points[i:]...)
				break
			}
			chunk := make([]Point, chunkSize)
			copy(chunk, ss.Points[i:end])
			s.sealed = append(s.sealed, chunk)
		}
		if len(ss.Rollups) > 0 {
			s.rollups = append([]Bucket(nil), ss.Rollups...)
		}
		db.index[s.key] = s
		db.order = append(db.order, s)
	}
	db.Publish()
	return nil
}

// ParseState decodes a marshaled State.
func ParseState(data []byte) (*State, error) {
	var st State
	if err := json.Unmarshal(data, &st); err != nil {
		return nil, fmt.Errorf("tsdb: state: %w", err)
	}
	return &st, nil
}

// AppendBinary appends the state's checkpoint form (package wire): the
// option echo and LastCycle, then each series in order — name, labels,
// Dropped, points as (cycle, value) pairs, rollups and the active bucket.
// Floats keep their exact bits, NaN and infinities included.
func (st *State) AppendBinary(b []byte) []byte {
	b = wire.AppendInt(b, st.RawCapacity)
	b = wire.AppendInt(b, st.RollupEvery)
	b = wire.AppendInt(b, st.RollupCapacity)
	b = wire.AppendInt64(b, st.LastCycle)
	b = wire.AppendInt(b, len(st.Series))
	for i := range st.Series {
		ss := &st.Series[i]
		b = wire.AppendString(b, ss.Name)
		b = wire.AppendInt(b, len(ss.Labels))
		for _, l := range ss.Labels {
			b = wire.AppendString(b, l.Key)
			b = wire.AppendString(b, l.Value)
		}
		b = wire.AppendUint(b, ss.Dropped)
		b = wire.AppendInt(b, len(ss.Points))
		for _, p := range ss.Points {
			b = wire.AppendInt64(b, p.Cycle)
			b = wire.AppendFloat(b, p.Value)
		}
		b = wire.AppendInt(b, len(ss.Rollups))
		for j := range ss.Rollups {
			b = ss.Rollups[j].appendBinary(b)
		}
		b = ss.Active.appendBinary(b)
	}
	return b
}

// bucketMinBytes is the smallest encoded Bucket: two one-byte uvarints and
// four floats.
const bucketMinBytes = 2 + 4*8

func (bk *Bucket) appendBinary(b []byte) []byte {
	b = wire.AppendInt64(b, bk.Start)
	b = wire.AppendUint(b, bk.Count)
	b = wire.AppendFloat(b, bk.Sum)
	b = wire.AppendFloat(b, bk.Min)
	b = wire.AppendFloat(b, bk.Max)
	return wire.AppendFloat(b, bk.Last)
}

func readBucket(r *wire.Reader) Bucket {
	return Bucket{Start: r.Int64(), Count: r.Uint(), Sum: r.Float(), Min: r.Float(), Max: r.Float(), Last: r.Float()}
}

// ReadState decodes a state AppendBinary wrote. Empty collections decode to
// nil, as the JSON form's omitempty does.
func ReadState(r *wire.Reader) *State {
	st := &State{
		RawCapacity:    r.Int(),
		RollupEvery:    r.Int(),
		RollupCapacity: r.Int(),
		LastCycle:      r.Int64(),
	}
	// A series is at least a name length, four counts and a bucket.
	if n := r.Count(5 + bucketMinBytes); n > 0 {
		st.Series = make([]SeriesState, n)
	}
	for i := range st.Series {
		ss := &st.Series[i]
		ss.Name = r.Str()
		if n := r.Count(2); n > 0 {
			ss.Labels = make(Labels, n)
			for j := range ss.Labels {
				ss.Labels[j] = Label{Key: r.Str(), Value: r.Str()}
			}
		}
		ss.Dropped = r.Uint()
		if n := r.Count(1 + 8); n > 0 {
			ss.Points = make([]Point, n)
			for j := range ss.Points {
				ss.Points[j] = Point{Cycle: r.Int64(), Value: r.Float()}
			}
		}
		if n := r.Count(bucketMinBytes); n > 0 {
			ss.Rollups = make([]Bucket, n)
			for j := range ss.Rollups {
				ss.Rollups[j] = readBucket(r)
			}
		}
		ss.Active = readBucket(r)
		if r.Err() != nil {
			return nil
		}
	}
	if r.Err() != nil {
		return nil
	}
	return st
}

// DecodeState decodes a whole checkpoint payload holding one state.
func DecodeState(payload []byte) (*State, error) {
	r := wire.NewReader(payload)
	st := ReadState(r)
	if err := r.Close(); err != nil {
		return nil, fmt.Errorf("tsdb: state: %w", err)
	}
	return st, nil
}
