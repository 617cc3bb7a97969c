package obs

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
)

// WritePrometheus renders the snapshot in the Prometheus text exposition
// format (version 0.0.4): one TYPE comment plus sample per counter and
// gauge, and for each histogram the cumulative le-labeled bucket series with
// _sum and _count (durations converted from nanoseconds to seconds, the
// format's base unit). Metric names are sanitized to the
// [a-zA-Z_:][a-zA-Z0-9_:]* charset (dots become underscores) and every
// section is emitted in sorted-name order, so the rendering is deterministic
// and two equal snapshots serialize byte-identically — same contract as the
// JSON form.
func (s Snapshot) WritePrometheus(w io.Writer) error {
	bw := bufio.NewWriter(w)
	for _, k := range sortedNames(s.Counters) {
		name := PromName(k)
		fmt.Fprintf(bw, "# TYPE %s counter\n%s %d\n", name, name, s.Counters[k])
	}
	for _, k := range sortedNames(s.Gauges) {
		name := PromName(k)
		fmt.Fprintf(bw, "# TYPE %s gauge\n%s %s\n", name, name, promFloat(s.Gauges[k]))
	}
	for _, k := range sortedNames(s.Histograms) {
		h := s.Histograms[k]
		name := PromName(k)
		fmt.Fprintf(bw, "# TYPE %s histogram\n", name)
		var cum uint64
		for i, b := range h.BoundsNS {
			if i < len(h.Counts) {
				cum += h.Counts[i]
			}
			fmt.Fprintf(bw, "%s_bucket{le=%q} %d\n", name, promFloat(float64(b)/1e9), cum)
		}
		fmt.Fprintf(bw, "%s_bucket{le=\"+Inf\"} %d\n", name, h.Total)
		fmt.Fprintf(bw, "%s_sum %s\n", name, promFloat(float64(h.SumNS)/1e9))
		fmt.Fprintf(bw, "%s_count %d\n", name, h.Total)
	}
	return bw.Flush()
}

// sortedNames returns a map's keys in ascending order.
func sortedNames[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// PromName maps a metric name onto the Prometheus metric-name charset:
// every byte outside [a-zA-Z0-9_:] becomes '_', and a leading digit is
// escaped the same way (names may not start with one).
func PromName(name string) string {
	b := []byte(name)
	for i, c := range b {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
		case c >= '0' && c <= '9' && i > 0:
		default:
			b[i] = '_'
		}
	}
	return string(b)
}

// promFloat formats a sample value the way Prometheus clients do: shortest
// round-trip representation.
func promFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}
