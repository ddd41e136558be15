// Snapshot types and the two stable encodings: a line-oriented text
// format (what /debug/metrics prints) and JSON (what tooling consumes).
// Both are deterministic — names sorted, fixed float formatting — so
// snapshot equality is textual equality.
package metrics

import (
	"encoding/json"
	"fmt"
	"io"
)

// Snapshot is a point-in-time copy of a registry's metrics.
type Snapshot struct {
	Counters   map[string]int64             `json:"counters"`
	Gauges     map[string]float64           `json:"gauges"`
	Histograms map[string]HistogramSnapshot `json:"histograms"`
}

// HistogramSnapshot is a point-in-time copy of one histogram.
type HistogramSnapshot struct {
	// Count is the total number of samples (sum over Counts).
	Count uint64 `json:"count"`
	// Sum is the sum of all observed values.
	Sum float64 `json:"sum"`
	// Min and Max are the exact observed extrema (0 when empty).
	Min float64 `json:"min"`
	Max float64 `json:"max"`
	// Edges are the bucket upper bounds; Counts has len(Edges)+1
	// entries, the last being the overflow bucket (> Edges[last]).
	Edges  []float64 `json:"edges"`
	Counts []uint64  `json:"counts"`
	// Exemplars, when present, has one entry per bucket: the last trace
	// ID observed into that bucket (0 = none). JSON-only; the text
	// encoding is unchanged by exemplars.
	Exemplars []uint64 `json:"exemplars,omitempty"`
}

// Mean returns Sum/Count, or 0 when empty.
func (h HistogramSnapshot) Mean() float64 {
	if h.Count == 0 {
		return 0
	}
	return h.Sum / float64(h.Count)
}

// Quantile estimates the p-th percentile (p in [0,100]) by locating the
// bucket holding the target rank and interpolating linearly inside it,
// clamped to the exact observed [Min, Max]. Returns 0 when empty.
func (h HistogramSnapshot) Quantile(p float64) float64 {
	if h.Count == 0 || p < 0 || p > 100 {
		return 0
	}
	rank := p / 100 * float64(h.Count)
	var cum float64
	for i, c := range h.Counts {
		if c == 0 {
			continue
		}
		next := cum + float64(c)
		if rank <= next {
			lo, hi := h.bucketBounds(i)
			frac := (rank - cum) / float64(c)
			v := lo + frac*(hi-lo)
			return clamp(v, h.Min, h.Max)
		}
		cum = next
	}
	return h.Max
}

// bucketBounds returns bucket i's [lower, upper) interval, tightened by
// the observed extrema at the ends (the overflow bucket has no upper
// edge, the first bucket no lower edge).
func (h HistogramSnapshot) bucketBounds(i int) (lo, hi float64) {
	if i == 0 {
		lo = h.Min
	} else {
		lo = h.Edges[i-1]
	}
	if i < len(h.Edges) {
		hi = h.Edges[i]
	} else {
		hi = h.Max
	}
	if hi < lo {
		hi = lo
	}
	return lo, hi
}

func clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// WriteText writes the deterministic line encoding:
//
//	counter <name> <value>
//	gauge <name> <value>
//	hist <name> count=<n> sum=<s> min=<m> mean=<m> p50=<v> p95=<v> p99=<v> p999=<v> max=<m>
//
// Lines are grouped by kind and sorted by name.
func (s Snapshot) WriteText(w io.Writer) error {
	for _, name := range sortedKeys(s.Counters) {
		if _, err := fmt.Fprintf(w, "counter %s %d\n", name, s.Counters[name]); err != nil {
			return err
		}
	}
	for _, name := range sortedKeys(s.Gauges) {
		if _, err := fmt.Fprintf(w, "gauge %s %g\n", name, s.Gauges[name]); err != nil {
			return err
		}
	}
	for _, name := range sortedKeys(s.Histograms) {
		h := s.Histograms[name]
		if _, err := fmt.Fprintf(w,
			"hist %s count=%d sum=%g min=%g mean=%g p50=%g p95=%g p99=%g p999=%g max=%g\n",
			name, h.Count, h.Sum, h.Min, h.Mean(),
			h.Quantile(50), h.Quantile(95), h.Quantile(99), h.Quantile(99.9), h.Max); err != nil {
			return err
		}
	}
	return nil
}

// JSON returns the snapshot as indented JSON (map keys sorted by
// encoding/json, so the output is deterministic).
func (s Snapshot) JSON() ([]byte, error) {
	return json.MarshalIndent(s, "", "  ")
}
