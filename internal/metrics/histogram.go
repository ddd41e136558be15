// Streaming fixed-bucket histogram: the latency-distribution primitive
// behind the paper's Figures 4–7, reshaped for the live request path.
// Where internal/stats collects every sample and sorts (exact
// percentiles, O(n) memory), this histogram keeps one atomic counter
// per bucket (bounded memory, allocation-free Observe) and answers
// quantile queries by interpolating within the bucket that holds the
// target rank — the standard monitoring trade-off.
package metrics

import (
	"math"
	"sort"
	"sync/atomic"
	"time"
)

func floatToBits(v float64) uint64   { return math.Float64bits(v) }
func floatFromBits(b uint64) float64 { return math.Float64frombits(b) }

// DefaultLatencyEdges are the default bucket upper bounds in
// microseconds: powers of two from 1 µs to ~33.5 s (2^25 µs). The
// geometric layout keeps relative quantile error bounded (a value is
// located within a factor-2 bucket) across the six decades between an
// intra-AS cache hit and a timed-out WAN attempt.
var DefaultLatencyEdges = func() []float64 {
	edges := make([]float64, 26)
	for i := range edges {
		edges[i] = float64(uint64(1) << uint(i))
	}
	return edges
}()

// Histogram is a concurrent fixed-bucket histogram. Observe is
// lock-free and allocation-free; create via Registry.Histogram.
type Histogram struct {
	edges  []float64 // immutable upper bounds, strictly increasing
	counts []atomic.Uint64
	count  atomic.Uint64
	sum    atomic.Uint64 // float64 bits, CAS-accumulated
	min    atomic.Uint64 // float64 bits; +Inf when empty
	max    atomic.Uint64 // float64 bits; -Inf when empty
	// exemplars holds the last sampled trace ID observed per bucket
	// (0 = none): the bridge from an aggregate tail bucket to the
	// concrete trace in /debug/traces that landed there.
	exemplars []atomic.Uint64
}

func newHistogram(edges []float64) *Histogram {
	if edges == nil {
		edges = DefaultLatencyEdges
	}
	for i := 1; i < len(edges); i++ {
		if edges[i] <= edges[i-1] {
			panic("metrics: histogram edges must be strictly increasing")
		}
	}
	h := &Histogram{
		edges:     edges,
		counts:    make([]atomic.Uint64, len(edges)+1), // +1 = overflow bucket
		exemplars: make([]atomic.Uint64, len(edges)+1),
	}
	h.min.Store(posInfBits)
	h.max.Store(negInfBits)
	return h
}

const (
	posInfBits = 0x7FF0000000000000
	negInfBits = 0xFFF0000000000000
)

// Observe records one sample. Unit is whatever the histogram's edges
// are in (microseconds for the default layout).
func (h *Histogram) Observe(v float64) { h.ObserveExemplar(v, 0) }

// ObserveDuration records d in microseconds (the default edge unit).
func (h *Histogram) ObserveDuration(d time.Duration) {
	h.Observe(float64(d.Nanoseconds()) / 1e3)
}

// ObserveExemplar records one sample and, when traceID is non-zero,
// remembers it as the bucket's exemplar — last writer wins, which for
// monitoring is exactly right: the freshest trace that landed in a
// bucket is the one worth opening.
func (h *Histogram) ObserveExemplar(v float64, traceID uint64) {
	// Smallest i with edges[i] >= v; len(edges) = overflow.
	idx := sort.SearchFloat64s(h.edges, v)
	h.counts[idx].Add(1)
	h.count.Add(1)
	atomicAddFloat(&h.sum, v)
	atomicMinFloat(&h.min, v)
	atomicMaxFloat(&h.max, v)
	if traceID != 0 {
		h.exemplars[idx].Store(traceID)
	}
}

// ObserveSinceExemplar records the elapsed microseconds since t0 with a
// trace-ID exemplar (0 = no exemplar, plain observation).
func (h *Histogram) ObserveSinceExemplar(t0 time.Time, traceID uint64) {
	h.ObserveExemplar(float64(time.Since(t0).Nanoseconds())/1e3, traceID)
}

// ObserveN records n identical samples of value v in one shot: one
// bucket add, one count add, one sum CAS — the bridge primitive for
// replaying pre-bucketed distributions (e.g. runtime/metrics histogram
// deltas in internal/obs) without n Observe calls. n = 0 is a no-op.
func (h *Histogram) ObserveN(v float64, n uint64) {
	if n == 0 {
		return
	}
	idx := sort.SearchFloat64s(h.edges, v)
	h.counts[idx].Add(n)
	h.count.Add(n)
	atomicAddFloat(&h.sum, v*float64(n))
	atomicMinFloat(&h.min, v)
	atomicMaxFloat(&h.max, v)
}

func (h *Histogram) snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		Edges:  h.edges, // immutable, shared
		Counts: make([]uint64, len(h.counts)),
	}
	for i := range h.counts {
		c := h.counts[i].Load()
		s.Counts[i] = c
		s.Count += c
	}
	// Count is rebuilt from the buckets rather than read from h.count so
	// the snapshot is internally consistent (quantiles walk Counts).
	s.Sum = floatFromBits(h.sum.Load())
	if s.Count > 0 {
		s.Min = floatFromBits(h.min.Load())
		s.Max = floatFromBits(h.max.Load())
	}
	// Exemplars only when at least one exists: the field is omitted from
	// JSON otherwise and the text encoding never shows it, so histograms
	// observed without trace IDs snapshot exactly as before.
	for i := range h.exemplars {
		if e := h.exemplars[i].Load(); e != 0 {
			if s.Exemplars == nil {
				s.Exemplars = make([]uint64, len(h.counts))
			}
			s.Exemplars[i] = e
		}
	}
	return s
}

func atomicAddFloat(bits *atomic.Uint64, d float64) {
	for {
		old := bits.Load()
		next := floatToBits(floatFromBits(old) + d)
		if bits.CompareAndSwap(old, next) {
			return
		}
	}
}

func atomicMinFloat(bits *atomic.Uint64, v float64) {
	for {
		old := bits.Load()
		if floatFromBits(old) <= v {
			return
		}
		if bits.CompareAndSwap(old, floatToBits(v)) {
			return
		}
	}
}

func atomicMaxFloat(bits *atomic.Uint64, v float64) {
	for {
		old := bits.Load()
		if floatFromBits(old) >= v {
			return
		}
		if bits.CompareAndSwap(old, floatToBits(v)) {
			return
		}
	}
}
