// Package stats provides the small statistical toolkit behind the paper's
// evaluation: percentile summaries (Table I), cumulative distribution
// functions (Figures 4–6), and normalized load ratios (§IV-B2c).
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Collector accumulates float64 samples and answers order-statistics
// queries. It is not safe for concurrent use; shard and Merge instead.
type Collector struct {
	vals   []float64
	sorted bool
}

// NewCollector returns a collector with capacity preallocated for n
// samples.
func NewCollector(n int) *Collector {
	return &Collector{vals: make([]float64, 0, n)}
}

// Add appends a sample.
func (c *Collector) Add(v float64) {
	c.vals = append(c.vals, v)
	c.sorted = false
}

// Merge appends every sample of other.
func (c *Collector) Merge(other *Collector) {
	c.vals = append(c.vals, other.vals...)
	c.sorted = false
}

// N returns the number of samples.
func (c *Collector) N() int { return len(c.vals) }

func (c *Collector) ensureSorted() {
	if !c.sorted {
		sort.Float64s(c.vals)
		c.sorted = true
	}
}

// Mean returns the arithmetic mean, or NaN when empty.
func (c *Collector) Mean() float64 {
	if len(c.vals) == 0 {
		return math.NaN()
	}
	var sum float64
	for _, v := range c.vals {
		sum += v
	}
	return sum / float64(len(c.vals))
}

// Percentile returns the p-th percentile (p in [0,100]) using linear
// interpolation between closest ranks, or NaN when empty.
func (c *Collector) Percentile(p float64) float64 {
	if len(c.vals) == 0 || math.IsNaN(p) || p < 0 || p > 100 {
		return math.NaN()
	}
	c.ensureSorted()
	if len(c.vals) == 1 {
		return c.vals[0]
	}
	rank := p / 100 * float64(len(c.vals)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return c.vals[lo]
	}
	frac := rank - float64(lo)
	return c.vals[lo]*(1-frac) + c.vals[hi]*frac
}

// Median returns the 50th percentile.
func (c *Collector) Median() float64 { return c.Percentile(50) }

// Min returns the smallest sample, or NaN when empty.
func (c *Collector) Min() float64 {
	if len(c.vals) == 0 {
		return math.NaN()
	}
	c.ensureSorted()
	return c.vals[0]
}

// Max returns the largest sample, or NaN when empty.
func (c *Collector) Max() float64 {
	if len(c.vals) == 0 {
		return math.NaN()
	}
	c.ensureSorted()
	return c.vals[len(c.vals)-1]
}

// FractionBelow returns the empirical CDF value at x: the fraction of
// samples ≤ x.
func (c *Collector) FractionBelow(x float64) float64 {
	if len(c.vals) == 0 {
		return math.NaN()
	}
	c.ensureSorted()
	return float64(sort.SearchFloat64s(c.vals, math.Nextafter(x, math.Inf(1)))) / float64(len(c.vals))
}

// CDFPoint is one point of an empirical CDF.
type CDFPoint struct {
	Value    float64
	Fraction float64
}

// CDF returns the empirical CDF sampled at n evenly spaced fractions
// (1/n, 2/n, …, 1). n must be positive.
func (c *Collector) CDF(n int) []CDFPoint {
	if n <= 0 || len(c.vals) == 0 {
		return nil
	}
	c.ensureSorted()
	out := make([]CDFPoint, n)
	for i := 1; i <= n; i++ {
		frac := float64(i) / float64(n)
		idx := int(math.Ceil(frac*float64(len(c.vals)))) - 1
		if idx < 0 {
			idx = 0
		}
		out[i-1] = CDFPoint{Value: c.vals[idx], Fraction: frac}
	}
	return out
}

// Summary is a compact distribution digest, in the units of the samples.
type Summary struct {
	N      int
	Mean   float64
	Median float64
	P95    float64
	Min    float64
	Max    float64
}

// Summarize computes the digest reported throughout EXPERIMENTS.md.
func (c *Collector) Summarize() Summary {
	return Summary{
		N:      c.N(),
		Mean:   c.Mean(),
		Median: c.Median(),
		P95:    c.Percentile(95),
		Min:    c.Min(),
		Max:    c.Max(),
	}
}

// String formats the summary as a one-line report.
func (s Summary) String() string {
	return fmt.Sprintf("n=%d mean=%.1f median=%.1f p95=%.1f min=%.1f max=%.1f",
		s.N, s.Mean, s.Median, s.P95, s.Min, s.Max)
}

// NormalizedLoadRatios computes the paper's NLR metric: for each AS with a
// positive announced share, the percentage of GUIDs it hosts divided by
// the percentage of announced address space it owns. hosted maps AS index
// to hosted-mapping count; shares maps AS index to its fraction of the
// announced space (which must sum to ≈1 across announcing ASs — pass
// shares already normalized to announced space, not total space).
func NormalizedLoadRatios(hosted map[int]int, shares map[int]float64) *Collector {
	var totalHosted int64
	for _, h := range hosted {
		totalHosted += int64(h)
	}
	c := NewCollector(len(shares))
	if totalHosted == 0 {
		return c
	}
	for as, share := range shares {
		if share <= 0 {
			continue
		}
		frac := float64(hosted[as]) / float64(totalHosted)
		c.Add(frac / share)
	}
	return c
}
