package stats

import (
	"fmt"
	"math"
	"strings"
)

// Histogram renders a collector as a fixed-width ASCII bar chart of its
// distribution, used by cmd/dmapsim to sketch the paper's CDF figures in
// a terminal.
type Histogram struct {
	// Buckets holds the per-bucket counts.
	Buckets []int
	// Edges holds len(Buckets)+1 bucket boundaries.
	Edges []float64
}

// NewHistogram bins the collector's samples into n equal-width buckets
// between min and max. Returns nil for empty collectors or n <= 0.
func (c *Collector) NewHistogram(n int) *Histogram {
	if n <= 0 || len(c.vals) == 0 {
		return nil
	}
	lo, hi := c.Min(), c.Max()
	if lo == hi {
		hi = lo + 1
	}
	h := &Histogram{
		Buckets: make([]int, n),
		Edges:   make([]float64, n+1),
	}
	width := (hi - lo) / float64(n)
	for i := 0; i <= n; i++ {
		h.Edges[i] = lo + float64(i)*width
	}
	for _, v := range c.vals {
		idx := int((v - lo) / width)
		if idx >= n {
			idx = n - 1
		}
		if idx < 0 {
			idx = 0
		}
		h.Buckets[idx]++
	}
	return h
}

// Render draws the histogram with bars up to width characters.
func (h *Histogram) Render(width int) string {
	if width <= 0 {
		width = 50
	}
	max := 0
	total := 0
	for _, b := range h.Buckets {
		if b > max {
			max = b
		}
		total += b
	}
	if max == 0 {
		return ""
	}
	var sb strings.Builder
	cum := 0
	for i, b := range h.Buckets {
		cum += b
		bar := strings.Repeat("█", int(math.Round(float64(b)/float64(max)*float64(width))))
		fmt.Fprintf(&sb, "%10.1f–%-10.1f %7d %6.1f%% |%s\n",
			h.Edges[i], h.Edges[i+1], b, 100*float64(cum)/float64(total), bar)
	}
	return sb.String()
}
