package main

import (
	"math"
	"sort"
	"time"
)

// minBeyond is the percentile rule: a percentile is reported only when
// at least this many samples lie beyond it, so a p99 needs 1000 samples.
const minBeyond = 10

// percentile returns the p-th percentile (0 < p < 100) of sorted by the
// nearest-rank method. ok is false when fewer than minBeyond samples lie
// beyond that rank; the value is still the best estimate available.
func percentile(sorted []float64, p float64) (v float64, ok bool) {
	n := len(sorted)
	if n == 0 {
		return 0, false
	}
	rank := int(math.Ceil(p/100*float64(n) - 1e-9)) // 1-based; the epsilon absorbs 99.9/100*1e5 = 99900.00000000001
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1], n-rank >= minBeyond
}

func median(vs []float64) float64 {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// sample is one completed call: when it ended (offset from the phase
// start) and how long it took. Open-loop latencies run from the due
// instant, closed-loop ones from the send.
type sample struct {
	end   time.Duration
	lat   time.Duration
	write bool // feeds the "write" population, not "read"
}

// windowLen is the granularity of the per-window series kept in the
// record so that dispersion inside a run can be derived later.
const windowLen = 2 * time.Second

// window is one windowLen slice of a phase.
type window struct {
	Calls int     `json:"calls"`
	P50us float64 `json:"p50_us"`
}

// dist summarises one latency population.
type dist struct {
	n        int
	p50, p99 float64 // µs
	p99ok    bool
	windows  []window
}

// summarise sorts the samples' latencies and cuts the per-window series.
func summarise(samples []sample, phaseLen time.Duration) dist {
	d := dist{n: len(samples)}
	if d.n == 0 {
		return d
	}
	lats := make([]float64, len(samples))
	nw := int((phaseLen + windowLen - 1) / windowLen)
	if nw < 1 {
		nw = 1
	}
	perWin := make([][]float64, nw)
	for i, s := range samples {
		us := float64(s.lat) / float64(time.Microsecond)
		lats[i] = us
		w := int(s.end / windowLen)
		if w >= nw {
			w = nw - 1
		}
		perWin[w] = append(perWin[w], us)
	}
	sort.Float64s(lats)
	d.p50, _ = percentile(lats, 50)
	d.p99, d.p99ok = percentile(lats, 99)
	for _, w := range perWin {
		sort.Float64s(w)
		p50, _ := percentile(w, 50)
		d.windows = append(d.windows, window{Calls: len(w), P50us: p50})
	}
	return d
}

// spread is the interquartile distance of vs as a share of their
// median — the figure the acceptance contract bounds. statistics.
// quantiles(vs, n=4) in Python uses the exclusive method; so does this.
func spread(vs []float64) float64 {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		return 0
	}
	q := func(k int) float64 { // k-th quartile, exclusive method
		pos := float64(k) * float64(n+1) / 4
		lo := int(math.Floor(pos))
		frac := pos - float64(lo)
		if lo < 1 {
			return s[0]
		}
		if lo >= n {
			return s[n-1]
		}
		return s[lo-1] + frac*(s[lo]-s[lo-1])
	}
	m := median(s)
	if m == 0 {
		return 0
	}
	return (q(3) - q(1)) / math.Abs(m)
}
