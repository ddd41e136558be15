// Package workload generates the traffic that drives the evaluation:
// Mandelbrot-Zipf GUID popularity (Eq. 1 of the paper, following [26],
// [27]) and end-node-weighted source-AS selection, so that "more lookup
// requests are generated from more densely populated areas" (§VI).
package workload

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
)

// MandelbrotZipf samples object ranks with probability
//
//	p(k) = H / (k + q)^α,  H = 1 / Σ_{k=1..N} 1/(k+q)^α
//
// with α controlling skewness and q flattening the head (paper values
// α = 1.02, q = 100).
type MandelbrotZipf struct {
	n     int
	alpha float64
	q     float64
	cdf   []float64
}

// Paper parameter values (§IV-B1, following Saleh & Hefeeda [27]).
const (
	DefaultAlpha = 1.02
	DefaultQ     = 100.0
)

// NewMandelbrotZipf builds a sampler over ranks [0, n).
func NewMandelbrotZipf(n int, alpha, q float64) (*MandelbrotZipf, error) {
	if n <= 0 {
		return nil, fmt.Errorf("workload: population size must be positive, got %d", n)
	}
	if alpha <= 0 {
		return nil, fmt.Errorf("workload: alpha must be positive, got %g", alpha)
	}
	if q < 0 {
		return nil, fmt.Errorf("workload: q must be non-negative, got %g", q)
	}
	z := &MandelbrotZipf{n: n, alpha: alpha, q: q, cdf: make([]float64, n)}
	var sum float64
	for k := 0; k < n; k++ {
		sum += 1 / math.Pow(float64(k+1)+q, alpha)
		z.cdf[k] = sum
	}
	for k := range z.cdf {
		z.cdf[k] /= sum
	}
	z.cdf[n-1] = 1
	return z, nil
}

// N returns the population size.
func (z *MandelbrotZipf) N() int { return z.n }

// Prob returns p(k) for 0-based rank k.
func (z *MandelbrotZipf) Prob(k int) float64 {
	if k < 0 || k >= z.n {
		return 0
	}
	if k == 0 {
		return z.cdf[0]
	}
	return z.cdf[k] - z.cdf[k-1]
}

// Sample draws a 0-based rank.
func (z *MandelbrotZipf) Sample(rng *rand.Rand) int {
	return sort.SearchFloat64s(z.cdf, rng.Float64())
}

// WeightedSampler draws indices proportionally to fixed non-negative
// weights (used for end-node-weighted source ASs).
type WeightedSampler struct {
	cdf []float64
}

// NewWeightedSampler builds a sampler over len(weights) indices. At least
// one weight must be positive and none may be negative or non-finite.
func NewWeightedSampler(weights []float64) (*WeightedSampler, error) {
	if len(weights) == 0 {
		return nil, fmt.Errorf("workload: no weights")
	}
	cdf := make([]float64, len(weights))
	var sum float64
	for i, w := range weights {
		if w < 0 || math.IsNaN(w) || math.IsInf(w, 0) {
			return nil, fmt.Errorf("workload: bad weight %g at index %d", w, i)
		}
		sum += w
		cdf[i] = sum
	}
	if sum <= 0 {
		return nil, fmt.Errorf("workload: all weights are zero")
	}
	for i := range cdf {
		cdf[i] /= sum
	}
	cdf[len(cdf)-1] = 1
	return &WeightedSampler{cdf: cdf}, nil
}

// Sample draws an index.
func (s *WeightedSampler) Sample(rng *rand.Rand) int {
	return sort.SearchFloat64s(s.cdf, rng.Float64())
}

// Len returns the number of indices.
func (s *WeightedSampler) Len() int { return len(s.cdf) }

// Event is one lookup: SrcAS queries the GUID with index GUIDIndex.
type Event struct {
	GUIDIndex int
	SrcAS     int
}

// TraceConfig parameterizes Generate.
type TraceConfig struct {
	// NumGUIDs is the GUID population; each is attached once to a
	// weighted-random home AS.
	NumGUIDs int
	// NumLookups queries drawn from the Mandelbrot-Zipf popularity.
	NumLookups int
	// SourceWeights are the per-AS end-node weights.
	SourceWeights []float64
	// Seed fixes the PRNG.
	Seed int64
}

// Trace is a generated workload: HomeAS[i] is the AS where GUID i is
// attached; Lookups measure the mappings.
type Trace struct {
	Lookups []Event
	HomeAS  []int
}

// Generate builds a reproducible trace per cfg. Lookup sources and GUID
// homes are both drawn from SourceWeights; lookup targets follow the
// popularity law over GUID indices (rank == index: GUID 0 is the most
// popular).
func Generate(cfg TraceConfig) (*Trace, error) {
	if cfg.NumGUIDs <= 0 {
		return nil, fmt.Errorf("workload: NumGUIDs must be positive, got %d", cfg.NumGUIDs)
	}
	if cfg.NumLookups < 0 {
		return nil, fmt.Errorf("workload: negative lookup count")
	}
	src, err := NewWeightedSampler(cfg.SourceWeights)
	if err != nil {
		return nil, err
	}
	pop, err := NewMandelbrotZipf(cfg.NumGUIDs, DefaultAlpha, DefaultQ)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))

	tr := &Trace{
		Lookups: make([]Event, cfg.NumLookups),
		HomeAS:  make([]int, cfg.NumGUIDs),
	}
	for i := range tr.HomeAS {
		tr.HomeAS[i] = src.Sample(rng)
	}
	for i := range tr.Lookups {
		// The target is drawn before the source: the draw order fixes
		// every seed's trace.
		tr.Lookups[i].GUIDIndex = pop.Sample(rng)
		tr.Lookups[i].SrcAS = src.Sample(rng)
	}
	return tr, nil
}
