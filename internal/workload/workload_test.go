package workload

import (
	"math"
	"math/rand"
	"testing"
)

func TestMandelbrotZipfValidation(t *testing.T) {
	if _, err := NewMandelbrotZipf(0, 1, 1); err == nil {
		t.Error("n=0 should fail")
	}
	if _, err := NewMandelbrotZipf(10, 0, 1); err == nil {
		t.Error("alpha=0 should fail")
	}
	if _, err := NewMandelbrotZipf(10, 1, -1); err == nil {
		t.Error("q<0 should fail")
	}
}

func TestMandelbrotZipfProbabilities(t *testing.T) {
	z, err := NewMandelbrotZipf(1000, DefaultAlpha, DefaultQ)
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for k := 0; k < z.N(); k++ {
		p := z.Prob(k)
		if p <= 0 {
			t.Fatalf("Prob(%d) = %v", k, p)
		}
		sum += p
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("probabilities sum to %v", sum)
	}
	// Monotone decreasing in rank.
	for k := 1; k < z.N(); k++ {
		if z.Prob(k) > z.Prob(k-1)+1e-15 {
			t.Fatalf("Prob not monotone at %d", k)
		}
	}
	// The q-flattened head: p(0)/p(1) must equal ((2+q)/(1+q))^α, close
	// to 1 for q=100 (the "flatness" of the peak).
	want := math.Pow((2+DefaultQ)/(1+DefaultQ), DefaultAlpha)
	if got := z.Prob(0) / z.Prob(1); math.Abs(got-want) > 1e-9 {
		t.Errorf("head ratio = %v, want %v", got, want)
	}
	if z.Prob(-1) != 0 || z.Prob(z.N()) != 0 {
		t.Error("out-of-range Prob should be 0")
	}
}

func TestMandelbrotZipfSampleMatchesProb(t *testing.T) {
	z, err := NewMandelbrotZipf(50, 1.02, 10)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	const draws = 200000
	counts := make([]int, z.N())
	for i := 0; i < draws; i++ {
		counts[z.Sample(rng)]++
	}
	for k := 0; k < z.N(); k++ {
		got := float64(counts[k]) / draws
		want := z.Prob(k)
		if math.Abs(got-want) > 0.005+0.2*want {
			t.Errorf("rank %d: empirical %v, want %v", k, got, want)
		}
	}
}

func TestWeightedSamplerValidation(t *testing.T) {
	bad := [][]float64{
		nil,
		{},
		{0, 0},
		{1, -1},
		{math.NaN()},
		{math.Inf(1)},
	}
	for i, w := range bad {
		if _, err := NewWeightedSampler(w); err == nil {
			t.Errorf("weights %d should be rejected", i)
		}
	}
}

func TestWeightedSamplerDistribution(t *testing.T) {
	s, err := NewWeightedSampler([]float64{1, 0, 3})
	if err != nil {
		t.Fatal(err)
	}
	if s.Len() != 3 {
		t.Fatalf("Len = %d", s.Len())
	}
	rng := rand.New(rand.NewSource(2))
	const draws = 100000
	counts := make([]int, 3)
	for i := 0; i < draws; i++ {
		counts[s.Sample(rng)]++
	}
	if counts[1] != 0 {
		t.Errorf("zero-weight index drawn %d times", counts[1])
	}
	if got := float64(counts[0]) / draws; math.Abs(got-0.25) > 0.01 {
		t.Errorf("index 0 frequency = %v, want 0.25", got)
	}
}

func TestGenerateValidation(t *testing.T) {
	weights := []float64{1, 1}
	bad := []TraceConfig{
		{NumGUIDs: 0, SourceWeights: weights},
		{NumGUIDs: 1, NumLookups: -1, SourceWeights: weights},
		{NumGUIDs: 1, SourceWeights: nil},
	}
	for i, cfg := range bad {
		if _, err := Generate(cfg); err == nil {
			t.Errorf("config %d should fail: %+v", i, cfg)
		}
	}
}

func TestGenerateShape(t *testing.T) {
	cfg := TraceConfig{
		NumGUIDs:      100,
		NumLookups:    1000,
		SourceWeights: []float64{1, 2, 3, 4},
		Seed:          3,
	}
	tr, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Lookups) != 1000 {
		t.Errorf("lookups = %d", len(tr.Lookups))
	}
	if len(tr.HomeAS) != 100 {
		t.Errorf("HomeAS length = %d", len(tr.HomeAS))
	}
	for i, home := range tr.HomeAS {
		if home < 0 || home >= 4 {
			t.Fatalf("HomeAS[%d] = %d out of range", i, home)
		}
	}
	for _, e := range tr.Lookups {
		if e.GUIDIndex < 0 || e.GUIDIndex >= 100 {
			t.Fatalf("GUIDIndex %d out of range", e.GUIDIndex)
		}
		if e.SrcAS < 0 || e.SrcAS >= 4 {
			t.Fatalf("SrcAS %d out of range", e.SrcAS)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	cfg := TraceConfig{NumGUIDs: 50, NumLookups: 200, SourceWeights: []float64{1, 1, 1}, Seed: 9}
	t1, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t2, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range t1.Lookups {
		if t1.Lookups[i] != t2.Lookups[i] {
			t.Fatalf("lookup %d differs", i)
		}
	}
	cfg.Seed = 10
	t3, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for i := range t1.Lookups {
		if t1.Lookups[i] != t3.Lookups[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds gave identical traces")
	}
}

func TestGeneratePopularitySkew(t *testing.T) {
	cfg := TraceConfig{
		NumGUIDs:      1000,
		NumLookups:    50000,
		SourceWeights: []float64{1},
		Seed:          4,
	}
	tr, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	counts := make([]int, cfg.NumGUIDs)
	for _, e := range tr.Lookups {
		counts[e.GUIDIndex]++
	}
	// Top decile of ranks must take the majority of lookups under the
	// paper's α=1.02, q=100.
	var top int
	for _, c := range counts[:100] {
		top += c
	}
	// Uniform would give 0.10; with q=100 flattening the head, the
	// Mandelbrot-Zipf law concentrates ≈0.29 here.
	if frac := float64(top) / float64(len(tr.Lookups)); frac < 0.25 {
		t.Errorf("top-100 ranks took %.2f of lookups, want > 0.25", frac)
	}
}
