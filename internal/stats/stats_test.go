package stats

import (
	"math"
	"math/rand"
	"testing"
)

func collectorOf(vals ...float64) *Collector {
	c := NewCollector(len(vals))
	for _, v := range vals {
		c.Add(v)
	}
	return c
}

func TestEmptyCollector(t *testing.T) {
	c := NewCollector(0)
	if c.N() != 0 {
		t.Errorf("N = %d", c.N())
	}
	for name, v := range map[string]float64{
		"Mean":      c.Mean(),
		"Median":    c.Median(),
		"P95":       c.Percentile(95),
		"Min":       c.Min(),
		"Max":       c.Max(),
		"FracBelow": c.FractionBelow(1),
	} {
		if !math.IsNaN(v) {
			t.Errorf("%s on empty = %v, want NaN", name, v)
		}
	}
	if c.CDF(10) != nil {
		t.Error("CDF on empty should be nil")
	}
}

func TestMeanMedian(t *testing.T) {
	c := collectorOf(1, 2, 3, 4, 100)
	if got := c.Mean(); got != 22 {
		t.Errorf("Mean = %v, want 22", got)
	}
	if got := c.Median(); got != 3 {
		t.Errorf("Median = %v, want 3", got)
	}
	even := collectorOf(1, 2, 3, 4)
	if got := even.Median(); got != 2.5 {
		t.Errorf("even Median = %v, want 2.5", got)
	}
}

func TestPercentile(t *testing.T) {
	c := NewCollector(100)
	for i := 1; i <= 100; i++ {
		c.Add(float64(i))
	}
	cases := []struct{ p, want float64 }{
		{0, 1}, {100, 100}, {50, 50.5}, {95, 95.05},
	}
	for _, tt := range cases {
		if got := c.Percentile(tt.p); math.Abs(got-tt.want) > 1e-9 {
			t.Errorf("Percentile(%v) = %v, want %v", tt.p, got, tt.want)
		}
	}
	if !math.IsNaN(c.Percentile(-1)) || !math.IsNaN(c.Percentile(101)) {
		t.Error("out-of-range percentile should be NaN")
	}
}

func TestPercentileSingle(t *testing.T) {
	c := collectorOf(42)
	for _, p := range []float64{0, 50, 95, 100} {
		if got := c.Percentile(p); got != 42 {
			t.Errorf("Percentile(%v) = %v, want 42", p, got)
		}
	}
}

func TestAddAfterQueryResorts(t *testing.T) {
	c := collectorOf(5, 1)
	if c.Min() != 1 {
		t.Fatal("Min before add")
	}
	c.Add(0)
	if c.Min() != 0 {
		t.Error("Min after add must see new sample")
	}
}

func TestFractionBelow(t *testing.T) {
	c := collectorOf(10, 20, 30, 40)
	cases := []struct{ x, want float64 }{
		{5, 0}, {10, 0.25}, {25, 0.5}, {40, 1}, {100, 1},
	}
	for _, tt := range cases {
		if got := c.FractionBelow(tt.x); got != tt.want {
			t.Errorf("FractionBelow(%v) = %v, want %v", tt.x, got, tt.want)
		}
	}
}

func TestCDF(t *testing.T) {
	c := NewCollector(1000)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 1000; i++ {
		c.Add(rng.Float64())
	}
	pts := c.CDF(20)
	if len(pts) != 20 {
		t.Fatalf("CDF length %d", len(pts))
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].Value < pts[i-1].Value {
			t.Fatal("CDF values must be non-decreasing")
		}
		if pts[i].Fraction <= pts[i-1].Fraction {
			t.Fatal("CDF fractions must increase")
		}
	}
	if pts[len(pts)-1].Fraction != 1 {
		t.Error("last fraction must be 1")
	}
	// Uniform samples: value at fraction f must be ≈ f.
	for _, p := range pts {
		if math.Abs(p.Value-p.Fraction) > 0.06 {
			t.Errorf("uniform CDF off at %+v", p)
		}
	}
}

func TestMerge(t *testing.T) {
	a := collectorOf(1, 2)
	b := collectorOf(3, 4)
	a.Merge(b)
	if a.N() != 4 || a.Mean() != 2.5 {
		t.Errorf("after merge: n=%d mean=%v", a.N(), a.Mean())
	}
}

func TestSummarize(t *testing.T) {
	c := collectorOf(10, 20, 30)
	s := c.Summarize()
	if s.N != 3 || s.Mean != 20 || s.Median != 20 || s.Min != 10 || s.Max != 30 {
		t.Errorf("Summary = %+v", s)
	}
	if s.String() == "" {
		t.Error("String should format")
	}
}

func TestNormalizedLoadRatios(t *testing.T) {
	// Two ASs: AS 0 owns 25% of announced space and hosts 50% of GUIDs →
	// NLR 2; AS 1 owns 75% and hosts 50% → NLR 2/3.
	hosted := map[int]int{0: 50, 1: 50}
	shares := map[int]float64{0: 0.25, 1: 0.75}
	c := NormalizedLoadRatios(hosted, shares)
	if c.N() != 2 {
		t.Fatalf("N = %d", c.N())
	}
	if got := c.Max(); math.Abs(got-2) > 1e-9 {
		t.Errorf("max NLR = %v, want 2", got)
	}
	if got := c.Min(); math.Abs(got-2.0/3) > 1e-9 {
		t.Errorf("min NLR = %v, want 2/3", got)
	}
}

func TestNormalizedLoadRatiosEdge(t *testing.T) {
	if c := NormalizedLoadRatios(map[int]int{}, map[int]float64{0: 1}); c.N() != 0 {
		t.Error("no hosted GUIDs should give empty collector")
	}
	// AS with share but no hosted GUIDs appears with NLR 0.
	c := NormalizedLoadRatios(map[int]int{0: 10}, map[int]float64{0: 0.5, 1: 0.5})
	if c.N() != 2 || c.Min() != 0 {
		t.Errorf("NLR with idle AS: n=%d min=%v", c.N(), c.Min())
	}
	// Non-positive shares are skipped.
	c = NormalizedLoadRatios(map[int]int{0: 10}, map[int]float64{0: 1, 2: 0})
	if c.N() != 1 {
		t.Errorf("zero-share AS must be skipped: n=%d", c.N())
	}
}
