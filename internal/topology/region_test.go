package topology

import (
	"testing"
)

func TestRegionsAssigned(t *testing.T) {
	g := testGraph(t, 3000, 12)
	counts := make(map[int]int)
	for i := 0; i < g.NumAS(); i++ {
		r := g.Region(i)
		if r < 0 || r >= numRegions {
			t.Fatalf("AS %d region %d out of range", i, r)
		}
		counts[r]++
	}
	if len(counts) != numRegions {
		t.Errorf("only %d/%d regions populated", len(counts), numRegions)
	}
	// Region weights are 1/(i+1)-skewed: region 0 must dominate region
	// numRegions-1.
	if counts[0] <= counts[numRegions-1] {
		t.Errorf("region sizes not skewed: %v", counts)
	}
}

func TestRegionalAttachmentBias(t *testing.T) {
	g := testGraph(t, 3000, 13)
	same, cross := 0, 0
	for as := 0; as < g.NumAS(); as++ {
		g.Neighbors(as, func(to int, _ Micros) {
			if to < as {
				return // count each undirected link once
			}
			if g.Region(as) == g.Region(to) {
				same++
			} else {
				cross++
			}
		})
	}
	total := same + cross
	// With sameRegionBias = 0.75, intra-region links must clearly
	// dominate what region sizes alone would produce. A null model with
	// the skewed region weights gives ≈26% same-region link endpoints;
	// require well above that.
	if frac := float64(same) / float64(total); frac < 0.5 {
		t.Errorf("same-region link fraction = %.2f, want > 0.5 (bias active)", frac)
	}
}

func TestCrossRegionLinksPayPropagation(t *testing.T) {
	g := testGraph(t, 3000, 14)
	intraCol := NewLatencySampler()
	crossCol := NewLatencySampler()
	for as := 0; as < g.NumAS(); as++ {
		g.Neighbors(as, func(to int, lat Micros) {
			if to < as {
				return
			}
			if g.Region(as) == g.Region(to) {
				intraCol.add(lat)
			} else {
				crossCol.add(lat)
			}
		})
	}
	if crossCol.n == 0 || intraCol.n == 0 {
		t.Fatal("need both link kinds")
	}
	if crossCol.mean() < 1.5*intraCol.mean() {
		t.Errorf("cross-region links (%.1f ms) not clearly slower than intra (%.1f ms)",
			crossCol.mean()/1000, intraCol.mean()/1000)
	}
}

// NewLatencySampler is a minimal mean accumulator for tests.
type latencySampler struct {
	sum Micros
	n   int
}

func NewLatencySampler() *latencySampler { return &latencySampler{} }

func (s *latencySampler) add(v Micros) {
	s.sum += v
	s.n++
}

func (s *latencySampler) mean() float64 {
	if s.n == 0 {
		return 0
	}
	return float64(s.sum) / float64(s.n)
}

func TestMinOfKReplicasBenefitsFromGeography(t *testing.T) {
	// The property the regions exist for: picking the best of 5 random
	// ASs beats 1 random AS by a wide margin at the tail.
	g := testGraph(t, 2000, 15)
	dist := make([]Micros, g.NumAS())
	g.Dijkstra(100, dist)

	var single, best5 float64
	const trials = 500
	rngIdx := 0
	next := func() int {
		rngIdx = (rngIdx*1103515245 + 12345) & 0x7FFFFFFF
		return rngIdx % g.NumAS()
	}
	for i := 0; i < trials; i++ {
		t1 := g.RTT(100, next(), dist)
		single += t1.Millis()
		min := InfMicros
		for j := 0; j < 5; j++ {
			if r := g.RTT(100, next(), dist); r < min {
				min = r
			}
		}
		best5 += min.Millis()
	}
	if best5 >= single*0.85 {
		t.Errorf("min-of-5 (%.1f) should beat single (%.1f) clearly",
			best5/trials, single/trials)
	}
}
