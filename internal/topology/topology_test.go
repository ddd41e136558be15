package topology

import (
	"math"
	"sort"
	"testing"
)

func testGraph(t *testing.T, numAS int, seed int64) *Graph {
	t.Helper()
	g, err := Generate(SmallGenConfig(numAS, seed))
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestGenerateValidation(t *testing.T) {
	bad := []GenConfig{
		{NumAS: 1, TargetLinks: 100},
		{NumAS: 100, TargetLinks: 10}, // below connectivity minimum
	}
	for i, cfg := range bad {
		if _, err := Generate(cfg); err == nil {
			t.Errorf("config %d should be rejected: %+v", i, cfg)
		}
	}
}

// TestGenerateCoreSize pins the bootstrap clique Generate derives from
// NumAS to the clamp its callers applied to the 16-AS default core
// before it was derived: a quarter of the ASs, at least 2, at most 16.
// The first that many ASs are fully meshed.
func TestGenerateCoreSize(t *testing.T) {
	for _, numAS := range []int{8, 64, 2000} {
		want := 16
		if want > numAS/4 {
			want = max(numAS/4, 2)
		}
		if got := coreSize(numAS); got != want {
			t.Errorf("coreSize(%d) = %d, want %d", numAS, got, want)
		}
		g := testGraph(t, numAS, 1)
		for i := 0; i < want; i++ {
			for j := i + 1; j < want; j++ {
				if !g.hasEdge(i, j) {
					t.Errorf("NumAS %d: core ASs %d and %d not linked", numAS, i, j)
				}
			}
		}
	}
}

func TestGenerateBasicShape(t *testing.T) {
	const n = 2000
	g := testGraph(t, n, 1)
	if g.NumAS() != n {
		t.Fatalf("NumAS = %d, want %d", g.NumAS(), n)
	}
	target := SmallGenConfig(n, 1).TargetLinks
	if got := g.NumLinks(); got < target*8/10 || got > target*12/10 {
		t.Errorf("NumLinks = %d, want within 20%% of %d", got, target)
	}
	// Degrees: positive everywhere (connected), heavy-tailed at the top.
	maxDeg := 0
	for i := 0; i < n; i++ {
		d := g.Degree(i)
		if d == 0 {
			t.Fatalf("AS %d has degree 0", i)
		}
		if d > maxDeg {
			maxDeg = d
		}
	}
	avgDeg := 2 * float64(g.NumLinks()) / float64(n)
	if float64(maxDeg) < 8*avgDeg {
		t.Errorf("max degree %d not heavy-tailed vs average %.1f", maxDeg, avgDeg)
	}
}

func TestGenerateConnected(t *testing.T) {
	g := testGraph(t, 1000, 2)
	hops := make([]int32, g.NumAS())
	g.HopBFS(0, hops)
	for i, h := range hops {
		if h < 0 {
			t.Fatalf("AS %d unreachable from AS 0", i)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	g1 := testGraph(t, 500, 7)
	g2 := testGraph(t, 500, 7)
	if g1.NumLinks() != g2.NumLinks() {
		t.Fatalf("link counts differ: %d vs %d", g1.NumLinks(), g2.NumLinks())
	}
	for i := 0; i < g1.NumAS(); i++ {
		if g1.Intra(i) != g2.Intra(i) {
			t.Fatalf("intra latency differs at AS %d", i)
		}
		if g1.Degree(i) != g2.Degree(i) {
			t.Fatalf("degree differs at AS %d", i)
		}
	}
}

func TestIntraLatencyDistribution(t *testing.T) {
	g := testGraph(t, 5000, 3)
	lat := make([]float64, g.NumAS())
	for i := range lat {
		lat[i] = g.Intra(i).Millis()
	}
	sort.Float64s(lat)
	median := lat[len(lat)/2]
	if math.Abs(median-3.5) > 1.0 {
		t.Errorf("median intra-AS latency = %.2f ms, want ≈3.5 ms", median)
	}
	if lat[0] <= 0 {
		t.Errorf("non-positive intra latency %v", lat[0])
	}
}

func TestDijkstraSmallKnownGraph(t *testing.T) {
	// Hand-built diamond: 0–1 (10ms), 0–2 (1ms), 2–1 (2ms), 1–3 (1ms).
	g := newGraph(4)
	mustAdd := func(a, b int, ms float64) {
		t.Helper()
		if err := g.addEdge(a, b, MicrosFromMillis(ms)); err != nil {
			t.Fatal(err)
		}
	}
	mustAdd(0, 1, 10)
	mustAdd(0, 2, 1)
	mustAdd(2, 1, 2)
	mustAdd(1, 3, 1)

	dist := make([]Micros, 4)
	g.Dijkstra(0, dist)
	want := []float64{0, 3, 1, 4} // via 0–2–1(–3)
	for i, w := range want {
		if dist[i].Millis() != w {
			t.Errorf("dist[%d] = %v ms, want %v", i, dist[i].Millis(), w)
		}
	}

	hops := make([]int32, 4)
	g.HopBFS(0, hops)
	wantHops := []int32{0, 1, 1, 2}
	for i, w := range wantHops {
		if hops[i] != w {
			t.Errorf("hops[%d] = %d, want %d", i, hops[i], w)
		}
	}
}

func TestDijkstraSymmetry(t *testing.T) {
	g := testGraph(t, 300, 5)
	d0 := make([]Micros, g.NumAS())
	d1 := make([]Micros, g.NumAS())
	for _, pair := range [][2]int{{0, 100}, {5, 250}, {42, 43}} {
		g.Dijkstra(pair[0], d0)
		g.Dijkstra(pair[1], d1)
		if d0[pair[1]] != d1[pair[0]] {
			t.Errorf("asymmetric distance %d↔%d: %v vs %v", pair[0], pair[1], d0[pair[1]], d1[pair[0]])
		}
	}
}

func TestDijkstraTriangleInequality(t *testing.T) {
	g := testGraph(t, 200, 6)
	n := g.NumAS()
	da := make([]Micros, n)
	db := make([]Micros, n)
	g.Dijkstra(10, da)
	g.Dijkstra(20, db)
	for v := 0; v < n; v++ {
		if da[v] > da[20]+db[v] {
			t.Fatalf("triangle violated: d(10,%d)=%v > d(10,20)+d(20,%d)=%v",
				v, da[v], v, da[20]+db[v])
		}
	}
}

func TestOneWayAndRTT(t *testing.T) {
	g := newGraph(2)
	if err := g.addEdge(0, 1, MicrosFromMillis(10)); err != nil {
		t.Fatal(err)
	}
	g.intra[0] = MicrosFromMillis(2)
	g.intra[1] = MicrosFromMillis(4)
	dist := make([]Micros, 2)
	g.Dijkstra(0, dist)

	if got := g.OneWay(0, 1, dist); got.Millis() != 13 { // 1 + 10 + 2
		t.Errorf("OneWay = %v ms, want 13", got.Millis())
	}
	if got := g.RTT(0, 1, dist); got.Millis() != 26 {
		t.Errorf("RTT = %v ms, want 26", got.Millis())
	}
	if got := g.OneWay(0, 0, dist); got != g.Intra(0) {
		t.Errorf("same-AS OneWay = %v, want intra %v", got, g.Intra(0))
	}
}

func TestEndNodeWeights(t *testing.T) {
	g := testGraph(t, 1000, 8)
	w := g.EndNodeWeights()
	if len(w) != g.NumAS() {
		t.Fatalf("weights length %d", len(w))
	}
	var max float64
	var sum float64
	for i, v := range w {
		if v <= 0 {
			t.Fatalf("AS %d weight %v", i, v)
		}
		if v > max {
			max = v
		}
		sum += v
	}
	// High-degree ASs should dwarf the average (population skew).
	if max < 20*sum/float64(len(w)) {
		t.Errorf("end-node weights not skewed: max=%v avg=%v", max, sum/float64(len(w)))
	}
}

func TestJellyfishDecomposition(t *testing.T) {
	g := testGraph(t, 2000, 4)
	jf := DecomposeJellyfish(g)

	if len(jf.Core) < 2 {
		t.Fatalf("core size %d, want >= 2", len(jf.Core))
	}
	// Core must be a clique.
	for i := 0; i < len(jf.Core); i++ {
		for j := i + 1; j < len(jf.Core); j++ {
			if !g.hasEdge(jf.Core[i], jf.Core[j]) {
				t.Fatalf("core members %d and %d not adjacent", jf.Core[i], jf.Core[j])
			}
		}
	}
	// Fractions sum to 1 (graph is connected) and layer 0 matches core.
	var sum float64
	for _, f := range jf.LayerFractions {
		sum += f
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("layer fractions sum to %v, want 1", sum)
	}
	if got := jf.LayerFractions[0]; got != float64(len(jf.Core))/float64(g.NumAS()) {
		t.Errorf("layer 0 fraction %v inconsistent with core size %d", got, len(jf.Core))
	}
	for i, l := range jf.LayerOf {
		if l < 0 || l >= jf.NumLayers() {
			t.Fatalf("AS %d layer %d out of range", i, l)
		}
	}
	// The Internet-like graph should be shallow: a handful of layers.
	if jf.NumLayers() > 12 {
		t.Errorf("NumLayers = %d, implausibly deep", jf.NumLayers())
	}
}

// cached reports whether c holds src's distance vector.
func cached(c *DistCache, src int) bool {
	sh := &c.shards[src%len(c.shards)]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	_, ok := sh.m[src]
	return ok
}

func TestDistCache(t *testing.T) {
	g := testGraph(t, 300, 9)
	c, err := NewDistCache(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	dist := make([]Micros, g.NumAS())
	g.Dijkstra(5, dist)
	want := g.RTT(5, 200, dist)
	if got := c.RTT(5, 200); got != want {
		t.Errorf("cache RTT = %v, want %v", got, want)
	}
	if got := c.RTT(5, 200); got != want { // hit path
		t.Errorf("cached RTT = %v, want %v", got, want)
	}
	if !cached(c, 5) {
		t.Error("source 5 not cached after its query")
	}
	// Evict: fill beyond capacity (one slot per shard), then re-query the
	// first source.
	c.OneWay(6, 1)
	c.OneWay(7, 1)
	if cached(c, 5) || !cached(c, 7) {
		t.Errorf("after sources 6 and 7: source 5 cached %t, 7 cached %t; want 5 evicted (LRU)", cached(c, 5), cached(c, 7))
	}
	g.Dijkstra(5, dist)
	if got, want := c.OneWay(5, 1), g.OneWay(5, 1, dist); got != want {
		t.Errorf("re-queried OneWay(5, 1) = %v, want %v", got, want)
	}
	if got := c.RTT(5, 5); got != 2*g.Intra(5) {
		t.Errorf("same-AS RTT = %v, want %v", got, 2*g.Intra(5))
	}
}

func TestDistCacheValidation(t *testing.T) {
	g := testGraph(t, 50, 1)
	if _, err := NewDistCache(g, 0); err == nil {
		t.Error("capacity 0 should be rejected")
	}
}

func TestMicrosConversions(t *testing.T) {
	m := MicrosFromMillis(12.5)
	if m != 12500 {
		t.Errorf("MicrosFromMillis(12.5) = %d", m)
	}
	if m.Millis() != 12.5 {
		t.Errorf("Millis() = %v", m.Millis())
	}
}

func TestComputeStats(t *testing.T) {
	g := testGraph(t, 2000, 16)
	st := ComputeStats(g)
	if st.NumAS != 2000 || st.NumLinks != g.NumLinks() {
		t.Errorf("counts: %+v", st)
	}
	wantMean := 2 * float64(g.NumLinks()) / 2000
	if st.MeanDegree != wantMean {
		t.Errorf("mean degree %v, want %v", st.MeanDegree, wantMean)
	}
	if st.Degree1Count == 0 {
		t.Error("expected some degree-1 hangs")
	}
	if st.MedianIntraMs < 2 || st.MedianIntraMs > 5 {
		t.Errorf("median intra %v, want ≈3.5", st.MedianIntraMs)
	}
	if st.P95LinkMs <= st.MedianLinkMs {
		t.Error("p95 link latency must exceed median")
	}
	if st.CoreSize < 2 || st.NumLayers < 2 {
		t.Errorf("jellyfish: %+v", st)
	}
	var fracSum float64
	for _, f := range st.LayerFractions {
		fracSum += f
	}
	if fracSum < 0.999 || fracSum > 1.001 {
		t.Errorf("layer fractions sum %v", fracSum)
	}
	if st.NumRegions != numRegions {
		t.Errorf("regions = %d", st.NumRegions)
	}
	if st.SameRegionLinkShare < 0.4 {
		t.Errorf("same-region share %v, bias not visible", st.SameRegionLinkShare)
	}
	if st.String() == "" {
		t.Error("String output")
	}
}
