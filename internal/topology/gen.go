package topology

import (
	"fmt"
	"math"
	"math/rand"
)

// GenConfig parameterizes the synthetic Internet generator. The shape
// and latency parameters below reproduce the aggregates of the DIMES
// dataset used in the paper.
type GenConfig struct {
	// NumAS is the number of autonomous systems (paper: 26,424).
	NumAS int
	// TargetLinks is the approximate number of inter-AS links
	// (paper: 90,267). The generator tunes attachment arity to hit it.
	TargetLinks int
	// Seed makes generation deterministic.
	Seed int64
}

// The generator's fixed shape parameters.
const (
	// maxCoreSize bounds the fully meshed bootstrap clique, which becomes
	// the Jellyfish core (Shell-0); a small graph's clique is a quarter
	// of its ASs, at least two (coreSize).
	maxCoreSize = 16
	// stubFraction is the probability that a new AS attaches with a
	// single link, producing the degree-1 "hang" nodes of the Jellyfish
	// model.
	stubFraction = 0.30
	// peerLinkFraction is the share of TargetLinks added as random
	// peering links after growth (the peer links §V's analysis ignores
	// but the simulation includes).
	peerLinkFraction = 0.05
	// medianLinkMs is the median of the lognormal inter-AS link latency
	// (the per-hop cost excluding geographic propagation); medianIntraMs
	// that of the intra-AS latency (paper: 3.5 ms).
	medianLinkMs  = 4.5
	medianIntraMs = 3.5
	// linkSigma and intraSigma are the lognormal sigmas of the inter-AS
	// link and intra-AS latencies around medianLinkMs and medianIntraMs.
	linkSigma  = 0.8
	intraSigma = 1.1
	// numRegions splits the ASs into geographic regions (continents).
	// Inter-region links additionally pay a propagation delay given by
	// the distance between region centers, which is what makes replica
	// choice matter: a nearby replica saves an ocean crossing.
	numRegions = 6
	// sameRegionBias is the probability that a growing AS's links attach
	// within its own region.
	sameRegionBias = 0.75
	// regionRadiusMs is the radius (in one-way milliseconds) of the disk
	// region centers are placed on; diametral regions pay up to
	// 2×regionRadiusMs of propagation per crossing.
	regionRadiusMs = 21
	// slowStubFraction of ASs get pathological multi-second intra-AS
	// latency (1–2.5 s), reproducing the long tail the paper traces to
	// AS 23951 in Indonesia.
	slowStubFraction = 0.0005
	// endNodeExponent couples end-node population to degree:
	// endNodes ∝ degree^exponent × lognormal noise.
	endNodeExponent = 1.3
)

// SmallGenConfig scales the topology down for tests and examples while
// keeping the paper's mean degree.
func SmallGenConfig(numAS int, seed int64) GenConfig {
	return GenConfig{NumAS: numAS, TargetLinks: int(float64(numAS) * 3.42), Seed: seed}
}

// coreSize is the bootstrap clique of a numAS-AS graph: a quarter of
// the ASs, within [2, maxCoreSize].
func coreSize(numAS int) int {
	return min(max(numAS/4, 2), maxCoreSize)
}

// Generate builds a Jellyfish-structured AS graph by preferential
// attachment around a fully meshed core, then adds peering links and
// assigns latencies and end-node populations.
func Generate(cfg GenConfig) (*Graph, error) {
	if cfg.NumAS < 2 {
		return nil, fmt.Errorf("topology: NumAS must be >= 2, got %d", cfg.NumAS)
	}
	core := coreSize(cfg.NumAS)
	minLinks := core*(core-1)/2 + (cfg.NumAS - core)
	if cfg.TargetLinks < minLinks {
		return nil, fmt.Errorf("topology: TargetLinks %d below connectivity minimum %d", cfg.TargetLinks, minLinks)
	}

	rng := rand.New(rand.NewSource(cfg.Seed))
	g := newGraph(cfg.NumAS)

	// Geography: region centers on a disk; each AS samples a region with
	// population-skewed weights. Propagation between regions is the
	// Euclidean distance between centers (in one-way milliseconds).
	type point struct{ x, y float64 }
	centers := make([]point, numRegions)
	for i := range centers {
		// Rejection-sample the unit disk, then scale.
		for {
			x, y := 2*rng.Float64()-1, 2*rng.Float64()-1
			if x*x+y*y <= 1 {
				centers[i] = point{x * regionRadiusMs, y * regionRadiusMs}
				break
			}
		}
	}
	regionDist := make([][]float64, numRegions)
	for i := range regionDist {
		regionDist[i] = make([]float64, numRegions)
		for j := range regionDist[i] {
			dx, dy := centers[i].x-centers[j].x, centers[i].y-centers[j].y
			regionDist[i][j] = math.Sqrt(dx*dx + dy*dy)
		}
	}
	regionCDF := make([]float64, numRegions)
	{
		var sum float64
		for i := 0; i < numRegions; i++ {
			regionCDF[i] = 1 / float64(i+1)
			sum += regionCDF[i]
		}
		var cum float64
		for i := range regionCDF {
			cum += regionCDF[i] / sum
			regionCDF[i] = cum
		}
		regionCDF[numRegions-1] = 1
	}
	sampleRegion := func() int16 {
		u := rng.Float64()
		for i, c := range regionCDF {
			if u <= c {
				return int16(i)
			}
		}
		return int16(numRegions - 1)
	}
	for i := 0; i < cfg.NumAS; i++ {
		g.region[i] = sampleRegion()
	}

	linkLat := func(a, b int) Micros {
		ms := medianLinkMs * math.Exp(rng.NormFloat64()*linkSigma)
		ms += regionDist[g.region[a]][g.region[b]]
		return MicrosFromMillis(ms)
	}

	// Bootstrap core clique.
	for i := 0; i < core; i++ {
		for j := i + 1; j < core; j++ {
			if err := g.addEdge(i, j, linkLat(i, j)); err != nil {
				return nil, err
			}
		}
	}

	// endpointBag holds each AS once per incident link, so uniform
	// sampling from it is degree-proportional (preferential attachment).
	bag := make([]int32, 0, 2*cfg.TargetLinks)
	for i := 0; i < core; i++ {
		for range g.adj[i] {
			bag = append(bag, int32(i))
		}
	}

	// Growth arity: stubs take 1 link; others take enough on average to
	// land on TargetLinks after reserving peerLinkFraction.
	// stub is a float64 variable, not the untyped constant, so that 1−stub
	// rounds as float64 arithmetic does.
	stub := float64(stubFraction)
	growthLinks := float64(cfg.TargetLinks)*(1-peerLinkFraction) - float64(g.numLinks)
	grown := cfg.NumAS - core
	meanNonStub := 1.0
	if grown > 0 {
		mean := growthLinks / float64(grown)
		meanNonStub = (mean - stub) / (1 - stub)
		if meanNonStub < 1 {
			meanNonStub = 1
		}
	}

	for v := core; v < cfg.NumAS; v++ {
		m := 1
		if rng.Float64() >= stub {
			// Spread around meanNonStub: uniform on [2, 2*meanNonStub-2].
			lo, hi := 2, int(math.Round(2*meanNonStub))-2
			if hi < lo {
				hi = lo
			}
			m = lo + rng.Intn(hi-lo+1)
		}
		added := 0
		for attempt := 0; added < m && attempt < 40*m; attempt++ {
			target := int(bag[rng.Intn(len(bag))])
			if target == v || g.hasEdge(v, target) {
				continue
			}
			// Geographic attachment bias: most provider links stay in
			// region (real ASs buy transit locally).
			if g.region[target] != g.region[v] && rng.Float64() < sameRegionBias {
				continue
			}
			if err := g.addEdge(v, target, linkLat(v, target)); err != nil {
				return nil, err
			}
			bag = append(bag, int32(v), int32(target))
			added++
		}
		if added == 0 {
			// Degenerate fallback (tiny graphs or isolated regions):
			// attach to some core node we are not yet linked to; the core
			// clique guarantees one exists while v has fewer than
			// core links.
			for c := 0; c < core; c++ {
				if !g.hasEdge(v, c) {
					if err := g.addEdge(v, c, linkLat(v, c)); err != nil {
						return nil, err
					}
					bag = append(bag, int32(v), int32(c))
					break
				}
			}
		}
	}

	// Random peering links, with the same regional bias (IXPs are local).
	wantPeers := cfg.TargetLinks - g.numLinks
	for added, attempt := 0, 0; added < wantPeers && attempt < 50*wantPeers+100; attempt++ {
		a := int(bag[rng.Intn(len(bag))])
		b := int(bag[rng.Intn(len(bag))])
		if a == b || g.hasEdge(a, b) {
			continue
		}
		if g.region[a] != g.region[b] && rng.Float64() < sameRegionBias {
			continue
		}
		if err := g.addEdge(a, b, linkLat(a, b)); err != nil {
			return nil, err
		}
		added++
	}

	// Intra-AS latencies: lognormal around the median, with rare
	// pathological stubs.
	for i := 0; i < cfg.NumAS; i++ {
		ms := medianIntraMs * math.Exp(rng.NormFloat64()*intraSigma)
		if i >= core && g.Degree(i) <= 2 && rng.Float64() < slowStubFraction/stub {
			ms = 1000 + rng.Float64()*1500 // 1–2.5 s one-way, the AS-23951 tail
		}
		g.intra[i] = MicrosFromMillis(ms)
	}

	// End-node populations, coupled to degree.
	for i := 0; i < cfg.NumAS; i++ {
		noise := math.Exp(rng.NormFloat64() * 0.7)
		g.endNodes[i] = math.Pow(float64(g.Degree(i)), endNodeExponent) * noise
	}

	return g, nil
}
