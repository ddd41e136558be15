package prefixtable

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"sort"

	"dmap/internal/netaddr"
)

// GenConfig parameterizes the synthetic default-free-zone generator that
// substitutes for the APNIC DIX-IE BGP snapshot used in the paper (§IV-B1,
// [21]): roughly 330,000 prefixes spanning close to 52% of the 32-bit
// address space, announced by ~26k ASs with heavy-tailed per-AS shares.
type GenConfig struct {
	// NumAS is the number of autonomous systems that may announce
	// prefixes (indices [0, NumAS)).
	NumAS int
	// NumPrefixes is the approximate number of prefixes to announce.
	NumPrefixes int
	// Seed makes generation deterministic.
	Seed int64
}

// announcedFraction is the approximate share of the IPv4 space that a
// generated table announces (the paper measures 0.52–0.55; 1−fraction is
// the per-hash hole probability).
const announcedFraction = 0.52

// shareSkew is the Pareto exponent of per-AS address share; larger
// means a few ASs own most of the space. 0.9 yields a realistic mix of
// /8-scale carriers and /24 stubs.
const shareSkew = 0.9

// DefaultGenConfig mirrors the paper's measured DFZ at full scale.
func DefaultGenConfig(seed int64) GenConfig {
	return GenConfig{
		NumAS:       26424,
		NumPrefixes: 330000,
		Seed:        seed,
	}
}

// prefixLengthCDF approximates the real DFZ prefix-length distribution:
// /24s dominate the count while /8–/16 blocks dominate the coverage.
// Pairs of (prefix length, cumulative probability).
var prefixLengthCDF = []struct {
	bits int
	cum  float64
}{
	{8, 0.0001},
	{10, 0.0005},
	{12, 0.002},
	{13, 0.005},
	{14, 0.012},
	{15, 0.022},
	{16, 0.062},
	{17, 0.082},
	{18, 0.115},
	{19, 0.165},
	{20, 0.235},
	{21, 0.305},
	{22, 0.405},
	{23, 0.475},
	{24, 1.0},
}

func drawPrefixLength(rng *rand.Rand) int {
	u := rng.Float64()
	for _, p := range prefixLengthCDF {
		if u <= p.cum {
			return p.bits
		}
	}
	return 24
}

// Generate synthesizes a DFZ table per cfg. The resulting table has no
// overlapping announcements; holes appear both as large reserved ranges
// (multicast-style high /4s) and as scattered unallocated blocks, so that
// rehashing in Algorithm 1 sees a realistic hole structure.
func Generate(cfg GenConfig) (*Table, error) {
	if cfg.NumAS <= 0 {
		return nil, fmt.Errorf("prefixtable: NumAS must be positive, got %d", cfg.NumAS)
	}
	if cfg.NumPrefixes <= 0 {
		return nil, fmt.Errorf("prefixtable: NumPrefixes must be positive, got %d", cfg.NumPrefixes)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	t := New()

	// Carve the space into /12 super-blocks (4096 of them) and announce a
	// fraction of them chosen to hit the coverage target. The top /4
	// (multicast + reserved, 224.0.0.0/4) is never announced, mirroring
	// the reserved ranges of the real space.
	const superBits = 12
	const numSuper = 1 << superBits

	// Presize the table so that it is built without regrowing. Measured
	// at full scale: the block fill adds about 4% to NumPrefixes, the
	// trie has two nodes per prefix plus the levels above the /12 blocks,
	// and one /16 in about 76 prefixes gets a level-2 chunk (no generated
	// prefix is longer than /24, so there are no level-3 chunks).
	ents := cfg.NumPrefixes + cfg.NumPrefixes/16
	t.nodes = append(make([]node, 0, 2*ents+2*numSuper), t.nodes...)
	t.entries = make([]Entry, 0, ents)
	t.chunks = make([]chunk, 0, cfg.NumPrefixes/64)

	candidates := make([]int, 0, numSuper)
	for i := 0; i < numSuper; i++ {
		if i>>(superBits-4) == 0xE || i>>(superBits-4) == 0xF {
			continue // 224/4 and 240/4 reserved (multicast etc.), 12.5% of space
		}
		candidates = append(candidates, i)
	}
	rng.Shuffle(len(candidates), func(i, j int) {
		candidates[i], candidates[j] = candidates[j], candidates[i]
	})

	announced := candidates[:int(math.Floor(announcedFraction*numSuper))]
	sort.Ints(announced)

	// Per-AS Pareto weights turned into a sampling alias-free CDF.
	asCDF := newCDFSampler(paretoCDF(cfg.NumAS, shareSkew, rng))

	// Aim the count: each super-block is carved into approximately
	// perBlock prefixes, adjusting lengths so packing stays exact.
	perBlock := cfg.NumPrefixes / len(announced)
	if perBlock < 1 {
		perBlock = 1
	}

	for _, blk := range announced {
		start := uint32(blk) << (32 - superBits)
		end := uint64(start) + (1 << (32 - superBits))
		cur := uint64(start)
		carved := 0
		for cur < end {
			var length int
			if carved < perBlock-1 {
				length = drawPrefixLength(rng)
			} else {
				// Fill the remainder with the largest aligned pieces so
				// the block is fully covered without exploding the count.
				length = superBits
			}
			if length < superBits {
				length = superBits
			}
			// The largest prefix starting at cur is limited by cur's
			// alignment and by the space left in the block.
			if cur != 0 {
				if align := 32 - bits.TrailingZeros32(uint32(cur)); length < align {
					length = align
				}
			}
			for uint64(1)<<(32-length) > end-cur {
				length++
			}
			p, err := netaddr.NewPrefix(netaddr.Addr(cur), length)
			if err != nil {
				return nil, fmt.Errorf("prefixtable: generator produced bad prefix: %w", err)
			}
			if err := t.Announce(p, asCDF.sample(rng.Float64())); err != nil {
				return nil, err
			}
			carved++
			cur += uint64(1) << (32 - length)
		}
	}
	return t, nil
}

// paretoCDF builds a cumulative distribution over n ASs with Pareto-like
// weights w_i = (i+1)^(-skew), randomly permuted so AS index carries no
// size information.
func paretoCDF(n int, skew float64, rng *rand.Rand) []float64 {
	weights := make([]float64, n)
	perm := rng.Perm(n)
	var total float64
	for i := 0; i < n; i++ {
		w := 1.0 / math.Pow(float64(i+1), skew)
		weights[perm[i]] = w
		total += w
	}
	cdf := make([]float64, n)
	var cum float64
	for i, w := range weights {
		cum += w / total
		cdf[i] = cum
	}
	cdf[n-1] = 1.0
	return cdf
}

// cdfSampler inverts a CDF by a guide table: guide[j] is the first index
// whose cumulative probability reaches j/len(guide), so the answer for u
// lies at or just above guide[⌊u·len(guide)⌋]. The walk from there is
// checked against cdf itself in both directions, which makes sample equal
// sort.SearchFloat64s(cdf, u) for every u however u·len(guide) rounds;
// with one bucket per index it takes about one step.
type cdfSampler struct {
	cdf   []float64
	guide []int32
}

func newCDFSampler(cdf []float64) cdfSampler {
	guide := make([]int32, len(cdf))
	m := float64(len(guide))
	i := 0
	for j := range guide {
		for i < len(cdf)-1 && cdf[i] < float64(j)/m {
			i++
		}
		guide[j] = int32(i)
	}
	return cdfSampler{cdf: cdf, guide: guide}
}

// sample returns the smallest index i with cdf[i] ≥ u, for u in [0, 1).
func (s cdfSampler) sample(u float64) int {
	j := int(u * float64(len(s.guide)))
	if j >= len(s.guide) {
		j = len(s.guide) - 1
	}
	i := int(s.guide[j])
	for i > 0 && s.cdf[i-1] >= u {
		i--
	}
	for i < len(s.cdf) && s.cdf[i] < u {
		i++
	}
	return i
}
