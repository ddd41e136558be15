package experiments

import (
	"fmt"
	"sort"
	"strings"

	"dmap/internal/core"
	"dmap/internal/guid"
	"dmap/internal/stats"
)

// LoadConfig drives the storage-distribution experiment (Fig. 6).
type LoadConfig struct {
	// GUIDCounts are the population sizes to evaluate (paper: 10^5, 10^6,
	// 10^7).
	GUIDCounts []int
	// K is the replication factor (paper: 5).
	K int
	// HashToASNumbers evaluates the §VII AS-number variant instead.
	HashToASNumbers bool
}

// LoadResult holds the Normalized Load Ratio distribution per population
// size.
type LoadResult struct {
	// PerCount maps GUID count to the NLR distribution over announcing
	// ASs.
	PerCount map[int]*stats.Collector
	// WithinBand maps GUID count to the fraction of ASs with NLR in
	// [0.4, 1.6] (the paper reports 93% at 10^7).
	WithinBand map[int]float64
}

// RunLoad inserts the configured GUID populations and measures how
// hosting load tracks announced address share (§IV-B2c). Only placement
// counts are kept, so populations of 10^7 GUIDs fit easily.
func RunLoad(w *World, cfg LoadConfig) (*LoadResult, error) {
	if len(cfg.GUIDCounts) == 0 {
		return nil, fmt.Errorf("experiments: no GUID counts")
	}
	if cfg.K <= 0 {
		return nil, fmt.Errorf("experiments: K must be positive, got %d", cfg.K)
	}
	resolver := w.resolver(cfg.K, cfg.HashToASNumbers)

	shares := w.announcedShares()
	if cfg.HashToASNumbers {
		// The AS-number variant spreads uniformly over all ASs, so the
		// fair share is 1/NumAS for every AS.
		shares = make(map[int]float64, w.NumAS())
		for as := 0; as < w.NumAS(); as++ {
			shares[as] = 1.0 / float64(w.NumAS())
		}
	}

	counts := append([]int(nil), cfg.GUIDCounts...)
	sort.Ints(counts)
	maxCount := counts[len(counts)-1]

	res := &LoadResult{
		PerCount:   make(map[int]*stats.Collector, len(counts)),
		WithinBand: make(map[int]float64, len(counts)),
	}
	hosted := make(map[int]int, w.NumAS())
	next := 0
	for gi := 1; gi <= maxCount; gi++ {
		g := guid.FromUint64(uint64(gi))
		for r := 0; r < cfg.K; r++ {
			p, err := resolver.PlaceReplica(g, r)
			if err != nil {
				return nil, err
			}
			hosted[p.AS]++
		}
		if gi == counts[next] {
			col := stats.NormalizedLoadRatios(hosted, shares)
			res.PerCount[gi] = col
			res.WithinBand[gi] = bandFraction(col, 0.4, 1.6)
			next++
		}
	}
	return res, nil
}

func bandFraction(c *stats.Collector, lo, hi float64) float64 {
	if c.N() == 0 {
		return 0
	}
	return c.FractionBelow(hi) - c.FractionBelow(lo) + frontierAt(c, lo)
}

// frontierAt counts the mass exactly at lo (FractionBelow is inclusive).
func frontierAt(c *stats.Collector, lo float64) float64 {
	eps := lo * 1e-12
	return c.FractionBelow(lo) - c.FractionBelow(lo-eps)
}

// String renders Fig. 6 as summary rows.
func (r *LoadResult) String() string {
	counts := make([]int, 0, len(r.PerCount))
	for c := range r.PerCount {
		counts = append(counts, c)
	}
	sort.Ints(counts)
	var b strings.Builder
	fmt.Fprintf(&b, "%-12s %8s %8s %8s %8s %14s\n", "#GUIDs", "median", "mean", "p5", "p95", "in[0.4,1.6]")
	for _, c := range counts {
		col := r.PerCount[c]
		fmt.Fprintf(&b, "%-12d %8.2f %8.2f %8.2f %8.2f %13.1f%%\n",
			c, col.Median(), col.Mean(), col.Percentile(5), col.Percentile(95), 100*r.WithinBand[c])
	}
	return b.String()
}

// OverheadResult holds the §IV-A storage and traffic estimates.
type OverheadResult struct {
	// EntryBits is the per-mapping size (352 bits in the paper).
	EntryBits int
	// TotalGUIDs and K parameterize the estimate (5·10^9 and 5).
	TotalGUIDs int64
	K          int
	// StoragePerASMbit is the proportional-share storage requirement.
	StoragePerASMbit float64
	// UpdateTrafficGbps is the worldwide update traffic at the assumed
	// update rate.
	UpdateTrafficGbps float64
	// UpdatesPerDay is the assumed per-GUID mobility rate (100/day).
	UpdatesPerDay float64
	// NumAS is the AS population.
	NumAS int
}

// RunOverhead computes the §IV-A closed-form storage and update-traffic
// overheads for the given deployment assumptions.
func RunOverhead(numAS int, totalGUIDs int64, k int, updatesPerDay float64) (*OverheadResult, error) {
	if numAS <= 0 || totalGUIDs <= 0 || k <= 0 || updatesPerDay < 0 {
		return nil, fmt.Errorf("experiments: invalid overhead parameters")
	}
	// §IV-A: 160-bit GUID + 5 × 32-bit NAs + 32 bits of metadata.
	const entryBits = 160 + 5*32 + 32
	totalBits := float64(totalGUIDs) * float64(k) * entryBits
	perAS := totalBits / float64(numAS)
	updatesPerSec := float64(totalGUIDs) * updatesPerDay / 86400
	// Each update carries the entry to all K replicas.
	trafficBps := updatesPerSec * entryBits * float64(k)
	return &OverheadResult{
		EntryBits:         entryBits,
		TotalGUIDs:        totalGUIDs,
		K:                 k,
		StoragePerASMbit:  perAS / 1e6,
		UpdateTrafficGbps: trafficBps / 1e9,
		UpdatesPerDay:     updatesPerDay,
		NumAS:             numAS,
	}, nil
}

// String renders the overhead report.
func (r *OverheadResult) String() string {
	return fmt.Sprintf(
		"entry size: %d bits\nGUIDs: %d, K=%d, ASs: %d\nstorage per AS (proportional): %.0f Mbit\nupdate traffic at %.0f updates/GUID/day: %.1f Gb/s\n",
		r.EntryBits, r.TotalGUIDs, r.K, r.NumAS, r.StoragePerASMbit, r.UpdatesPerDay, r.UpdateTrafficGbps)
}

// HolesResult reports Algorithm 1's measured rehash behaviour (§III-B).
type HolesResult struct {
	AnnouncedFraction float64
	Stats             core.RehashStats
	// PredictedFallback is (1 − announced)^M.
	PredictedFallback float64
}

// RunHoles measures the hole-handling statistics over n GUIDs.
func RunHoles(w *World, k, maxRehash, n int) (*HolesResult, error) {
	resolver, err := core.NewResolver(guid.MustHasher(k, 0), w.Table, maxRehash)
	if err != nil {
		return nil, err
	}
	st, err := resolver.MeasureRehash(n)
	if err != nil {
		return nil, err
	}
	announced := w.Table.AnnouncedFraction()
	pred := 1.0
	for i := 0; i < resolver.MaxRehash(); i++ {
		pred *= 1 - announced
	}
	return &HolesResult{
		AnnouncedFraction: announced,
		Stats:             st,
		PredictedFallback: pred,
	}, nil
}

// String renders the hole report.
func (r *HolesResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "announced fraction: %.3f (hole probability %.3f per hash)\n",
		r.AnnouncedFraction, 1-r.AnnouncedFraction)
	fmt.Fprintf(&b, "%-8s %12s %10s\n", "rehashes", "placements", "fraction")
	for d, c := range r.Stats.DepthCounts {
		if c == 0 && d > 3 {
			continue
		}
		fmt.Fprintf(&b, "%-8d %12d %9.4f%%\n", d, c, 100*float64(c)/float64(r.Stats.Samples))
	}
	fmt.Fprintf(&b, "nearest-prefix fallbacks: %d (%.4f%%, predicted %.4f%%)\n",
		r.Stats.NearestFallbacks, 100*r.Stats.FallbackRate(), 100*r.PredictedFallback)
	return b.String()
}
