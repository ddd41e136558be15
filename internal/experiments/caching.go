package experiments

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"

	"dmap/internal/cache"
	"dmap/internal/engine"
	"dmap/internal/guid"
	"dmap/internal/nodesim"
	"dmap/internal/stats"
	"dmap/internal/store"
	"dmap/internal/topology"
)

// cacheCapacity bounds each AS's cache, in mappings.
const cacheCapacity = 1024

// CachingConfig drives the §VII in-network caching extension experiment:
// each source AS caches resolved mappings with a TTL, trading lookup
// latency against bounded staleness under host mobility.
type CachingConfig struct {
	// K is the replication factor of the underlying DMap.
	K int
	// NumGUIDs / NumLookups size the workload.
	NumGUIDs   int
	NumLookups int
	// DurationSec is the simulated wall span the lookups spread over.
	DurationSec float64
	// UpdateRatePerSec is each GUID's mobility rate (the paper's
	// ~100 updates/day ≈ 0.00116/s).
	UpdateRatePerSec float64
	// TTLs lists cache TTLs to evaluate (0 in the list means "no cache",
	// the baseline row).
	TTLs []topology.Micros
	// Seed fixes workloads and staleness sampling.
	Seed int64
	// Workers bounds the evaluation parallelism (0 = GOMAXPROCS, 1 =
	// serial reference); results are identical for every setting.
	Workers int
}

// CachingRow is one TTL's outcome.
type CachingRow struct {
	TTL       topology.Micros
	Latency   stats.Summary // ms
	HitRate   float64
	StaleRate float64 // fraction of all lookups answered with a stale mapping
}

// CachingResult holds one row per TTL.
type CachingResult struct {
	Rows []CachingRow
}

// RunCaching evaluates per-AS query caching on top of DMap. A cache hit
// answers at intra-AS latency; the mapping is stale if its GUID moved
// after the cache fill, which happens with probability
// 1 − exp(−rate·age) under Poisson mobility. Caches are per source AS,
// so each source is an independent engine work unit with its own
// staleness-sampling seed.
func RunCaching(w *World, cfg CachingConfig) (*CachingResult, error) {
	if cfg.K <= 0 || cfg.NumGUIDs <= 0 || cfg.NumLookups <= 0 {
		return nil, fmt.Errorf("experiments: invalid caching workload")
	}
	if cfg.DurationSec <= 0 || cfg.UpdateRatePerSec < 0 {
		return nil, fmt.Errorf("experiments: invalid caching time parameters")
	}
	if len(cfg.TTLs) == 0 {
		return nil, fmt.Errorf("experiments: no TTLs")
	}
	trace, err := w.lookupTrace(cfg.NumGUIDs, cfg.NumLookups, cfg.Seed)
	if err != nil {
		return nil, err
	}
	// A cache miss takes the fault-free walk, the same at every TTL: walk
	// every lookup once.
	cells, err := w.cells([]int{cfg.K}, false, false, &nodesim.Faults{})
	if err != nil {
		return nil, err
	}
	walked := make([]float64, len(trace.Lookups))
	if _, err := w.sweep(trace, cells, false, cfg.Workers, func(_, li int, _ *nodesim.Deployment, r nodesim.LookupResult) {
		walked[li] = r.Latency.Millis()
	}); err != nil {
		return nil, err
	}

	// Assign each lookup a uniform time in the window, then group by
	// source AS and sort each group by time (caches are per source, so
	// per-source time order is all TTL semantics need).
	rng := rand.New(rand.NewSource(cfg.Seed + 101))
	times := make([]topology.Micros, len(trace.Lookups))
	for i := range times {
		times[i] = topology.Micros(rng.Float64() * cfg.DurationSec * 1e6)
	}
	bySrc, sources := bySource(trace.Lookups)
	for _, idx := range bySrc {
		sort.Slice(idx, func(a, b int) bool { return times[idx[a]] < times[idx[b]] })
	}

	res := &CachingResult{Rows: make([]CachingRow, 0, len(cfg.TTLs))}

	type cachingUnit struct {
		col         *stats.Collector
		hits, stale int64
	}
	for _, ttl := range cfg.TTLs {
		units, err := engine.MapNoScratch(cfg.Workers, len(sources),
			func(u int) (cachingUnit, error) {
				src := sources[u]
				lookups := bySrc[src]
				unit := cachingUnit{col: stats.NewCollector(len(lookups))}
				staleRng := rand.New(rand.NewSource(cfg.Seed + int64(ttl)%7919 + 5 + int64(src)*104729))
				var cc *cache.Cache
				if ttl > 0 {
					var err error
					cc, err = cache.New(cacheCapacity, ttl)
					if err != nil {
						return cachingUnit{}, err
					}
				}
				for _, li := range lookups {
					ev := trace.Lookups[li]
					now := times[li]
					g := guid.FromUint64(uint64(ev.GUIDIndex) + 1)

					if cc != nil {
						if _, cachedAt, ok := cc.Get(g, now); ok {
							unit.hits++
							unit.col.Add((2 * w.Graph.Intra(src)).Millis())
							// Poisson mobility: stale with p = 1 − e^(−λ·age).
							age := float64(now-cachedAt) / 1e6
							if staleRng.Float64() < 1-math.Exp(-cfg.UpdateRatePerSec*age) {
								unit.stale++
							}
							continue
						}
					}
					unit.col.Add(walked[li])
					if cc != nil {
						// The experiment measures latency and staleness, not
						// payloads; an empty entry keeps the cache cheap.
						cc.Put(g, store.Entry{}, now)
					}
				}
				return unit, nil
			})
		if err != nil {
			return nil, err
		}

		col := stats.NewCollector(cfg.NumLookups)
		var hits, stale int64
		for _, u := range units {
			col.Merge(u.col)
			hits += u.hits
			stale += u.stale
		}
		res.Rows = append(res.Rows, CachingRow{
			TTL:       ttl,
			Latency:   col.Summarize(),
			HitRate:   float64(hits) / float64(cfg.NumLookups),
			StaleRate: float64(stale) / float64(cfg.NumLookups),
		})
	}
	return res, nil
}

// String renders the caching trade-off table.
func (r *CachingResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-10s %10s %10s %10s %8s %8s\n", "TTL", "mean(ms)", "median", "p95", "hit%", "stale%")
	for _, row := range r.Rows {
		name := "off"
		if row.TTL > 0 {
			name = fmt.Sprintf("%.0fs", float64(row.TTL)/1e6)
		}
		fmt.Fprintf(&b, "%-10s %10.1f %10.1f %10.1f %7.1f%% %7.2f%%\n",
			name, row.Latency.Mean, row.Latency.Median, row.Latency.P95,
			100*row.HitRate, 100*row.StaleRate)
	}
	return b.String()
}
