package experiments

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"dmap/internal/engine"
	"dmap/internal/guid"
	"dmap/internal/stats"
	"dmap/internal/topology"
	"dmap/internal/workload"
)

// UpdateConfig drives the update-latency experiment: §III-A observes
// that "the update latency becomes the largest among the K ASs" because
// replicas are written in parallel, and §IV-B's handoff discussion
// requires updates to finish well inside typical 0.5–1 s WiFi/IP handoff
// times.
type UpdateConfig struct {
	// Ks lists replication factors to evaluate.
	Ks []int
	// NumUpdates is the number of (GUID, source AS) update events.
	NumUpdates int
	// Seed fixes the workload.
	Seed int64
	// Workers bounds the evaluation parallelism (0 = GOMAXPROCS, 1 =
	// serial reference); results are identical for every setting.
	Workers int
}

// UpdateResult holds the per-K update-latency distributions (ms) and the
// per-K fraction of updates completing within the 500 ms handoff
// budget.
type UpdateResult struct {
	PerK         map[int]*stats.Collector
	WithinBudget map[int]float64
}

// HandoffBudgetMs is the conservative end of the paper's cited handoff
// latencies ("often on the order of 0.5–1 second", §IV-B2a).
const HandoffBudgetMs = 500.0

// RunUpdate measures insert/update completion latency: the maximum RTT
// over the K replicas of each GUID, evaluated grouped by source AS on
// the parallel engine (one Dijkstra per distinct source per unit).
func RunUpdate(w *World, cfg UpdateConfig) (*UpdateResult, error) {
	maxK, err := maxK(cfg.Ks)
	if err != nil {
		return nil, err
	}
	if cfg.NumUpdates <= 0 {
		return nil, fmt.Errorf("experiments: NumUpdates must be positive")
	}
	resolver := w.resolver(maxK, false)
	src, err := workload.NewWeightedSampler(w.Graph.EndNodeWeights())
	if err != nil {
		return nil, err
	}

	// Each update i touches GUID i from a weighted-random source AS.
	// Group events by source — the engine's work units — preserving
	// GUID order within each group.
	rng := rand.New(rand.NewSource(cfg.Seed))
	bySrc := make(map[int][]int) // src → GUID indices
	for i := 0; i < cfg.NumUpdates; i++ {
		s := src.Sample(rng)
		bySrc[s] = append(bySrc[s], i)
	}
	sources := sortedSources(bySrc)

	units, err := engine.Map(cfg.Workers, len(sources),
		func() []topology.Micros { return make([]topology.Micros, w.NumAS()) },
		func(u int, dist []topology.Micros) ([]*stats.Collector, error) {
			s := sources[u]
			guids := bySrc[s]
			w.Graph.Dijkstra(s, dist)
			cols := make([]*stats.Collector, len(cfg.Ks))
			for i := range cols {
				cols[i] = stats.NewCollector(len(guids))
			}
			for _, gi := range guids {
				placements, err := resolver.Place(guid.FromUint64(uint64(gi) + 1))
				if err != nil {
					return nil, err
				}
				for i, k := range cfg.Ks {
					var max topology.Micros
					for _, p := range placements[:k] {
						if rtt := w.Graph.RTT(s, p.AS, dist); rtt > max {
							max = rtt
						}
					}
					cols[i].Add(max.Millis())
				}
			}
			return cols, nil
		})
	if err != nil {
		return nil, err
	}

	res := &UpdateResult{
		PerK:         make(map[int]*stats.Collector, len(cfg.Ks)),
		WithinBudget: make(map[int]float64, len(cfg.Ks)),
	}
	for i, k := range cfg.Ks {
		col := stats.NewCollector(cfg.NumUpdates)
		for _, u := range units {
			col.Merge(u[i])
		}
		res.PerK[k] = col
		res.WithinBudget[k] = col.FractionBelow(HandoffBudgetMs)
	}
	return res, nil
}

// String renders the update-latency table.
func (r *UpdateResult) String() string {
	ks := make([]int, 0, len(r.PerK))
	for k := range r.PerK {
		ks = append(ks, k)
	}
	sort.Ints(ks)
	var b strings.Builder
	fmt.Fprintf(&b, "%-4s %10s %10s %10s %16s\n", "K", "mean(ms)", "median(ms)", "p95(ms)", "within 500ms")
	for _, k := range ks {
		c := r.PerK[k]
		fmt.Fprintf(&b, "%-4d %10.1f %10.1f %10.1f %15.2f%%\n",
			k, c.Mean(), c.Median(), c.Percentile(95), 100*r.WithinBudget[k])
	}
	return b.String()
}
