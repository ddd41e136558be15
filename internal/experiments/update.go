package experiments

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"dmap/internal/engine"
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
	// Batch models the v2 batched wire protocol: updates from one
	// source AS to one replica AS share frames, up to Batch entries per
	// frame (wire.MaxBatch on the real path). ≤ 1 models the sequential
	// v1 protocol: one frame per (update, replica). Latency is
	// unaffected — replicas are still written in parallel — but the
	// frame count, the actual per-message cost §VI's update rates
	// multiply, drops by up to Batch×.
	Batch int
}

// UpdateResult holds the per-K update-latency distributions (ms), the
// per-K fraction of updates completing within the 500 ms handoff
// budget, and the per-K wire-frame counts under the configured batch
// size.
type UpdateResult struct {
	PerK         map[int]*stats.Collector
	WithinBudget map[int]float64
	// Frames is the number of wire frames the update stream costs per K:
	// Σ over (source AS, replica AS) pairs of ⌈updates/Batch⌉.
	Frames map[int]int64
	// Batch echoes the modeled batch size (1 = sequential v1).
	Batch int
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
	placements, err := w.placementTable(cfg.NumUpdates, maxK, 0, false)
	if err != nil {
		return nil, err
	}
	src, err := workload.NewWeightedSampler(w.Graph.EndNodeWeights())
	if err != nil {
		return nil, err
	}

	// Each update i touches GUID i from a weighted-random source AS.
	// Group events by source — the engine's work units — preserving
	// GUID order within each group.
	rng := rand.New(rand.NewSource(cfg.Seed))
	bySrc := make(map[int][]int) // src → placement-table indices
	for i := 0; i < cfg.NumUpdates; i++ {
		s := src.Sample(rng)
		bySrc[s] = append(bySrc[s], i)
	}
	sources := sortedSources(bySrc)

	batch := max(cfg.Batch, 1)

	type updateUnit struct {
		cols   []*stats.Collector
		frames []int64 // per-K wire frames from this source
	}
	units, err := engine.Map(cfg.Workers, len(sources),
		func() []topology.Micros { return make([]topology.Micros, w.NumAS()) },
		func(u int, dist []topology.Micros) (updateUnit, error) {
			s := sources[u]
			guids := bySrc[s]
			w.Graph.Dijkstra(s, dist)
			out := updateUnit{
				cols:   make([]*stats.Collector, len(cfg.Ks)),
				frames: make([]int64, len(cfg.Ks)),
			}
			for i := range out.cols {
				out.cols[i] = stats.NewCollector(len(guids))
			}
			// perAS[i] counts updates from this source per replica AS at
			// K = cfg.Ks[i], for the batched frame model.
			perAS := make([]map[int]int, len(cfg.Ks))
			for i := range perAS {
				perAS[i] = make(map[int]int)
			}
			for _, gi := range guids {
				for i, k := range cfg.Ks {
					var max topology.Micros
					for _, as := range placements[gi][:k] {
						if rtt := w.Graph.RTT(s, int(as), dist); rtt > max {
							max = rtt
						}
						perAS[i][int(as)]++
					}
					out.cols[i].Add(max.Millis())
				}
			}
			for i := range cfg.Ks {
				for _, n := range perAS[i] {
					out.frames[i] += int64((n + batch - 1) / batch)
				}
			}
			return out, nil
		})
	if err != nil {
		return nil, err
	}

	res := &UpdateResult{
		PerK:         make(map[int]*stats.Collector, len(cfg.Ks)),
		WithinBudget: make(map[int]float64, len(cfg.Ks)),
		Frames:       make(map[int]int64, len(cfg.Ks)),
		Batch:        batch,
	}
	for i, k := range cfg.Ks {
		col := stats.NewCollector(cfg.NumUpdates)
		var frames int64
		for _, u := range units {
			col.Merge(u.cols[i])
			frames += u.frames[i]
		}
		res.PerK[k] = col
		res.WithinBudget[k] = col.FractionBelow(HandoffBudgetMs)
		res.Frames[k] = frames
	}
	return res, nil
}

// String renders the update-latency table. With Batch > 1 it adds the
// modeled wire-frame count per K; the Batch ≤ 1 rendering is unchanged
// from the sequential protocol's.
func (r *UpdateResult) String() string {
	ks := make([]int, 0, len(r.PerK))
	for k := range r.PerK {
		ks = append(ks, k)
	}
	sort.Ints(ks)
	var b strings.Builder
	fmt.Fprintf(&b, "%-4s %10s %10s %10s %16s", "K", "mean(ms)", "median(ms)", "p95(ms)", "within 500ms")
	if r.Batch > 1 {
		fmt.Fprintf(&b, " %12s", fmt.Sprintf("frames(B=%d)", r.Batch))
	}
	b.WriteByte('\n')
	for _, k := range ks {
		c := r.PerK[k]
		fmt.Fprintf(&b, "%-4d %10.1f %10.1f %10.1f %15.2f%%",
			k, c.Mean(), c.Median(), c.Percentile(95), 100*r.WithinBudget[k])
		if r.Batch > 1 {
			fmt.Fprintf(&b, " %12d", r.Frames[k])
		}
		b.WriteByte('\n')
	}
	return b.String()
}
