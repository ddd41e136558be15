package experiments

import (
	"fmt"
	"sort"
	"strings"

	"dmap/internal/engine"
	"dmap/internal/stats"
	"dmap/internal/topology"
)

// QueryLoadConfig drives the query-serving load experiment: Fig. 6
// measures *storage* balance; this companion measures how the *lookup
// traffic* itself spreads over ASs. Two forces compete: K replicas give
// every popular GUID K hosts (per-GUID relief), but closest-replica
// selection preferentially routes to whichever replica sits nearest the
// populous regions, concentrating service at well-positioned ASs — a
// traffic-engineering tension the storage NLR of Fig. 6 cannot see.
type QueryLoadConfig struct {
	// Ks lists the replication factors to compare.
	Ks []int
	// NumGUIDs / NumLookups size the Zipf workload.
	NumGUIDs   int
	NumLookups int
	Seed       int64
	// Workers bounds the evaluation parallelism (0 = GOMAXPROCS, 1 =
	// serial reference); results are identical for every setting.
	Workers int
	// Batch models the v2 batched wire protocol: lookups from one
	// source AS to one serving AS share frames, up to Batch GUIDs per
	// frame. ≤ 1 models the sequential v1 protocol (one frame per
	// lookup). Load *shares* are unchanged — batching moves bytes, not
	// placement — but the frame counts show what the serving ASs
	// actually field.
	Batch int
}

// QueryLoadRow summarizes one K.
type QueryLoadRow struct {
	K int
	// MaxShare is the largest fraction of all lookups served by a single
	// AS.
	MaxShare float64
	// Top10Share is the fraction served by the ten busiest ASs.
	Top10Share float64
	// NLRp99 is the 99th percentile of the per-AS query NLR (share of
	// queries ÷ share of announced space).
	NLRp99 float64
	// Frames is the wire-frame count under the configured batch size:
	// Σ over (source AS, serving AS) pairs of ⌈lookups/Batch⌉.
	Frames int64
}

// QueryLoadResult holds one row per K.
type QueryLoadResult struct {
	Rows []QueryLoadRow
	// Batch echoes the modeled batch size (1 = sequential v1).
	Batch int
}

// RunQueryLoad evaluates query-serving concentration.
func RunQueryLoad(w *World, cfg QueryLoadConfig) (*QueryLoadResult, error) {
	if len(cfg.Ks) == 0 || cfg.NumGUIDs <= 0 || cfg.NumLookups <= 0 {
		return nil, fmt.Errorf("experiments: invalid query-load config")
	}
	trace, err := w.lookupTrace(cfg.NumGUIDs, cfg.NumLookups, cfg.Seed)
	if err != nil {
		return nil, err
	}

	shares := w.announcedShares()

	batch := cfg.Batch
	if batch < 1 {
		batch = 1
	}
	res := &QueryLoadResult{Rows: make([]QueryLoadRow, 0, len(cfg.Ks)), Batch: batch}

	// Group by source so closest-replica selection reuses Dijkstra;
	// each source group is one engine work unit.
	bySrc, srcs := bySource(trace.Lookups)

	for _, k := range cfg.Ks {
		placements, err := w.placementTable(cfg.NumGUIDs, k, 0, false)
		if err != nil {
			return nil, err
		}

		type queryUnit struct {
			served map[int]int
			frames int64
		}
		units, err := engine.Map(cfg.Workers, len(srcs),
			func() []topology.Micros { return make([]topology.Micros, w.NumAS()) },
			func(u int, dist []topology.Micros) (queryUnit, error) {
				src := srcs[u]
				w.Graph.Dijkstra(src, dist)
				served := make(map[int]int)
				for _, li := range bySrc[src] {
					gi := trace.Lookups[li].GUIDIndex
					best, bestRTT := -1, topology.InfMicros
					for _, as := range placements[gi] {
						if rtt := w.Graph.RTT(src, int(as), dist); rtt < bestRTT {
							best, bestRTT = int(as), rtt
						}
					}
					served[best]++
				}
				var frames int64
				for _, n := range served {
					frames += int64((n + batch - 1) / batch)
				}
				return queryUnit{served: served, frames: frames}, nil
			})
		if err != nil {
			return nil, err
		}
		served := make(map[int]int, w.NumAS())
		var frames int64
		for _, u := range units {
			for as, n := range u.served {
				served[as] += n
			}
			frames += u.frames
		}

		counts := make([]int, 0, len(served))
		for _, c := range served {
			counts = append(counts, c)
		}
		sort.Sort(sort.Reverse(sort.IntSlice(counts)))
		total := float64(cfg.NumLookups)
		row := QueryLoadRow{K: k, MaxShare: float64(counts[0]) / total, Frames: frames}
		for i := 0; i < 10 && i < len(counts); i++ {
			row.Top10Share += float64(counts[i]) / total
		}
		row.NLRp99 = stats.NormalizedLoadRatios(served, shares).Percentile(99)
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// String renders the query-load table. With Batch > 1 it adds the
// modeled wire-frame count per K; the Batch ≤ 1 rendering is unchanged
// from the sequential protocol's.
func (r *QueryLoadResult) String() string {
	var b strings.Builder
	if r.Batch > 1 {
		fmt.Fprintf(&b, "%-4s %12s %12s %12s %12s\n", "K", "maxAS share", "top-10 share", "queryNLR p99", fmt.Sprintf("frames(B=%d)", r.Batch))
		for _, row := range r.Rows {
			fmt.Fprintf(&b, "%-4d %11.2f%% %11.2f%% %12.1f %12d\n",
				row.K, 100*row.MaxShare, 100*row.Top10Share, row.NLRp99, row.Frames)
		}
		return b.String()
	}
	fmt.Fprintf(&b, "%-4s %12s %12s %12s\n", "K", "maxAS share", "top-10 share", "queryNLR p99")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-4d %11.2f%% %11.2f%% %12.1f\n",
			row.K, 100*row.MaxShare, 100*row.Top10Share, row.NLRp99)
	}
	return b.String()
}
