package experiments

import (
	"fmt"
	"sort"
	"strings"

	"dmap/internal/stats"
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
	maxK, err := maxK(cfg.Ks)
	if err != nil || cfg.NumGUIDs <= 0 || cfg.NumLookups <= 0 {
		return nil, fmt.Errorf("experiments: invalid query-load config")
	}
	trace, err := w.lookupTrace(cfg.NumGUIDs, cfg.NumLookups, cfg.Seed)
	if err != nil {
		return nil, err
	}
	placements, err := w.placementTable(cfg.NumGUIDs, maxK, 0, false)
	if err != nil {
		return nil, err
	}
	// The AS serving each lookup, per K: the walk's closest replica.
	cells := make([]cell, len(cfg.Ks))
	servedBy := make([][]int, len(cfg.Ks))
	for i, k := range cfg.Ks {
		cells[i], servedBy[i] = cell{k: k, f: &faults{}}, make([]int, cfg.NumLookups)
	}
	if _, err := w.sweep(trace, placements, cells, false, cfg.Workers, func(c, li int, r walkResult) {
		servedBy[c][li] = r.servedBy
	}); err != nil {
		return nil, err
	}

	shares := w.announcedShares()
	batch := max(cfg.Batch, 1)
	res := &QueryLoadResult{Rows: make([]QueryLoadRow, 0, len(cfg.Ks)), Batch: batch}
	for i, k := range cfg.Ks {
		served := make(map[int]int, w.NumAS())
		perPair := make(map[[2]int]int) // (source AS, serving AS) → lookups
		for li, as := range servedBy[i] {
			served[as]++
			perPair[[2]int{trace.Lookups[li].SrcAS, as}]++
		}
		var frames int64
		for _, n := range perPair {
			frames += int64((n + batch - 1) / batch)
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
	fmt.Fprintf(&b, "%-4s %12s %12s %12s", "K", "maxAS share", "top-10 share", "queryNLR p99")
	if r.Batch > 1 {
		fmt.Fprintf(&b, " %12s", fmt.Sprintf("frames(B=%d)", r.Batch))
	}
	b.WriteByte('\n')
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-4d %11.2f%% %11.2f%% %12.1f", row.K, 100*row.MaxShare, 100*row.Top10Share, row.NLRp99)
		if r.Batch > 1 {
			fmt.Fprintf(&b, " %12d", row.Frames)
		}
		b.WriteByte('\n')
	}
	return b.String()
}
