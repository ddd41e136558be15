package experiments

import (
	"fmt"
	"sort"
	"strings"

	"dmap/internal/nodesim"
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
}

// QueryLoadResult holds one row per K.
type QueryLoadResult struct {
	Rows []QueryLoadRow
}

// RunQueryLoad evaluates query-serving concentration.
func RunQueryLoad(w *World, cfg QueryLoadConfig) (*QueryLoadResult, error) {
	cells, err := w.cells(cfg.Ks, false, false, &nodesim.Faults{})
	if err != nil || cfg.NumGUIDs <= 0 || cfg.NumLookups <= 0 {
		return nil, fmt.Errorf("experiments: invalid query-load config")
	}
	trace, err := w.lookupTrace(cfg.NumGUIDs, cfg.NumLookups, cfg.Seed)
	if err != nil {
		return nil, err
	}
	// The AS serving each lookup, per K: the walk's closest replica.
	servedBy := make([][]int, len(cfg.Ks))
	for i := range servedBy {
		servedBy[i] = make([]int, cfg.NumLookups)
	}
	if _, err := w.sweep(trace, cells, false, cfg.Workers, func(c, li int, _ *nodesim.Deployment, r nodesim.LookupResult) {
		servedBy[c][li] = r.ServedBy
	}); err != nil {
		return nil, err
	}

	shares := w.announcedShares()
	res := &QueryLoadResult{Rows: make([]QueryLoadRow, 0, len(cfg.Ks))}
	for i, k := range cfg.Ks {
		served := make(map[int]int, w.NumAS())
		for _, as := range servedBy[i] {
			served[as]++
		}

		counts := make([]int, 0, len(served))
		for _, c := range served {
			counts = append(counts, c)
		}
		sort.Sort(sort.Reverse(sort.IntSlice(counts)))
		total := float64(cfg.NumLookups)
		row := QueryLoadRow{K: k, MaxShare: float64(counts[0]) / total}
		for i := 0; i < 10 && i < len(counts); i++ {
			row.Top10Share += float64(counts[i]) / total
		}
		row.NLRp99 = stats.NormalizedLoadRatios(served, shares).Percentile(99)
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// String renders the query-load table.
func (r *QueryLoadResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-4s %12s %12s %12s\n", "K", "maxAS share", "top-10 share", "queryNLR p99")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-4d %11.2f%% %11.2f%% %12.1f\n", row.K, 100*row.MaxShare, 100*row.Top10Share, row.NLRp99)
	}
	return b.String()
}
