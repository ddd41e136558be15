package experiments

import (
	"fmt"
	"math/rand"
	"sort"

	"dmap/internal/core"
	"dmap/internal/guid"
	"dmap/internal/netaddr"
	"dmap/internal/nodesim"
	"dmap/internal/store"
	"dmap/internal/workload"
)

// lookupTrace generates the workload of a trace-driven experiment:
// sources and homes drawn from w's end-node weights.
func (w *World) lookupTrace(numGUIDs, numLookups int, seed int64) (*workload.Trace, error) {
	return workload.Generate(workload.TraceConfig{
		NumGUIDs:      numGUIDs,
		NumLookups:    numLookups,
		SourceWeights: w.Graph.EndNodeWeights(),
		Seed:          seed,
	})
}

// maxK validates a sweep's replication factors and returns the largest.
// The hash family is domain-separated on the replica index, so a GUID's
// placements at a smaller K are a prefix of those at the largest and one
// node table populated at maxK serves the whole sweep.
func maxK(ks []int) (int, error) {
	if len(ks) == 0 {
		return 0, fmt.Errorf("experiments: no K values")
	}
	max := 0
	for _, k := range ks {
		if k <= 0 {
			return 0, fmt.Errorf("experiments: K must be positive, got %d", k)
		}
		if k > max {
			max = k
		}
	}
	return max, nil
}

// resolver returns Algorithm 1's resolver at K = k > 0 with the default
// M over w's prefix table or, with byASNumber, the §VII variant's, which
// hashes to AS numbers.
func (w *World) resolver(k int, byASNumber bool) *core.Resolver {
	h := guid.MustHasher(k, 0)
	res, err := core.NewResolver(h, w.Table, 0)
	if byASNumber {
		res, err = core.NewASNumberResolver(h, w.NumAS())
	}
	if err != nil {
		panic(err) // a world has a prefix table and ASs
	}
	return res
}

// bySource groups lookups (by index, in trace order) under their source
// AS — the engine's work units, one Dijkstra each — and lists the sources
// in ascending order, the merge order that makes every worker count
// yield the same bits.
func bySource(lookups []workload.Event) (bySrc map[int][]int, sources []int) {
	bySrc = make(map[int][]int)
	for i, ev := range lookups {
		bySrc[ev.SrcAS] = append(bySrc[ev.SrcAS], i)
	}
	return bySrc, sortedSources(bySrc)
}

func sortedSources(bySrc map[int][]int) []int {
	sources := make([]int, 0, len(bySrc))
	for src := range bySrc {
		sources = append(sources, src)
	}
	sort.Ints(sources)
	return sources
}

// failedSet marks the ASs whose mapping nodes are down: the first
// frac·N of one seeded permutation, so the sets of one seed nest across
// fractions (10% failed ⊃ 5% failed).
func (w *World) failedSet(frac float64, seed int64) []bool {
	failed := make([]bool, w.NumAS())
	for _, as := range rand.New(rand.NewSource(seed + 777)).Perm(w.NumAS())[:int(frac*float64(w.NumAS()))] {
		failed[as] = true
	}
	return failed
}

// populated returns a node table over w placing with res, with §III-C
// local copies if local, preloaded with version 1 of every GUID of
// trace, attached at its home AS (state setup, not measured).
func (w *World) populated(trace *workload.Trace, res *core.Resolver, local bool) (*nodesim.Nodes, error) {
	nodes, err := nodesim.NewNodes(res, w.NumAS(), local)
	if err != nil {
		return nil, err
	}
	es := make([]store.Entry, len(trace.HomeAS))
	for gi, home := range trace.HomeAS {
		es[gi] = store.Entry{
			GUID:    guid.FromUint64(uint64(gi) + 1),
			NAs:     []store.NA{{AS: home, Addr: netaddr.Addr(gi)}},
			Version: 1,
		}
	}
	return nodes, nodes.Preload(es...)
}
