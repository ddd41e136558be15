package experiments

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"

	"dmap/internal/core"
	"dmap/internal/guid"
	"dmap/internal/netaddr"
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
// placement table at maxK serves the whole sweep.
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

// placementTable returns the AS of each of the k replicas of a trace's n
// GUIDs (index gi is guid.FromUint64(gi+1)) under Algorithm 1 with the
// default M or, with byASNumber, under the §VII variant that hashes to
// AS numbers.
func (w *World) placementTable(n, k int, byASNumber bool) ([][]int32, error) {
	resolver, err := core.NewResolver(guid.MustHasher(k, 0), w.Table, 0)
	if err != nil {
		return nil, err
	}
	table := make([][]int32, n)
	for gi := range table {
		g := guid.FromUint64(uint64(gi) + 1)
		row := make([]int32, k)
		for r := range row {
			var p core.Placement
			if byASNumber {
				p, err = resolver.PlaceByASNumber(g, r, w.NumAS())
			} else {
				p, err = resolver.PlaceReplica(g, r)
			}
			if err != nil {
				return nil, err
			}
			row[r] = int32(p.AS)
		}
		table[gi] = row
	}
	return table, nil
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
// fractions (10% failed ⊃ 5% failed). ASs in keepUp are passed over, not
// counted.
func (w *World) failedSet(frac float64, seed int64, keepUp []int) []bool {
	failed := make([]bool, w.NumAS())
	n := int(frac * float64(w.NumAS()))
	for _, as := range rand.New(rand.NewSource(seed + 777)).Perm(w.NumAS()) {
		if n == 0 {
			break
		}
		if !slices.Contains(keepUp, as) {
			failed[as] = true
			n--
		}
	}
	return failed
}

// populatedSystem returns a K-replica system over w, with §III-C local
// copies if local, holding version 1 of every GUID of trace, inserted
// from its home AS (state setup, not measured).
func (w *World) populatedSystem(trace *workload.Trace, k int, local bool) (*core.System, error) {
	resolver, err := core.NewResolver(guid.MustHasher(k, 0), w.Table, 0)
	if err != nil {
		return nil, err
	}
	sys, err := core.NewSystem(core.SystemConfig{Resolver: resolver, NumAS: w.NumAS(), LocalReplica: local})
	if err != nil {
		return nil, err
	}
	for gi, home := range trace.HomeAS {
		e := store.Entry{
			GUID:    guid.FromUint64(uint64(gi) + 1),
			NAs:     []store.NA{{AS: home, Addr: netaddr.Addr(gi)}},
			Version: 1,
		}
		if _, err := sys.Insert(e, home); err != nil {
			return nil, err
		}
	}
	return sys, nil
}
