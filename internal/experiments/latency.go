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

// SelectionPolicy chooses which of the K replicas a querier contacts
// first (§IV-B2a).
type SelectionPolicy int

// Selection policies.
const (
	// SelectLowestRTT assumes the querying node can estimate response
	// times and picks the minimum (the paper's primary assumption).
	SelectLowestRTT SelectionPolicy = iota + 1
	// SelectLeastHops uses BGP hop counts, "only partially available"
	// information that every AS does have; the paper reports similar
	// results with marginally increased latencies.
	SelectLeastHops
)

// LatencyConfig drives the query-response-time experiments (Fig. 4,
// Table I, Fig. 5 and the selection/local-replica ablations).
type LatencyConfig struct {
	// Ks lists the replication factors to evaluate (Fig. 4: 1, 3, 5).
	Ks []int
	// NumGUIDs / NumLookups size the workload (paper: 10^5 / 10^6).
	NumGUIDs   int
	NumLookups int
	// MissRate is the per-replica probability of a "GUID missing" reply
	// caused by BGP-churn inconsistency (Fig. 5: 0, 0.05, 0.10).
	MissRate float64
	// LocalReplica stores an extra copy at each GUID's attachment AS and
	// lets same-AS queries resolve locally (§III-C). The paper's runs
	// keep it on.
	LocalReplica bool
	// Selection is the replica-choice policy; zero means lowest RTT.
	Selection SelectionPolicy
	// MaxRehash is Algorithm 1's M; zero selects the default (10).
	MaxRehash int
	// HashToASNumbers switches to the §VII variant placing GUIDs
	// uniformly over AS numbers instead of announced addresses.
	HashToASNumbers bool
	// Seed fixes workload generation and failure sampling.
	Seed int64
	// Workers bounds the evaluation parallelism: grouped-by-source work
	// units spread over this many engine workers. 0 means GOMAXPROCS; 1
	// is the serial reference path. Results are bit-identical for every
	// setting (see internal/engine).
	Workers int
}

// LatencyResult holds per-K round-trip-time distributions in
// milliseconds.
type LatencyResult struct {
	PerK map[int]*stats.Collector
	// LocalHits counts lookups answered by the local replica, per K.
	LocalHits map[int]int
	// Retries counts extra replica contacts forced by misses, per K.
	Retries map[int]int
}

// RunLatency evaluates DMap query response times on w.
//
// Queries are evaluated grouped by source AS — one Dijkstra per distinct
// source — which is exact for these experiments because lookups are
// mutually independent (DESIGN.md, "Scale strategy"). The groups are the
// engine's work units: they run on cfg.Workers workers with per-worker
// scratch vectors, per-(K, source) seeded miss sampling, and a merge in
// source order, so every worker count yields bit-identical results.
func RunLatency(w *World, cfg LatencyConfig) (*LatencyResult, error) {
	maxK, err := maxK(cfg.Ks)
	if err != nil {
		return nil, err
	}
	if cfg.MissRate < 0 || cfg.MissRate >= 1 {
		return nil, fmt.Errorf("experiments: miss rate %g out of [0,1)", cfg.MissRate)
	}
	trace, err := w.lookupTrace(cfg.NumGUIDs, cfg.NumLookups, cfg.Seed)
	if err != nil {
		return nil, err
	}
	bySrc, sources := bySource(trace.Lookups)

	res := &LatencyResult{
		PerK:      make(map[int]*stats.Collector, len(cfg.Ks)),
		LocalHits: make(map[int]int, len(cfg.Ks)),
		Retries:   make(map[int]int, len(cfg.Ks)),
	}

	// Placements per GUID at max K, computed once and shared by every K.
	placements, err := w.placementTable(cfg.NumGUIDs, maxK, cfg.MaxRehash, cfg.HashToASNumbers)
	if err != nil {
		return nil, err
	}

	// One engine unit per distinct source: one Dijkstra serves every K.
	type unitK struct {
		col       *stats.Collector
		localHits int
		retries   int
	}
	type latencyScratch struct {
		dist    []topology.Micros
		hops    []int32
		replica []int
		cands   []lookupCand
	}
	needHops := cfg.Selection == SelectLeastHops
	units, err := engine.Map(cfg.Workers, len(sources),
		func() *latencyScratch {
			sc := &latencyScratch{
				dist:    make([]topology.Micros, w.NumAS()),
				replica: make([]int, maxK),
				cands:   make([]lookupCand, maxK),
			}
			if needHops {
				sc.hops = make([]int32, w.NumAS())
			}
			return sc
		},
		func(u int, sc *latencyScratch) ([]unitK, error) {
			src := sources[u]
			lookups := bySrc[src]
			w.Graph.Dijkstra(src, sc.dist)
			if sc.hops != nil {
				w.Graph.HopBFS(src, sc.hops)
			}
			out := make([]unitK, len(cfg.Ks))
			for i, k := range cfg.Ks {
				st := &out[i]
				st.col = stats.NewCollector(len(lookups))
				var rng *rand.Rand
				if cfg.MissRate > 0 {
					rng = rand.New(rand.NewSource(missSeed(cfg.Seed, k, src)))
				}
				for _, li := range lookups {
					ev := trace.Lookups[li]
					all := placements[ev.GUIDIndex]
					replicas := sc.replica[:k]
					for r := range replicas {
						replicas[r] = int(all[r])
					}
					rtt, usedLocal, extra := evalLookup(w.Graph, src, replicas, sc.dist, sc.hops, sc.cands, evalOpts{
						localAS:  localASFor(cfg, trace, ev.GUIDIndex),
						missRate: cfg.MissRate,
						rng:      rng,
					})
					st.col.Add(rtt.Millis())
					if usedLocal {
						st.localHits++
					}
					st.retries += extra
				}
			}
			return out, nil
		})
	if err != nil {
		return nil, err
	}

	// Deterministic merge: per-unit collectors concatenate in source
	// order, so sample order — and every float statistic computed from
	// it — is independent of how workers interleaved.
	for i, k := range cfg.Ks {
		col := stats.NewCollector(cfg.NumLookups)
		localHits, retries := 0, 0
		for _, u := range units {
			col.Merge(u[i].col)
			localHits += u[i].localHits
			retries += u[i].retries
		}
		res.PerK[k] = col
		res.LocalHits[k] = localHits
		res.Retries[k] = retries
	}
	return res, nil
}

// missSeed derives the per-(K, source) miss-sampling seed. Seeding each
// unit independently — instead of drawing from one stream shared across
// sources — is what lets the engine evaluate sources in any order and
// still produce bit-identical results at every worker count.
func missSeed(seed int64, k, src int) int64 {
	return seed + int64(k)*7919 + int64(src)*104729 + 1
}

func localASFor(cfg LatencyConfig, trace *workload.Trace, guidIdx int) int {
	if !cfg.LocalReplica {
		return -1
	}
	return trace.HomeAS[guidIdx]
}

type evalOpts struct {
	// localAS is the GUID's attachment AS holding the §III-C local copy
	// (-1 when local replication is off).
	localAS  int
	missRate float64
	rng      *rand.Rand
}

// lookupCand is one replica candidate during closed-form evaluation.
type lookupCand struct {
	as   int
	rtt  topology.Micros
	cost int64
}

// evalLookup is the §III-C/§III-D3 lookup walk in closed form over a
// source-rooted distance vector, the one every Fig. 4/5 and Table I
// number comes from: replicas are tried in selection-policy order; each
// churn miss costs its RTT; the parallel local lookup wins if it is
// faster than the eventual global answer. RunCrossVal checks it per
// query against nodesim's event walk.
// scratch must have capacity ≥ len(replicas); it keeps the hot loop
// allocation-free.
func evalLookup(g *topology.Graph, src int, replicas []int, dist []topology.Micros, hops []int32, scratch []lookupCand, o evalOpts) (topology.Micros, bool, int) {
	cands := scratch[:len(replicas)]
	for i, as := range replicas {
		c := lookupCand{as: as, rtt: g.RTT(src, as, dist)}
		if hops != nil {
			c.cost = int64(hops[as])
		} else {
			c.cost = int64(c.rtt)
		}
		cands[i] = c
	}
	orderCands(cands)

	localRTT := topology.Micros(-1)
	if o.localAS == src {
		localRTT = 2 * g.Intra(src)
	}

	var elapsed topology.Micros
	retries := 0
	for i, c := range cands {
		if o.missRate > 0 && o.rng.Float64() < o.missRate {
			elapsed += c.rtt
			retries++
			// If every replica misses this round, the querier retries the
			// closest replica once more; churn inconsistency is transient
			// and a repeat attempt succeeds (cf. §III-D2's re-check).
			if i == len(cands)-1 {
				total := elapsed + cands[0].rtt
				if localRTT >= 0 && localRTT < total {
					return localRTT, true, retries
				}
				return total, false, retries
			}
			continue
		}
		total := elapsed + c.rtt
		if localRTT >= 0 && localRTT < total {
			return localRTT, true, retries
		}
		return total, false, retries
	}
	// Unreachable: the loop always returns.
	return elapsed, false, retries
}

// Table1 summarizes the Fig. 4 distributions the way Table I does.
type Table1Row struct {
	K      int
	Mean   float64
	Median float64
	P95    float64
}

// Table1 extracts Table I rows (mean / median / 95th percentile RTT in
// ms) from a latency result, in ascending K order.
func (r *LatencyResult) Table1() []Table1Row {
	ks := make([]int, 0, len(r.PerK))
	for k := range r.PerK {
		ks = append(ks, k)
	}
	sort.Ints(ks)
	rows := make([]Table1Row, 0, len(ks))
	for _, k := range ks {
		c := r.PerK[k]
		rows = append(rows, Table1Row{
			K:      k,
			Mean:   c.Mean(),
			Median: c.Median(),
			P95:    c.Percentile(95),
		})
	}
	return rows
}

// String renders the result as a Table I-style text table plus CDF
// checkpoints for each K (the Fig. 4 series).
func (r *LatencyResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-4s %10s %10s %10s %10s %10s\n", "K", "mean(ms)", "median(ms)", "p95(ms)", "localHits", "retries")
	for _, row := range r.Table1() {
		fmt.Fprintf(&b, "%-4d %10.1f %10.1f %10.1f %10d %10d\n",
			row.K, row.Mean, row.Median, row.P95, r.LocalHits[row.K], r.Retries[row.K])
	}
	return b.String()
}

// CDFSeries returns the Fig. 4 / Fig. 5 plot series for one K: points of
// (RTT ms, cumulative fraction).
func (r *LatencyResult) CDFSeries(k, points int) []stats.CDFPoint {
	c, ok := r.PerK[k]
	if !ok {
		return nil
	}
	return c.CDF(points)
}
