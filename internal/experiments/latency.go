package experiments

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"strings"

	"dmap/internal/core"
	"dmap/internal/engine"
	"dmap/internal/guid"
	"dmap/internal/nodesim"
	"dmap/internal/simnet"
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

// RunLatency evaluates DMap query response times on w, one sweep cell
// per K.
func RunLatency(w *World, cfg LatencyConfig) (*LatencyResult, error) {
	if cfg.MissRate < 0 || cfg.MissRate >= 1 {
		return nil, fmt.Errorf("experiments: miss rate %g out of [0,1)", cfg.MissRate)
	}
	cells, err := w.cells(cfg.Ks, cfg.HashToASNumbers, cfg.LocalReplica, &nodesim.Faults{Seed: cfg.Seed, MissRate: cfg.MissRate})
	if err != nil {
		return nil, err
	}
	trace, err := w.lookupTrace(cfg.NumGUIDs, cfg.NumLookups, cfg.Seed)
	if err != nil {
		return nil, err
	}
	sums, err := w.sweep(trace, cells, cfg.Selection == SelectLeastHops, cfg.Workers, nil)
	if err != nil {
		return nil, err
	}
	res := &LatencyResult{PerK: map[int]*stats.Collector{}, LocalHits: map[int]int{}, Retries: map[int]int{}}
	for i, k := range cfg.Ks {
		res.PerK[k], res.LocalHits[k], res.Retries[k] = sums[i].col, sums[i].local, sums[i].misses
	}
	return res, nil
}

// cell is one point of a sweep: the client's resolver (its K and
// placement rule), whether §III-C local copies are on, and the faults the
// walk's attempts meet.
type cell struct {
	res   *core.Resolver
	local bool
	f     *nodesim.Faults
}

// cells returns a sweep cell per K of ks, with local copies if local,
// each meeting f; byASNumber places by the §VII variant.
func (w *World) cells(ks []int, byASNumber, local bool, f *nodesim.Faults) ([]cell, error) {
	if _, err := maxK(ks); err != nil {
		return nil, err
	}
	cells := make([]cell, len(ks))
	for i, k := range ks {
		cells[i] = cell{w.resolver(k, byASNumber), local, f}
	}
	return cells, nil
}

// cellSums adds up a cell's lookups; col holds the found ones' latencies
// (ms).
type cellSums struct {
	col                                *stats.Collector
	local, misses, timeouts, failovers int
}

// sweep resolves every lookup of trace in every cell with the shipped
// client on nodesim's link, over one node table holding the trace's GUIDs
// at the cells' largest K, and hands each result to each, if not nil (from
// several workers, once per cell and lookup, with the deployment that ran
// it). Lookups grouped by source AS — one Dijkstra each, exact because
// lookups are independent (DESIGN.md, "Scale strategy") — are the
// engine's work units; a worker runs its units on one deployment over
// the shared table, re-aimed at each source, and their sums merge in
// source order, so every worker count yields bit-identical results.
func (w *World) sweep(trace *workload.Trace, cells []cell, leastHops bool, workers int, each func(c, li int, d *nodesim.Deployment, r nodesim.LookupResult)) ([]cellSums, error) {
	top := slices.MaxFunc(cells, func(a, b cell) int { return cmp.Compare(a.res.K(), b.res.K()) })
	nodes, err := w.populated(trace, top.res, top.local)
	if err != nil {
		return nil, err
	}
	bySrc, sources := bySource(trace.Lookups)
	units, err := engine.Map(workers, len(sources),
		func() *link { return w.newLink(nodes, leastHops) },
		func(u int, l *link) ([]cellSums, error) {
			lookups := bySrc[sources[u]]
			l.aim(sources[u])
			out := make([]cellSums, len(cells))
			for c, cl := range cells {
				out[c].col = stats.NewCollector(len(lookups))
				for _, li := range lookups {
					gi, home := trace.Lookups[li].GUIDIndex, -1
					if cl.local {
						home = trace.HomeAS[gi] // the attachment AS holds the §III-C local copy
					}
					r, err := l.dep.Lookup(cl.res, cl.f, l.src, li, home, guid.FromUint64(uint64(gi)+1))
					if err != nil {
						return nil, err
					}
					if each != nil {
						each(c, li, l.dep, r)
					}
					if r.Found {
						out[c].col.Add(r.Latency.Millis())
					}
					if r.UsedLocal {
						out[c].local++
					}
					out[c].misses += r.Misses
					out[c].timeouts += r.Timeouts
					out[c].failovers += r.Failovers
				}
			}
			return out, nil
		})
	if err != nil {
		return nil, err
	}
	sums := make([]cellSums, len(cells))
	for c := range sums {
		m := &sums[c]
		m.col = stats.NewCollector(len(trace.Lookups))
		for _, u := range units {
			m.col.Merge(u[c].col)
			m.local += u[c].local
			m.misses += u[c].misses
			m.timeouts += u[c].timeouts
			m.failovers += u[c].failovers
		}
	}
	return sums, nil
}

// link is an engine worker's deployment on nodesim's link — over the
// sweep's one node table, which every worker shares, and the shipped
// client — aimed at one querier at a time, whose Dijkstra row answers
// its latencies.
type link struct {
	dep  *nodesim.Deployment
	g    *topology.Graph
	src  int
	dist []topology.Micros
	hops []int32 // hop counts from the querier; nil: replicas rank by RTT
}

func (w *World) newLink(nodes *nodesim.Nodes, leastHops bool) *link {
	l := &link{g: w.Graph, dist: make([]topology.Micros, w.NumAS())}
	var o simnet.LatencyOracle = l
	if leastHops {
		l.hops = make([]int32, w.NumAS())
		o = byHops{l}
	}
	l.dep, _ = nodesim.NewDeployment(nodes, o) // a table and an oracle make one
	return l
}

// aim makes src the querier: one Dijkstra (and hop BFS).
func (l *link) aim(src int) {
	l.src = src
	l.g.Dijkstra(src, l.dist)
	if l.hops != nil {
		l.g.HopBFS(src, l.hops)
	}
}

// OneWay answers from the querier's Dijkstra row: every message of a
// lookup runs between the querier and a replica.
func (l *link) OneWay(a, b int) topology.Micros {
	if b == l.src {
		a, b = b, a
	} else if a != l.src {
		panic(fmt.Sprintf("experiments: a message %d→%d away from querier %d", a, b, l.src))
	}
	return l.g.OneWay(a, b, l.dist)
}

// byHops ranks replicas by hop count from the querier instead of by RTT
// (§IV-B2a's least-hops selection); the messages still take the RTT.
type byHops struct{ *link }

func (h byHops) Rank(_, dst int) int64 { return int64(h.hops[dst]) }

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
