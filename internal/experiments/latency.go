package experiments

import (
	"cmp"
	"fmt"
	"slices"
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
	// Placements per GUID at max K, computed once and shared by every K.
	placements, err := w.placementTable(cfg.NumGUIDs, maxK, cfg.HashToASNumbers)
	if err != nil {
		return nil, err
	}
	f := faults{seed: cfg.Seed, missRate: cfg.MissRate}
	cells := make([]cell, len(cfg.Ks))
	for i, k := range cfg.Ks {
		cells[i] = cell{k: k, local: cfg.LocalReplica, f: &f}
	}
	sums, err := w.sweep(trace, placements, cells, cfg.Selection == SelectLeastHops, cfg.Workers, nil)
	if err != nil {
		return nil, err
	}
	res := &LatencyResult{PerK: map[int]*stats.Collector{}, LocalHits: map[int]int{}, Retries: map[int]int{}}
	for i, k := range cfg.Ks {
		res.PerK[k], res.LocalHits[k], res.Retries[k] = sums[i].col, sums[i].local, sums[i].misses
	}
	return res, nil
}

// cell is one point of a closed-form sweep: a replication factor,
// whether §III-C local copies are on, and the faults the walk meets.
type cell struct {
	k     int
	local bool
	f     *faults
}

// cellSums adds up a cell's walks; col holds the found lookups'
// latencies (ms).
type cellSums struct {
	col                                *stats.Collector
	local, misses, timeouts, failovers int
}

// sweep walks every lookup of trace through evalLookup in every cell and
// hands each result to each, if not nil (from several workers, once per
// cell and lookup). Lookups grouped by source AS — one Dijkstra each,
// exact because lookups are independent (DESIGN.md, "Scale strategy") —
// are the engine's work units, and their sums merge in source order, so
// every worker count yields bit-identical results.
func (w *World) sweep(trace *workload.Trace, placements [][]int32, cells []cell, leastHops bool, workers int, each func(c, li int, r walkResult)) ([]cellSums, error) {
	bySrc, sources := bySource(trace.Lookups)
	units, err := engine.Map(workers, len(sources),
		func() *walker { return newWalker(w.Graph, len(placements[0]), leastHops) },
		func(u int, wk *walker) ([]cellSums, error) {
			lookups := bySrc[sources[u]]
			wk.from(sources[u])
			out := make([]cellSums, len(cells))
			for c, cl := range cells {
				out[c].col = stats.NewCollector(len(lookups))
				for _, li := range lookups {
					gi := trace.Lookups[li].GUIDIndex
					r := wk.evalLookup(li, placements[gi][:cl.k], homeAS(cl.local, trace, gi), cl.f)
					if each != nil {
						each(c, li, r)
					}
					if r.found {
						out[c].col.Add(r.latency.Millis())
					}
					if r.local {
						out[c].local++
					}
					out[c].misses += r.misses
					out[c].timeouts += r.timeouts
					out[c].failovers += r.failovers
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

// homeAS is the attachment AS holding the GUID's §III-C local copy, or
// -1 without local copies.
func homeAS(local bool, trace *workload.Trace, guidIdx int) int {
	if !local {
		return -1
	}
	return trace.HomeAS[guidIdx]
}

// outcome is what one attempt at one replica meets.
type outcome uint8

const (
	hit  outcome = iota // the replica answers with the mapping
	miss                // it answers "GUID missing" (churn, §III-D1): the RTT, then the next replica
	dead                // its node is down (§III-D3): the timeout, no answer
	lost                // the request or its reply is lost: the timeout, no answer
)

// faults is what a closed-form walk can meet; the zero value is the
// fault-free walk of Fig. 4 and Table I.
type faults struct {
	seed     int64           // keys every draw
	missRate float64         // P(a live replica answers "GUID missing"), Fig. 5
	loss     float64         // P(an attempt's request or reply is lost)
	failed   []bool          // ASs whose mapping node never answers; nil: none
	timeout  topology.Micros // charged per dead, lost or late attempt; 0: none (Figs. 4, 5)
	// retries is how many same-replica attempts follow a timeout before
	// the walk fails over (client.RetryPolicy's MaxAttempts − 1).
	retries int
}

// outcome returns what attempt `attempt` of trace lookup li meets at
// replica AS as. It is a pure function, so a replica meets the same
// outcome at every K (K = 3's replicas are a prefix of K = 5's), in any
// evaluation order, and on RunCrossVal's event side. home is the AS
// holding the GUID's §III-C local copy (-1: none); it never misses.
func (f *faults) outcome(li, as, attempt, home int) outcome {
	if f.failed != nil && f.failed[as] {
		return dead
	}
	if f.loss == 0 && f.missRate == 0 {
		return hit
	}
	// A uniform [0, 1) draw: splitmix64 over (seed, lookup, AS, attempt),
	// the pattern of client.RetryPolicy's jitter.
	h := mix64(uint64(f.seed) ^ 0x9e3779b97f4a7c15)
	h = mix64(h ^ uint64(li))
	h = mix64(h ^ uint64(as))
	h = mix64(h ^ uint64(attempt))
	switch u := float64(h>>11) / (1 << 53); {
	case u < f.loss:
		return lost
	case u < f.loss+f.missRate && as != home:
		return miss
	}
	return hit
}

// mix64 is the splitmix64 finalizer.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// lookupCand is one replica candidate during closed-form evaluation.
type lookupCand struct {
	as   int
	rtt  topology.Micros
	cost int64
}

// walker is the closed-form walk's per-worker state: the querier, its
// distances, its hop counts for least-hops selection, and scratch.
type walker struct {
	g     *topology.Graph
	src   int
	dist  []topology.Micros
	hops  []int32
	cands []lookupCand
}

func newWalker(g *topology.Graph, maxK int, leastHops bool) *walker {
	wk := &walker{g: g, dist: make([]topology.Micros, g.NumAS()), cands: make([]lookupCand, 0, maxK)}
	if leastHops {
		wk.hops = make([]int32, g.NumAS())
	}
	return wk
}

// from makes src the querier: one Dijkstra (and hop BFS).
func (wk *walker) from(src int) {
	wk.src = src
	wk.g.Dijkstra(src, wk.dist)
	if wk.hops != nil {
		wk.g.HopBFS(src, wk.hops)
	}
}

// walkResult is one closed-form lookup.
type walkResult struct {
	latency   topology.Micros // until the answer, or until the walk gave up
	found     bool
	local     bool // answered by the §III-C local copy
	servedBy  int  // the answering AS (the querier's for a local answer); -1 if none
	misses    int  // "GUID missing" answers
	timeouts  int  // dead or lost attempts
	failovers int  // moves to the next replica after one timed out
	reasked   bool // every replica was spent and the closest missing one asked again
}

// evalLookup is the §III-C/§III-D3 lookup walk in closed form, behind
// every Fig. 4/5, Table I and A12 number. Each distinct replica AS is
// asked once, in selection-policy order, each attempt meeting f's
// outcome; an answer f.timeout or more away is late, a timeout, as the
// client settles the attempt at its timeout and drops the late reply. A
// timed-out replica is retried up to f.retries times. When
// every replica is spent and one answered "missing", the closest such
// one is asked again and answers: §III-D1 pulls the copy on the first
// miss. With local copies (home ≥ 0) a parallel local lookup wins if it
// is faster than the global answer, or if there is none.
func (wk *walker) evalLookup(li int, replicas []int32, home int, f *faults) walkResult {
	src := wk.src
	cands := wk.cands[:0]
	srcReplica := false
	for _, r := range replicas {
		as := int(r)
		srcReplica = srcReplica || as == src
		if slices.ContainsFunc(cands, func(c lookupCand) bool { return c.as == as }) {
			continue
		}
		rtt := wk.g.RTT(src, as, wk.dist)
		c := lookupCand{as: as, rtt: rtt, cost: int64(rtt)}
		if wk.hops != nil {
			c.cost = int64(wk.hops[as])
		}
		cands = append(cands, c)
	}
	slices.SortFunc(cands, func(a, b lookupCand) int { // cheapest first, ties by AS number
		return cmp.Or(cmp.Compare(a.cost, b.cost), cmp.Compare(a.as, b.as))
	})

	r := walkResult{servedBy: -1}
	firstMiss := -1
walk:
	for i, c := range cands {
		for attempt := 0; attempt <= f.retries; attempt++ {
			o := f.outcome(li, c.as, attempt, home)
			if f.timeout > 0 && c.rtt >= f.timeout {
				o = lost
			}
			switch o {
			case hit:
				r.latency += c.rtt
				r.found, r.servedBy = true, c.as
				break walk
			case miss:
				r.latency += c.rtt
				r.misses++
				if firstMiss < 0 {
					firstMiss = i
				}
				continue walk
			}
			r.latency += f.timeout
			r.timeouts++
		}
		if i < len(cands)-1 {
			r.failovers++
		}
	}
	if !r.found && firstMiss >= 0 {
		r.latency += cands[firstMiss].rtt
		r.found, r.servedBy, r.reasked = true, cands[firstMiss].as, true
	}
	// The local lookup reads the querier's own mapping server: it holds
	// the GUID at its home and, unless churn lost the copy, at a replica.
	if home >= 0 && (home == src || srcReplica && f.outcome(li, src, 0, home) != miss) {
		if local := 2 * wk.g.Intra(src); !r.found || local < r.latency {
			r.latency, r.found, r.local, r.servedBy = local, true, true, src
		}
	}
	return r
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
