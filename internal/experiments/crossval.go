package experiments

import (
	"fmt"
	"math"

	"dmap/internal/guid"
	"dmap/internal/nodesim"
	"dmap/internal/simnet"
	"dmap/internal/stats"
	"dmap/internal/topology"
)

// CrossValConfig drives the engine cross-validation: the same workload
// evaluated through (a) evalLookup, the closed-form grouped evaluator
// every Fig. 4/5 and Table I number comes from, fed exactly what
// RunLatency feeds it, and (b) nodesim's message-level discrete-event
// walk. The two implementations share no latency code paths beyond the
// topology, so agreement validates both (DESIGN.md "Scale strategy").
type CrossValConfig struct {
	K          int
	NumGUIDs   int
	NumLookups int
	Seed       int64
}

// CrossValResult compares the two engines.
type CrossValResult struct {
	ClosedForm stats.Summary // ms
	EventSim   stats.Summary // ms
	// MaxAbsDiffMs is the largest per-query latency disagreement.
	MaxAbsDiffMs float64
	// Queries is the number of compared lookups.
	Queries int
}

// RunCrossVal executes the comparison. Failure-free lookups are used so
// both engines should agree exactly up to integer-microsecond rounding.
func RunCrossVal(w *World, cfg CrossValConfig) (*CrossValResult, error) {
	if cfg.K <= 0 || cfg.NumGUIDs <= 0 || cfg.NumLookups <= 0 {
		return nil, fmt.Errorf("experiments: invalid cross-validation config")
	}
	trace, err := w.lookupTrace(cfg.NumGUIDs, cfg.NumLookups, cfg.Seed)
	if err != nil {
		return nil, err
	}
	// (a) Closed-form: evalLookup per source group, one Dijkstra each,
	// over the placement table's rows — RunLatency's inputs at one K, no
	// local replica, no misses — collected in RunLatency's sample order.
	placements, err := w.placementTable(cfg.NumGUIDs, cfg.K, 0, false)
	if err != nil {
		return nil, err
	}
	bySrc, sources := bySource(trace.Lookups)
	closed := stats.NewCollector(cfg.NumLookups)
	closedVals := make([]topology.Micros, cfg.NumLookups)
	dist := make([]topology.Micros, w.NumAS())
	replicas := make([]int, cfg.K)
	cands := make([]lookupCand, cfg.K)
	for _, src := range sources {
		w.Graph.Dijkstra(src, dist)
		for _, li := range bySrc[src] {
			for r, as := range placements[trace.Lookups[li].GUIDIndex] {
				replicas[r] = int(as)
			}
			closedVals[li], _, _ = evalLookup(w.Graph, src, replicas, dist, nil, cands, evalOpts{localAS: -1})
			closed.Add(closedVals[li].Millis())
		}
	}

	// (b) Event-driven: the same lookups as scheduled messages against
	// a populated system.
	sys, err := w.populatedSystem(trace, cfg.K)
	if err != nil {
		return nil, err
	}
	cache, err := topology.NewDistCache(w.Graph, w.NumAS())
	if err != nil {
		return nil, err
	}
	dep, err := nodesim.NewDeployment(sys, simnet.New(), cache, 0)
	if err != nil {
		return nil, err
	}
	eventVals := make([]topology.Micros, cfg.NumLookups)
	evCol := stats.NewCollector(cfg.NumLookups)
	for i, ev := range trace.Lookups {
		g := guid.FromUint64(uint64(ev.GUIDIndex) + 1)
		// Space queries far apart so each completes in isolation.
		at := simnet.Time(i) * 10_000_000
		if err := dep.Sim().At(at, func() {
			err := dep.Lookup(ev.SrcAS, g, func(r nodesim.LookupResult) {
				if !r.Found {
					eventVals[i] = -1
					return
				}
				eventVals[i] = r.Latency
			})
			if err != nil {
				eventVals[i] = -1
			}
		}); err != nil {
			return nil, err
		}
	}
	dep.Sim().Run(0)

	maxDiff := 0.0
	for i := range eventVals {
		if eventVals[i] < 0 {
			return nil, fmt.Errorf("event-sim lookup %d failed", i)
		}
		evCol.Add(eventVals[i].Millis())
		if d := math.Abs(eventVals[i].Millis() - closedVals[i].Millis()); d > maxDiff {
			maxDiff = d
		}
	}
	return &CrossValResult{
		ClosedForm:   closed.Summarize(),
		EventSim:     evCol.Summarize(),
		MaxAbsDiffMs: maxDiff,
		Queries:      cfg.NumLookups,
	}, nil
}

// String renders the comparison.
func (r *CrossValResult) String() string {
	return fmt.Sprintf(
		"closed-form: %v\nevent-sim:   %v\nmax per-query |Δ| = %.3f ms over %d queries\n",
		r.ClosedForm, r.EventSim, r.MaxAbsDiffMs, r.Queries)
}
