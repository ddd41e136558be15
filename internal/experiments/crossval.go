package experiments

import (
	"cmp"
	"fmt"
	"math"
	"strings"

	"dmap/internal/guid"
	"dmap/internal/nodesim"
	"dmap/internal/server"
	"dmap/internal/simnet"
	"dmap/internal/stats"
	"dmap/internal/store"
	"dmap/internal/topology"
	"dmap/internal/workload"
)

// CrossValConfig drives the engine cross-validation: the same workload
// evaluated through (a) evalLookup, the closed-form grouped evaluator
// every Fig. 4/5, Table I and A12 number comes from, fed exactly what
// RunLatency feeds it, and (b) the shipped client's walk
// (client.Cluster) over nodesim's simulated link, message by message.
// The two implementations share no latency code paths beyond the
// topology, so agreement validates both (DESIGN.md "Scale strategy").
type CrossValConfig struct {
	K          int
	NumGUIDs   int
	NumLookups int
	Seed       int64
	// timeout bounds each attempt in both engines; 0 selects
	// DefaultAvailabilityTimeout.
	timeout topology.Micros
}

// crossValMissRate is Fig. 5's 5% miss rate.
const crossValMissRate = 0.05

// CrossValRow compares the two engines on one configuration.
type CrossValRow struct {
	Name string
	// ClosedForm and EventSim digest the found lookups' latencies (ms).
	ClosedForm stats.Summary
	EventSim   stats.Summary
	// MaxAbsDiffMs is the largest per-query latency disagreement, failed
	// lookups included (on found/failed the engines must agree).
	MaxAbsDiffMs float64
	// Failed counts lookups both engines failed; Reasked those whose
	// replicas were spent with no hit and one had answered "missing", so
	// the closest such one was asked again.
	Failed, Reasked int
}

// CrossValResult compares the two engines in four configurations.
type CrossValResult struct {
	Rows []CrossValRow
	// Queries is the number of compared lookups per configuration.
	Queries int
}

// RunCrossVal executes the comparison in four configurations: no local
// copy; §III-C local copies (Fig. 4); local copies and 5% misses (Fig.
// 5); 10% failed ASs, no retries, no loss (A12's walk). Both engines meet
// the same outcomes from one pure function: a failed AS is a simnet crash
// window for the whole run, and a replica whose draw misses lacks the
// GUID's copy until it has answered. Loss is left out: simnet draws it
// in send order.
func RunCrossVal(w *World, cfg CrossValConfig) (*CrossValResult, error) {
	if cfg.K <= 0 || cfg.NumGUIDs <= 0 || cfg.NumLookups <= 0 {
		return nil, fmt.Errorf("experiments: invalid cross-validation config")
	}
	trace, err := w.lookupTrace(cfg.NumGUIDs, cfg.NumLookups, cfg.Seed)
	if err != nil {
		return nil, err
	}
	placements, err := w.placementTable(cfg.NumGUIDs, cfg.K, false)
	if err != nil {
		return nil, err
	}
	_, sources := bySource(trace.Lookups) // a crashed node sends nothing: keep the queriers up
	names := []string{"no local copy", "local copy (Fig. 4)", "local copy, 5% misses (Fig. 5)", "10% failed, no retries (A12)"}
	// The closed form takes the client's timeout in every configuration:
	// a replica that far away times out in both engines.
	timeout := cmp.Or(cfg.timeout, DefaultAvailabilityTimeout)
	cells := []cell{
		{cfg.K, false, &faults{timeout: timeout}},
		{cfg.K, true, &faults{timeout: timeout}},
		{cfg.K, true, &faults{seed: cfg.Seed, missRate: crossValMissRate, timeout: timeout}},
		{cfg.K, false, &faults{failed: w.failedSet(0.10, cfg.Seed, sources), timeout: timeout}},
	}
	// (a) Closed form: the sweep RunLatency and RunAvailability run.
	closed := make([][]walkResult, len(cells))
	for c := range closed {
		closed[c] = make([]walkResult, cfg.NumLookups)
	}
	sums, err := w.sweep(trace, placements, cells, false, 0, func(c, li int, r walkResult) { closed[c][li] = r })
	if err != nil {
		return nil, err
	}
	res := &CrossValResult{Queries: cfg.NumLookups}
	for c, name := range names {
		// (b) Event-driven: the same lookups as scheduled messages.
		event, err := w.eventLookups(trace, placements, cells[c])
		if err != nil {
			return nil, err
		}
		row := CrossValRow{Name: name, ClosedForm: sums[c].col.Summarize()}
		evCol := stats.NewCollector(cfg.NumLookups)
		for li, ev := range event {
			cf := closed[c][li]
			switch {
			case cf.found != ev.Found:
				return nil, fmt.Errorf("experiments: %s: lookup %d found by one engine only", name, li)
			case !ev.Found:
				row.Failed++
			default:
				evCol.Add(ev.Latency.Millis())
			}
			if cf.reasked {
				row.Reasked++
			}
			row.MaxAbsDiffMs = math.Max(row.MaxAbsDiffMs, math.Abs(ev.Latency.Millis()-cf.latency.Millis()))
		}
		row.EventSim = evCol.Summarize()
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// eventLookups runs trace's lookups one at a time through the shipped
// client on the link, on a populated deployment with c's K, local
// copies and timeout, each meeting c's faults, and returns their results
// in trace order.
func (w *World) eventLookups(trace *workload.Trace, placements [][]int32, c cell) ([]nodesim.LookupResult, error) {
	sys, err := w.populatedSystem(trace, c.k, c.local)
	if err != nil {
		return nil, err
	}
	cache, err := topology.NewDistCache(w.Graph, w.NumAS())
	if err != nil {
		return nil, err
	}
	dep, err := nodesim.NewDeployment(sys, simnet.New(), cache, c.f.timeout)
	if err != nil {
		return nil, err
	}
	plan := &simnet.FaultPlan{}
	for as, down := range c.f.failed {
		if down {
			plan.Crashes = append(plan.Crashes, simnet.CrashWindow{Node: as}) // down for good
		}
	}
	if err := dep.Network().SetFaults(plan); err != nil {
		return nil, err
	}

	sim := dep.Sim()
	out := make([]nodesim.LookupResult, len(trace.Lookups))
	for i, ev := range trace.Lookups {
		g := guid.FromUint64(uint64(ev.GUIDIndex) + 1)
		var e store.Entry
		held := make(map[*server.Node]int64) // withheld copies, by the lookups their node had served
		for _, as := range placements[ev.GUIDIndex] {
			if c.f.outcome(i, int(as), 0, homeAS(c.local, trace, ev.GUIDIndex)) != miss {
				continue
			}
			n, err := dep.Node(int(as))
			if err != nil {
				return nil, err
			}
			if got, ok := n.Store().Get(g); ok { // not yet withheld for a collided placement
				e = got
				n.Store().Delete(g)
				held[n] = n.Stats().Lookups
			}
		}
		var (
			res     nodesim.LookupResult
			readErr error
			done    bool
		)
		if err := sim.Go(sim.Now(), func() { res, readErr = dep.Read(ev.SrcAS, g); done = true }); err != nil {
			return nil, err
		}
		// A withheld copy comes back once its replica has answered
		// "missing": once its node has served a lookup.
		for !done && sim.Step() {
			for n, before := range held {
				if n.Stats().Lookups > before {
					if _, err := n.Store().Put(e); err != nil {
						return nil, err
					}
					delete(held, n)
				}
			}
		}
		for n := range held {
			if _, err := n.Store().Put(e); err != nil {
				return nil, err
			}
		}
		switch {
		case readErr != nil:
			return nil, readErr
		case !done:
			return nil, fmt.Errorf("experiments: event-sim lookup %d never completed", i)
		}
		sim.Run(0) // drain: the next lookup starts alone
		out[i] = res
	}
	return out, nil
}

// String renders the comparison, one block per configuration.
func (r *CrossValResult) String() string {
	var b strings.Builder
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "## %s\nclosed-form: %v\nevent-sim:   %v\nmax per-query |Δ| = %.3f ms over %d queries; both failed %d, re-asked %d\n",
			row.Name, row.ClosedForm, row.EventSim, row.MaxAbsDiffMs, r.Queries, row.Failed, row.Reasked)
	}
	return b.String()
}
