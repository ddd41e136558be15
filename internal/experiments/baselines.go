package experiments

import (
	"fmt"
	"sort"
	"strings"

	"dmap/internal/analytical"
	"dmap/internal/core"
	"dmap/internal/dht"
	"dmap/internal/engine"
	"dmap/internal/guid"
	"dmap/internal/nodesim"
	"dmap/internal/stats"
	"dmap/internal/topology"
)

// BaselinesConfig drives the DMap-vs-alternatives comparison (§II-B,
// §VI): the same workload resolved through DMap, a Chord DHT, a one-hop
// DHT and a MobileIP-style home agent.
type BaselinesConfig struct {
	// K is DMap's replication factor.
	K int
	// NumGUIDs / NumLookups size the workload.
	NumGUIDs   int
	NumLookups int
	// Seed fixes the workload.
	Seed int64
	// Workers bounds the evaluation parallelism (0 = GOMAXPROCS, 1 =
	// serial reference); results are identical for every setting.
	Workers int
}

// BaselineRow is one scheme's latency/hop digest.
type BaselineRow struct {
	Scheme      string
	RTT         stats.Summary // milliseconds
	OverlayHops float64       // mean overlay hops per lookup
}

// BaselinesResult compares resolution schemes on identical workloads.
type BaselinesResult struct {
	Rows []BaselineRow
}

// RunBaselines evaluates all four schemes. Multi-hop Chord paths need
// arbitrary pairwise distances, so this experiment favours moderate world
// sizes (≲5k ASs) where the distance cache covers every source.
func RunBaselines(w *World, cfg BaselinesConfig) (*BaselinesResult, error) {
	if cfg.K <= 0 {
		return nil, fmt.Errorf("experiments: K must be positive")
	}
	trace, err := w.lookupTrace(cfg.NumGUIDs, cfg.NumLookups, cfg.Seed)
	if err != nil {
		return nil, err
	}
	cache, err := topology.NewDistCache(w.Graph, w.NumAS())
	if err != nil {
		return nil, err
	}
	// DMap: the fault-free sweep every figure takes — closest of K
	// replicas, a single overlay hop.
	dmap, err := w.sweep(trace, []cell{{res: w.resolver(cfg.K, false), f: &nodesim.Faults{}}}, false, cfg.Workers, nil)
	if err != nil {
		return nil, err
	}
	chord, err := dht.NewChord(w.NumAS(), 1)
	if err != nil {
		return nil, err
	}
	oneHop, err := dht.NewOneHop(w.NumAS(), 2)
	if err != nil {
		return nil, err
	}
	home := dht.NewHomeAgent()

	// DMap's GUIDs and home registration share the GUID index space; the
	// first insert AS is the permanent MobileIP home.
	guids := make([]guid.GUID, cfg.NumGUIDs)
	for gi := range guids {
		guids[gi] = guid.FromUint64(uint64(gi) + 1)
		home.Register(guids[gi], trace.HomeAS[gi])
	}

	// Group lookups by source AS: one engine unit per source. The three
	// baselines share the concurrent sharded DistCache — Chord's
	// multi-hop paths pull vectors for intermediate ASs, so the cache, not
	// a per-unit scratch vector, is the right distance oracle for them.
	// Distances are pure functions of the graph, so cache interleaving
	// cannot change any value, and hop counts are
	// integers summed exactly in float64, so the source-order merge is
	// bit-identical at every worker count.
	bySrc, srcs := bySource(trace.Lookups)

	type baselineUnit struct {
		chord, oneHop, home   *stats.Collector
		chordHops, oneHopHops float64
	}
	units, err := engine.MapNoScratch(cfg.Workers, len(srcs),
		func(u int) (baselineUnit, error) {
			src := srcs[u]
			lookups := bySrc[src]
			unit := baselineUnit{
				chord:  stats.NewCollector(len(lookups)),
				oneHop: stats.NewCollector(len(lookups)),
				home:   stats.NewCollector(len(lookups)),
			}
			for _, li := range lookups {
				gi := trace.Lookups[li].GUIDIndex

				// Chord: recursive route to the owner, direct reply.
				path, err := chord.LookupPath(src, guids[gi])
				if err != nil {
					return baselineUnit{}, err
				}
				var lat topology.Micros
				for i := 1; i < len(path); i++ {
					lat += cache.OneWay(path[i-1], path[i])
				}
				lat += cache.OneWay(path[len(path)-1], src)
				unit.chord.Add(lat.Millis())
				unit.chordHops += float64(len(path) - 1)

				// One-hop DHT: direct to the single owner.
				opath, err := oneHop.LookupPath(src, guids[gi])
				if err != nil {
					return baselineUnit{}, err
				}
				unit.oneHop.Add(cache.RTT(src, opath[len(opath)-1]).Millis())
				unit.oneHopHops += float64(len(opath) - 1)

				// Home agent: always the fixed home AS.
				hpath, err := home.LookupPath(src, guids[gi])
				if err != nil {
					return baselineUnit{}, err
				}
				unit.home.Add(cache.RTT(src, hpath[len(hpath)-1]).Millis())
			}
			return unit, nil
		})
	if err != nil {
		return nil, err
	}

	chordCol := stats.NewCollector(cfg.NumLookups)
	oneHopCol := stats.NewCollector(cfg.NumLookups)
	homeCol := stats.NewCollector(cfg.NumLookups)
	var chordHops, oneHopHops float64
	for _, u := range units {
		chordCol.Merge(u.chord)
		oneHopCol.Merge(u.oneHop)
		homeCol.Merge(u.home)
		chordHops += u.chordHops
		oneHopHops += u.oneHopHops
	}

	n := float64(cfg.NumLookups)
	return &BaselinesResult{Rows: []BaselineRow{
		{Scheme: fmt.Sprintf("DMap (K=%d)", cfg.K), RTT: dmap[0].col.Summarize(), OverlayHops: 1},
		{Scheme: "One-hop DHT", RTT: oneHopCol.Summarize(), OverlayHops: oneHopHops / n},
		{Scheme: "Home agent", RTT: homeCol.Summarize(), OverlayHops: 1},
		{Scheme: "Chord DHT", RTT: chordCol.Summarize(), OverlayHops: chordHops / n},
	}}, nil
}

// String renders the comparison table.
func (r *BaselinesResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-14s %10s %10s %10s %10s\n", "scheme", "mean(ms)", "median", "p95", "hops")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-14s %10.1f %10.1f %10.1f %10.2f\n",
			row.Scheme, row.RTT.Mean, row.RTT.Median, row.RTT.P95, row.OverlayHops)
	}
	return b.String()
}

// Fig7Result holds the analytical response-time upper bounds per
// scenario.
type Fig7Result struct {
	MaxK int
	// Series maps scenario name to bounds for K = 1..MaxK (ms).
	Series map[string][]float64
	Order  []string
}

// RunFig7 evaluates the §V bound for the three Internet-evolution
// scenarios (Figure 7).
func RunFig7(maxK int) (*Fig7Result, error) {
	res := &Fig7Result{MaxK: maxK, Series: make(map[string][]float64, 3)}
	for _, s := range []analytical.Scenario{
		analytical.PresentInternet,
		analytical.MediumTermInternet,
		analytical.LongTermInternet,
	} {
		m, err := analytical.ScenarioModel(s)
		if err != nil {
			return nil, err
		}
		vals, err := m.Sweep(maxK)
		if err != nil {
			return nil, err
		}
		res.Series[s.String()] = vals
		res.Order = append(res.Order, s.String())
	}
	return res, nil
}

// String renders Figure 7 as a series table.
func (r *Fig7Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-4s", "K")
	for _, name := range r.Order {
		fmt.Fprintf(&b, " %28s", name)
	}
	b.WriteByte('\n')
	for k := 1; k <= r.MaxK; k++ {
		fmt.Fprintf(&b, "%-4d", k)
		for _, name := range r.Order {
			fmt.Fprintf(&b, " %26.1f ms", r.Series[name][k-1])
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// MeasuredJellyfishModel builds an analytical model from the generated
// topology's own layer decomposition, letting the measured world be
// compared against the paper's parametric scenarios.
func MeasuredJellyfishModel(w *World) (*analytical.Model, error) {
	jf := topology.DecomposeJellyfish(w.Graph)
	return analytical.NewModel(jf.LayerFractions, 0, 0)
}

// MSweepRow reports Algorithm 1 behaviour for one rehash bound.
type MSweepRow struct {
	M            int
	FallbackRate float64
	NLRp99       float64
}

// RunMSweep is ablation A3: how the rehash bound M trades deputy-AS
// fallbacks (which concentrate load near large holes) against hashing
// work. NLR tail is measured over numGUIDs placements with K=1.
func RunMSweep(w *World, ms []int, numGUIDs int) ([]MSweepRow, error) {
	if len(ms) == 0 {
		return nil, fmt.Errorf("experiments: no M values")
	}
	shares := w.announcedShares()

	rows := make([]MSweepRow, 0, len(ms))
	for _, m := range ms {
		resolver, err := core.NewResolver(guid.MustHasher(1, 0), w.Table, m)
		if err != nil {
			return nil, err
		}
		hosted := make(map[int]int)
		fallbacks := 0
		for gi := 1; gi <= numGUIDs; gi++ {
			p, err := resolver.PlaceReplica(guid.FromUint64(uint64(gi)), 0)
			if err != nil {
				return nil, err
			}
			hosted[p.AS]++
			if p.UsedNearest {
				fallbacks++
			}
		}
		col := stats.NormalizedLoadRatios(hosted, shares)
		rows = append(rows, MSweepRow{
			M:            m,
			FallbackRate: float64(fallbacks) / float64(numGUIDs),
			NLRp99:       col.Percentile(99),
		})
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].M < rows[j].M })
	return rows, nil
}
