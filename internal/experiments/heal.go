package experiments

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"

	"dmap/internal/core"
	"dmap/internal/guid"
	"dmap/internal/netaddr"
	"dmap/internal/nodesim"
	"dmap/internal/prefixtable"
	"dmap/internal/simnet"
	"dmap/internal/store"
	"dmap/internal/topology"
)

// HealConfig drives the partition-heal convergence experiment: split the
// network, write divergent versions on both sides, heal, and measure how
// long anti-entropy gossip (DESIGN.md §12) takes to restore §III-D2
// agreement — and how many stale reads slip through before it does —
// as a function of the gossip interval. Every AS keeps the §III-C
// per-attachment-AS copies, which the repair protocol must also
// converge.
type HealConfig struct {
	// NumAS sizes the topology (default 200).
	NumAS int
	// K is the replication factor (default 3).
	K int
	// NumGUIDs sizes the diverged population (default 50).
	NumGUIDs int
	// GossipIntervals lists the sweep points: simulated time between
	// gossip rounds after the heal.
	GossipIntervals []simnet.Time
	// Seed fixes the topology, prefix table, write placement and probe
	// sampling.
	Seed int64
}

// staleProbes is the number of post-heal, pre-convergence lookups each
// cell probes for staleness.
const staleProbes = 200

// HealCell is one gossip-interval sweep point.
type HealCell struct {
	GossipInterval simnet.Time
	// ConvergenceTime is the simulated time from the heal until every
	// copy — placements, attachment-AS and writer-side §III-C local
	// copies — holds the max version.
	ConvergenceTime simnet.Time
	// Rounds is how many gossip rounds that took.
	Rounds int
	// EntriesRepaired counts entries that actually advanced a store
	// (pulled + pushed).
	EntriesRepaired int
	// StaleReads of Probes lookups issued immediately after the heal
	// (before any gossip) returned a pre-partition or one-side version.
	StaleReads int
	Probes     int
}

// StaleRate returns the stale fraction of the post-heal probes.
func (c HealCell) StaleRate() float64 {
	if c.Probes == 0 {
		return 0
	}
	return float64(c.StaleReads) / float64(c.Probes)
}

// HealResult holds the sweep.
type HealResult struct {
	Cells []HealCell
}

// String renders the sweep as a convergence table.
func (r *HealResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-14s %14s %7s %9s %11s\n",
		"interval(ms)", "converge(ms)", "rounds", "repaired", "stale-rate")
	for _, c := range r.Cells {
		fmt.Fprintf(&b, "%-14.0f %14.1f %7d %9d %10.1f%%\n",
			float64(c.GossipInterval)/1000, float64(c.ConvergenceTime)/1000,
			c.Rounds, c.EntriesRepaired, 100*c.StaleRate())
	}
	return b.String()
}

// RunHeal runs the partition-heal sweep. Each cell builds its own
// deployment from the seed, so cells are independent and the whole sweep
// is deterministic.
func RunHeal(cfg HealConfig) (*HealResult, error) {
	if cfg.NumAS <= 0 {
		cfg.NumAS = 200
	}
	if cfg.K <= 0 {
		cfg.K = 3
	}
	if cfg.NumGUIDs <= 0 {
		cfg.NumGUIDs = 50
	}
	if len(cfg.GossipIntervals) == 0 {
		return nil, fmt.Errorf("experiments: heal sweep needs GossipIntervals")
	}
	res := &HealResult{}
	for _, interval := range cfg.GossipIntervals {
		if interval <= 0 {
			return nil, fmt.Errorf("experiments: non-positive gossip interval %d", interval)
		}
		cell, err := runHealCell(cfg, interval)
		if err != nil {
			return nil, err
		}
		res.Cells = append(res.Cells, cell)
	}
	return res, nil
}

func runHealCell(cfg HealConfig, interval simnet.Time) (HealCell, error) {
	cell := HealCell{GossipInterval: interval}
	g, err := topology.Generate(topology.SmallGenConfig(cfg.NumAS, cfg.Seed))
	if err != nil {
		return cell, err
	}
	tbl, err := prefixtable.Generate(prefixtable.GenConfig{
		NumAS:       g.NumAS(),
		NumPrefixes: 3000,
		Seed:        cfg.Seed,
	})
	if err != nil {
		return cell, err
	}
	resolver, err := core.NewResolver(guid.MustHasher(cfg.K, 0), tbl, 0)
	if err != nil {
		return cell, err
	}
	nodes, err := nodesim.NewNodes(resolver, g.NumAS(), true)
	if err != nil {
		return cell, err
	}
	cache, err := topology.NewDistCache(g, 64)
	if err != nil {
		return cell, err
	}
	d, err := nodesim.NewDeployment(nodes, cache)
	if err != nil {
		return cell, err
	}

	// Seed the population at v1 while the network is whole.
	rng := rand.New(rand.NewSource(cfg.Seed + 99))
	entries := make([]store.Entry, cfg.NumGUIDs)
	for i := range entries {
		entries[i] = store.Entry{
			GUID:    guid.FromUint64(uint64(i) + 1),
			NAs:     []store.NA{{AS: rng.Intn(g.NumAS()), Addr: netaddr.AddrFromOctets(10, 0, byte(i>>8), byte(i))}},
			Version: 1,
		}
		if _, err := d.Write(entries[i].NAs[0].AS, entries[i]); err != nil {
			return cell, err
		}
	}

	// Partition the lower half from the upper half; write v2 from the
	// lower side, v3 from the upper, so every entry's replicas disagree
	// across the cut.
	group := make([]int, g.NumAS()/2)
	for as := range group {
		group[as] = as
	}
	if err := d.Network().SetFaults(&simnet.FaultPlan{
		Seed:       cfg.Seed,
		Partitions: []simnet.Partition{{From: d.Sim().Now(), Group: group}},
	}); err != nil {
		return cell, err
	}
	// A side that reaches none of an entry's replicas stores it nowhere:
	// its write fails, and the run goes on.
	for i := range entries {
		v2 := entries[i]
		v2.Version = 2
		_, _ = d.Write(0, v2)
		v3 := entries[i]
		v3.Version = 3
		_, _ = d.Write(g.NumAS()-1, v3)
	}
	d.Sim().Run(0)
	if err := d.Network().SetFaults(nil); err != nil {
		return cell, err
	}

	// Stale-read probes right after the heal, before any repair: what a
	// client sees in the window gossip has not yet closed. Mobility
	// means a stale mapping routes traffic to a stale locator (§III-B).
	const maxVersion = 3
	for p := 0; p < staleProbes; p++ {
		i := rng.Intn(len(entries))
		src := rng.Intn(g.NumAS())
		r, err := d.Read(src, entries[i].GUID)
		if err != nil {
			return cell, err
		}
		if !r.Found || r.Entry.Version != maxVersion {
			cell.StaleReads++
		}
	}
	d.Sim().Run(0)
	cell.Probes = staleProbes
	// The probe phase drags the clock to its last armed (if unused)
	// timeout; gossip timing is measured from its own start.
	gossipStart := d.Sim().Now()

	// Gossip rounds spaced by the interval until every copy — the replica
	// sets, and any other AS still holding a GUID, like the writers'
	// §III-C local copies lookups there would race — holds the max
	// version. Each round runs event by event until the copies agree —
	// the convergence instant — or its sweeps have all finished; an
	// exchange's timer outlives it, so a drained queue would overstate
	// it. The next round starts at its tick or then.
	var current []func() bool // one per copy: at the max version?
	for _, e := range entries {
		reps, err := nodes.ReplicaASs(e, nil)
		if err != nil {
			return cell, err
		}
		for as := 0; as < g.NumAS(); as++ {
			node, err := d.Node(as)
			if err != nil {
				return cell, err
			}
			st := node.Store()
			if _, held := st.Get(e.GUID); held || slices.Contains(reps, as) {
				current = append(current, func() bool { v, _ := st.Version(e.GUID); return v == maxVersion })
			}
		}
	}
	converged := func() bool {
		for _, ok := range current {
			if !ok() {
				return false
			}
		}
		return true
	}

	// A repair is counted where it lands: a put that advanced a store. A
	// push acked stale — another sweep delivered the copy first — is not
	// one, so the sweepers' own counters would overstate it.
	advanced := func() (n int64) {
		for as := 0; as < g.NumAS(); as++ {
			node, _ := d.Node(as) // in range
			reg := node.Metrics()
			n += reg.Counter("store.puts").Value() - reg.Counter("store.stale_puts").Value()
		}
		return n
	}
	before := advanced()
	const maxRounds = 16
	for !converged() {
		if cell.Rounds++; cell.Rounds > maxRounds {
			return cell, fmt.Errorf("experiments: no convergence after %d gossip rounds", maxRounds)
		}
		d.Sim().RunUntil(gossipStart + simnet.Time(cell.Rounds)*interval)
		if err := d.GossipRound(); err != nil {
			return cell, err
		}
		for !converged() && d.GossipInFlight() > 0 && d.Sim().Step() {
		}
	}
	cell.EntriesRepaired = int(advanced() - before)
	cell.ConvergenceTime = d.Sim().Now() - gossipStart
	return cell, nil
}
