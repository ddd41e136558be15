package experiments

import (
	"fmt"

	"dmap/internal/engine"
	"dmap/internal/guid"
	"dmap/internal/nodesim"
	"dmap/internal/prefixtable"
	"dmap/internal/simnet"
	"dmap/internal/stats"
	"dmap/internal/topology"
)

// ChurnSimConfig drives the protocol-level churn experiment: real timed
// BGP withdrawals and announcements applied to a live simulated
// deployment while a stream of the shipped client's lookups runs — the
// end-to-end version of Fig. 5's abstracted miss-rate model, exercising
// the §III-D1 migration protocol itself.
type ChurnSimConfig struct {
	K          int
	NumGUIDs   int
	NumLookups int
	// DurationSec is the simulated window; lookups spread uniformly and
	// churn follows the configured rates.
	DurationSec float64
	// WithdrawPerSec / AnnouncePerSec are BGP churn rates (§III-D1).
	WithdrawPerSec float64
	AnnouncePerSec float64
	Seed           int64
	// Workers bounds the parallelism of the post-run announce-repair
	// sweep (0 = GOMAXPROCS, 1 = serial reference). The timed simulation
	// itself is inherently serial — event interleaving is the experiment
	// — so only the sweep parallelizes; results are identical for every
	// setting.
	Workers int
}

// ChurnSimResult reports protocol behaviour under live churn.
type ChurnSimResult struct {
	Latency stats.Summary // ms, successful lookups
	// Lookups / Failures count the stream; with K replicas and migration
	// the protocol should keep Failures at zero.
	Lookups  int
	Failures int
	// Migrated counts mappings re-homed by withdrawals.
	Migrated int
	// Withdrawals / Announcements applied.
	Withdrawals   int
	Announcements int
	// Repaired counts orphan mappings pulled back by the §III-D1 lazy
	// announce-repair (RepairMiss) once traffic settles.
	Repaired int
	// Retried counts lookups that needed more than one replica attempt.
	Retried int
	// Consistency is the post-run audit of the deployment's invariants
	// (nodesim.Nodes.VerifyConsistency): after churn settles there must
	// be no missing replicas, version skews or stray entries.
	Consistency nodesim.ConsistencyReport
}

// RunChurnSim executes the experiment at protocol level (moderate world
// sizes; every message is simulated).
func RunChurnSim(w *World, cfg ChurnSimConfig) (*ChurnSimResult, error) {
	if cfg.K <= 0 || cfg.NumGUIDs <= 0 || cfg.NumLookups <= 0 || cfg.DurationSec <= 0 {
		return nil, fmt.Errorf("experiments: invalid churn-sim config")
	}
	trace, err := w.lookupTrace(cfg.NumGUIDs, cfg.NumLookups, cfg.Seed)
	if err != nil {
		return nil, err
	}
	nodes, err := w.populated(trace, w.resolver(cfg.K, false), false)
	if err != nil {
		return nil, err
	}
	cache, err := topology.NewDistCache(w.Graph, 512)
	if err != nil {
		return nil, err
	}
	dep, err := nodesim.NewDeployment(nodes, cache)
	if err != nil {
		return nil, err
	}

	churn, err := prefixtable.GenerateChurn(w.Table, prefixtable.ChurnConfig{
		WithdrawPerSec: cfg.WithdrawPerSec,
		AnnouncePerSec: cfg.AnnouncePerSec,
		DurationSec:    cfg.DurationSec,
		Seed:           cfg.Seed + 3,
	})
	if err != nil {
		return nil, err
	}

	res := &ChurnSimResult{Lookups: cfg.NumLookups}
	col := stats.NewCollector(cfg.NumLookups)
	sim := dep.Sim()

	for _, ev := range churn {
		at := simnet.Time(ev.AtSec * 1e6)
		if err := sim.At(at, func() {
			switch ev.Kind {
			case prefixtable.ChurnWithdraw:
				n, err := nodes.WithdrawPrefix(ev.Prefix.Prefix, ev.Prefix.AS)
				if err != nil {
					return // already withdrawn by an overlapping event
				}
				res.Migrated += n
				res.Withdrawals++
			case prefixtable.ChurnAnnounce:
				if err := nodes.AnnouncePrefix(ev.Prefix.Prefix, ev.Prefix.AS); err == nil {
					res.Announcements++
				}
			}
		}); err != nil {
			return nil, err
		}
	}

	rngStep := cfg.DurationSec * 1e6 / float64(cfg.NumLookups)
	for i, ev := range trace.Lookups {
		at := simnet.Time(float64(i) * rngStep)
		g := guid.FromUint64(uint64(ev.GUIDIndex) + 1)
		// Each lookup is the shipped client's walk, run as a simnet
		// process: concurrent with the others and the churn in virtual
		// time, one after another they would finish minutes late.
		if err := dep.Sim().Go(at, func() {
			r, err := dep.Read(ev.SrcAS, g)
			switch {
			case err != nil || !r.Found:
				res.Failures++
			default:
				if r.Attempts > 1 {
					res.Retried++
				}
				col.Add(float64(r.Latency) / 1000)
			}
		}); err != nil {
			return nil, err
		}
	}

	sim.Run(0)
	res.Latency = col.Summarize()

	// Settle the lazy announce-repair: in production each orphan is
	// pulled on its first post-announcement query (§III-D1); here we
	// sweep so the post-run audit reflects the repaired steady state.
	// Within one announce event the sweep fans out over GUIDs on the
	// engine: RepairMiss touches only its own GUID's placement, the
	// store layer is concurrency-safe, and whether a given GUID repairs
	// does not depend on any other GUID, so the summed count is exact at
	// every worker count. Events themselves stay ordered — a later
	// announcement can re-home mappings the earlier one repaired.
	for _, ev := range churn {
		if ev.Kind != prefixtable.ChurnAnnounce {
			continue
		}
		repaired, err := engine.MapNoScratch(cfg.Workers, cfg.NumGUIDs,
			func(gi int) (bool, error) {
				g := guid.FromUint64(uint64(gi) + 1)
				return nodes.RepairMiss(g, ev.Prefix.Prefix, ev.Prefix.AS)
			})
		if err != nil {
			return nil, err
		}
		for _, r := range repaired {
			if r {
				res.Repaired++
			}
		}
	}

	rep, err := nodes.VerifyConsistency()
	if err != nil {
		return nil, err
	}
	res.Consistency = rep
	return res, nil
}

// String renders the churn-sim report.
func (r *ChurnSimResult) String() string {
	return fmt.Sprintf(
		"lookups: %d (failures %d, retried %d)\nwithdrawals: %d (migrated %d mappings), announcements: %d (repaired %d)\nlatency: %v\nconsistency audit: %v\n",
		r.Lookups, r.Failures, r.Retried, r.Withdrawals, r.Migrated, r.Announcements, r.Repaired, r.Latency, r.Consistency)
}
