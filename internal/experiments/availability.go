package experiments

import (
	"fmt"
	"math/rand"
	"strings"

	"dmap/internal/engine"
	"dmap/internal/stats"
	"dmap/internal/topology"
)

// AvailabilityConfig drives the failure-fraction × K availability sweep:
// the closed-form counterpart of §III-D3's failover story. A failed AS
// hosts a mapping node that never answers, so each attempt against it
// costs the querier a full timeout before the walk moves to the next
// hashed replica; optional message loss makes even live replicas cost
// retransmissions.
type AvailabilityConfig struct {
	// Ks lists replication factors to evaluate (e.g. 1, 3, 5).
	Ks []int
	// FailFracs lists the fractions of ASs whose mapping nodes are down
	// (e.g. 0, 0.05, 0.10, 0.20). The failed set is sampled once per
	// fraction from the seed and shared across Ks for comparability.
	FailFracs []float64
	// NumGUIDs / NumLookups size the workload.
	NumGUIDs   int
	NumLookups int
	// Timeout is the per-attempt timeout charged for a dead replica or
	// a lost message. ≤ 0 selects 2 s, the networked client's default.
	Timeout topology.Micros
	// Loss is the per-attempt probability that a request or its reply
	// is lost in transit (the attempt costs a timeout even though the
	// replica is alive).
	Loss float64
	// Retries is how many extra same-replica attempts follow a timeout
	// before the walk fails over — mirroring client.RetryPolicy
	// (MaxAttempts = Retries + 1).
	Retries int
	// Seed fixes the workload, the failed sets and the loss sampling.
	Seed int64
	// Workers bounds evaluation parallelism (0 = GOMAXPROCS, 1 = serial
	// reference); results are bit-identical at every setting.
	Workers int
}

// DefaultAvailabilityTimeout matches client.DefaultTimeout.
const DefaultAvailabilityTimeout = topology.Micros(2_000_000)

// AvailabilityCell is one (K, failure fraction) sweep point.
type AvailabilityCell struct {
	K        int
	FailFrac float64
	// Lookups and Successes count attempts and completions; a lookup
	// fails only when every replica stayed unreachable through all its
	// retries.
	Lookups   int
	Successes int
	// Timeouts counts individual timed-out attempts (dead replica or
	// lost message).
	Timeouts int
	// Failovers counts replica-to-replica moves.
	Failovers int
	// Latency collects completed-lookup response times (ms), timeout
	// costs included.
	Latency *stats.Collector
	// BaselineMean is the mean RTT (ms) of the same lookups with no
	// faults — the reference for AddedLatency.
	BaselineMean float64
}

// SuccessRate returns the fraction of lookups that completed.
func (c AvailabilityCell) SuccessRate() float64 {
	if c.Lookups == 0 {
		return 0
	}
	return float64(c.Successes) / float64(c.Lookups)
}

// AddedLatencyMs returns how much mean response time the faults added
// over the fault-free baseline.
func (c AvailabilityCell) AddedLatencyMs() float64 {
	return c.Latency.Mean() - c.BaselineMean
}

// AvailabilityResult holds the sweep grid.
type AvailabilityResult struct {
	Cells []AvailabilityCell // ordered by (FailFrac, K)
}

// Cell returns the sweep point for (k, failFrac), if present.
func (r *AvailabilityResult) Cell(k int, failFrac float64) (AvailabilityCell, bool) {
	for _, c := range r.Cells {
		if c.K == k && c.FailFrac == failFrac {
			return c, true
		}
	}
	return AvailabilityCell{}, false
}

// String renders the sweep as a success-rate / latency table.
func (r *AvailabilityResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-10s %-4s %9s %10s %10s %10s %10s\n",
		"failFrac", "K", "success", "mean(ms)", "added(ms)", "timeouts", "failovers")
	for _, c := range r.Cells {
		fmt.Fprintf(&b, "%-10.2f %-4d %8.3f%% %10.1f %10.1f %10d %10d\n",
			c.FailFrac, c.K, 100*c.SuccessRate(), c.Latency.Mean(), c.AddedLatencyMs(),
			c.Timeouts, c.Failovers)
	}
	return b.String()
}

// RunAvailability evaluates lookup availability and latency under node
// failures on w.
//
// Like RunLatency, lookups are grouped by source AS (one Dijkstra per
// distinct source) and the groups are engine work units: loss sampling
// is seeded per (K, failFrac, source), the failed sets are precomputed,
// and results merge in source order, so every worker count yields
// bit-identical results.
func RunAvailability(w *World, cfg AvailabilityConfig) (*AvailabilityResult, error) {
	maxK, err := maxK(cfg.Ks)
	if err != nil {
		return nil, err
	}
	if len(cfg.FailFracs) == 0 {
		return nil, fmt.Errorf("experiments: availability sweep needs FailFracs")
	}
	if cfg.Loss < 0 || cfg.Loss >= 1 {
		return nil, fmt.Errorf("experiments: loss %g out of [0,1)", cfg.Loss)
	}
	if cfg.Retries < 0 {
		return nil, fmt.Errorf("experiments: negative retries")
	}
	timeout := cfg.Timeout
	if timeout <= 0 {
		timeout = DefaultAvailabilityTimeout
	}
	for _, f := range cfg.FailFracs {
		if f < 0 || f >= 1 {
			return nil, fmt.Errorf("experiments: failure fraction %g out of [0,1)", f)
		}
	}

	trace, err := w.lookupTrace(cfg.NumGUIDs, cfg.NumLookups, cfg.Seed)
	if err != nil {
		return nil, err
	}
	placements, err := w.placementTable(cfg.NumGUIDs, maxK, 0, false)
	if err != nil {
		return nil, err
	}

	// One failed set per fraction, shared across Ks: sampled from the
	// seed via a shuffled AS permutation so fractions nest (10% failed ⊃
	// 5% failed), which makes the sweep monotone by construction.
	perm := rand.New(rand.NewSource(cfg.Seed + 777)).Perm(w.NumAS())
	failedSets := make([][]bool, len(cfg.FailFracs))
	for fi, frac := range cfg.FailFracs {
		failed := make([]bool, w.NumAS())
		n := int(frac * float64(w.NumAS()))
		for _, as := range perm[:n] {
			failed[as] = true
		}
		failedSets[fi] = failed
	}

	bySrc, sources := bySource(trace.Lookups)

	type unitCell struct {
		successes   int
		timeouts    int
		failovers   int
		col         *stats.Collector
		baselineSum float64
		baselineObs int
	}
	type availScratch struct {
		dist  []topology.Micros
		cands []lookupCand
	}
	numCells := len(cfg.FailFracs) * len(cfg.Ks)
	units, err := engine.Map(cfg.Workers, len(sources),
		func() *availScratch {
			return &availScratch{
				dist:  make([]topology.Micros, w.NumAS()),
				cands: make([]lookupCand, maxK),
			}
		},
		func(u int, sc *availScratch) ([]unitCell, error) {
			src := sources[u]
			lookups := bySrc[src]
			w.Graph.Dijkstra(src, sc.dist)
			out := make([]unitCell, numCells)
			for fi := range cfg.FailFracs {
				failed := failedSets[fi]
				for ki, k := range cfg.Ks {
					cell := &out[fi*len(cfg.Ks)+ki]
					cell.col = stats.NewCollector(len(lookups))
					var rng *rand.Rand
					if cfg.Loss > 0 {
						rng = rand.New(rand.NewSource(availSeed(cfg.Seed, k, fi, src)))
					}
					for _, li := range lookups {
						ev := trace.Lookups[li]
						all := placements[ev.GUIDIndex]
						// Candidate replicas lowest-RTT first, as the simulated
						// walks order them; the client walks placement order.
						cands := sc.cands[:k]
						for r := 0; r < k; r++ {
							as := int(all[r])
							rtt := w.Graph.RTT(src, as, sc.dist)
							cands[r] = lookupCand{as: as, rtt: rtt, cost: int64(rtt)}
						}
						orderCands(cands)
						cell.baselineSum += cands[0].rtt.Millis()
						cell.baselineObs++

						var elapsed topology.Micros
						ok := false
					walk:
						for ci, cand := range cands {
							alive := !failed[cand.as]
							for attempt := 0; attempt <= cfg.Retries; attempt++ {
								lost := false
								if alive && cfg.Loss > 0 {
									lost = rng.Float64() < cfg.Loss
								}
								if alive && !lost {
									elapsed += cand.rtt
									ok = true
									break walk
								}
								elapsed += timeout
								cell.timeouts++
							}
							if ci < len(cands)-1 {
								cell.failovers++
							}
						}
						if ok {
							cell.successes++
							cell.col.Add(elapsed.Millis())
						}
					}
				}
			}
			return out, nil
		})
	if err != nil {
		return nil, err
	}

	// Deterministic merge in source order.
	res := &AvailabilityResult{}
	for fi, frac := range cfg.FailFracs {
		for ki, k := range cfg.Ks {
			cell := AvailabilityCell{
				K:        k,
				FailFrac: frac,
				Lookups:  cfg.NumLookups,
				Latency:  stats.NewCollector(cfg.NumLookups),
			}
			baselineSum := 0.0
			baselineObs := 0
			for _, u := range units {
				uc := u[fi*len(cfg.Ks)+ki]
				cell.Successes += uc.successes
				cell.Timeouts += uc.timeouts
				cell.Failovers += uc.failovers
				cell.Latency.Merge(uc.col)
				baselineSum += uc.baselineSum
				baselineObs += uc.baselineObs
			}
			if baselineObs > 0 {
				cell.BaselineMean = baselineSum / float64(baselineObs)
			}
			res.Cells = append(res.Cells, cell)
		}
	}
	return res, nil
}

// availSeed derives the per-(K, failFrac, source) loss-sampling seed,
// keeping every engine unit's PRNG stream independent of worker
// interleaving.
func availSeed(seed int64, k, fi, src int) int64 {
	return seed + int64(k)*7919 + int64(fi)*15485863 + int64(src)*104729 + 3
}
