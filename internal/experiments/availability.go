package experiments

import (
	"cmp"
	"fmt"
	"strings"

	"dmap/internal/nodesim"
	"dmap/internal/stats"
	"dmap/internal/topology"
)

// AvailabilityConfig drives the failure-fraction × K availability sweep,
// §III-D3's failover story on the shipped client. A failed AS hosts a
// mapping node that never answers, so each attempt against it costs the
// querier a full timeout before the walk moves to the next hashed
// replica; optional message loss makes even live replicas cost
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
// failures on w: one sweep cell per (fraction, K), plus the same walk
// with no faults per K as the baseline.
func RunAvailability(w *World, cfg AvailabilityConfig) (*AvailabilityResult, error) {
	if len(cfg.FailFracs) == 0 {
		return nil, fmt.Errorf("experiments: availability sweep needs FailFracs")
	}
	if cfg.Loss < 0 || cfg.Loss >= 1 || cfg.Retries < 0 {
		return nil, fmt.Errorf("experiments: loss %g out of [0,1) or retries %d negative", cfg.Loss, cfg.Retries)
	}
	// One failed set per fraction, shared across Ks. The sets nest and the
	// walk's outcomes do not depend on K, so success is monotone in both
	// the fraction and K by construction.
	cells, err := w.cells(cfg.Ks, false, false, &nodesim.Faults{}) // the baseline: the same walk with no faults
	if err != nil {
		return nil, err
	}
	for _, frac := range cfg.FailFracs {
		if frac < 0 || frac >= 1 {
			return nil, fmt.Errorf("experiments: failure fraction %g out of [0,1)", frac)
		}
		cs, err := w.cells(cfg.Ks, false, false, &nodesim.Faults{Seed: cfg.Seed, Loss: cfg.Loss, Failed: w.failedSet(frac, cfg.Seed),
			Timeout: cmp.Or(max(cfg.Timeout, 0), nodesim.DefaultTimeout), Retries: cfg.Retries})
		if err != nil {
			return nil, err
		}
		cells = append(cells, cs...)
	}
	trace, err := w.lookupTrace(cfg.NumGUIDs, cfg.NumLookups, cfg.Seed)
	if err != nil {
		return nil, err
	}
	sums, err := w.sweep(trace, cells, false, cfg.Workers, nil)
	if err != nil {
		return nil, err
	}
	res := &AvailabilityResult{}
	for fi, frac := range cfg.FailFracs {
		for ki, k := range cfg.Ks {
			s := sums[(fi+1)*len(cfg.Ks)+ki]
			res.Cells = append(res.Cells, AvailabilityCell{
				K: k, FailFrac: frac, Lookups: cfg.NumLookups, Successes: s.col.N(),
				Timeouts: s.timeouts, Failovers: s.failovers, Latency: s.col,
				BaselineMean: sums[ki].col.Mean(),
			})
		}
	}
	return res, nil
}
