// Package obs is the fleet telemetry plane on top of internal/metrics:
// a collector that scrapes every node's /debug/metrics JSON and folds
// the per-node snapshots into exact cluster views (internal/metrics
// merging), a bridge that surfaces Go runtime health in the same
// registry as the serving metrics, and a black-box SLO prober that
// measures what a client would actually see — availability,
// staleness-after-write (the paper's §III-D version lag) and repair
// convergence — from outside the node processes.
//
// Everything here is deliberately scraper-shaped rather than
// push-shaped: nodes stay passive (they already serve /debug/metrics),
// and the fleet plane owns all cross-node state, so it can run beside
// the cluster, in a test, or inside the deterministic simulator without
// the nodes knowing.
package obs

import "fmt"

// SLOConfig names one service-level objective tracked over a sliding
// window of probe rounds. Windows are counted in ROUNDS, not wall time,
// so the same tracker is exact under the real prober (one round per
// interval tick) and under simulated virtual time.
type SLOConfig struct {
	// Name labels the objective in reports ("availability",
	// "staleness").
	Name string
	// Objective is the target good fraction in (0,1), e.g. 0.999. The
	// error budget is 1−Objective. Outside (0,1) it is 0.999.
	Objective float64
}

// The burn-rate windows and thresholds, the classic multiwindow values
// for a 99.9% objective: the SLO is breaching when the last sloShort
// rounds burn the budget at least sloFastBurn times too fast (a fresh
// outage shows up here first), or the last sloWindow rounds at least
// sloSlowBurn times.
const (
	sloWindow   = 60
	sloShort    = 5
	sloFastBurn = 14.4
	sloSlowBurn = 6
)

func (c SLOConfig) withDefaults() SLOConfig {
	if c.Objective <= 0 || c.Objective >= 1 {
		c.Objective = 0.999
	}
	return c
}

// SLOTracker accumulates good/bad probe outcomes into per-round ring
// buckets and answers burn-rate questions over the last sloWindow rounds.
// It is deterministic — rounds advance only via Advance(), never via
// the clock — and not safe for concurrent use (the prober owns it).
type SLOTracker struct {
	cfg  SLOConfig
	good []uint64
	bad  []uint64
	cur  int    // index of the current (open) round bucket
	n    uint64 // rounds ever opened (min 1 after construction)
}

// NewSLOTracker returns a tracker with one open round bucket.
func NewSLOTracker(cfg SLOConfig) *SLOTracker {
	cfg = cfg.withDefaults()
	return &SLOTracker{
		cfg:  cfg,
		good: make([]uint64, sloWindow),
		bad:  make([]uint64, sloWindow),
		n:    1,
	}
}

// Observe records one probe outcome into the current round.
func (t *SLOTracker) Observe(ok bool) {
	if ok {
		t.good[t.cur]++
	} else {
		t.bad[t.cur]++
	}
}

// Advance closes the current round and opens the next. Call once per
// probe round, after its observations.
func (t *SLOTracker) Advance() {
	t.cur = (t.cur + 1) % len(t.good)
	t.good[t.cur] = 0
	t.bad[t.cur] = 0
	t.n++
}

// Totals returns the good/bad counts over the last window rounds
// (including the current one), clamped to the rounds that exist.
func (t *SLOTracker) Totals(window int) (good, bad uint64) {
	if window <= 0 || uint64(window) > t.n {
		window = int(min64(uint64(len(t.good)), t.n))
	}
	if window > len(t.good) {
		window = len(t.good)
	}
	for i := 0; i < window; i++ {
		idx := (t.cur - i + len(t.good)) % len(t.good)
		good += t.good[idx]
		bad += t.bad[idx]
	}
	return good, bad
}

// BurnRate returns the error-budget burn rate over the last window
// rounds: (bad / total) / (1 − Objective). 1.0 means the budget is
// being consumed exactly at the rate that exhausts it over the SLO
// period; higher is faster. Returns 0 when the window saw no probes.
func (t *SLOTracker) BurnRate(window int) float64 {
	good, bad := t.Totals(window)
	total := good + bad
	if total == 0 {
		return 0
	}
	errRate := float64(bad) / float64(total)
	budget := 1 - t.cfg.Objective
	return errRate / budget
}

// Breaching reports whether either burn window is above its threshold.
func (t *SLOTracker) Breaching() bool {
	return t.BurnRate(sloShort) >= sloFastBurn ||
		t.BurnRate(sloWindow) >= sloSlowBurn
}

// Status summarizes the tracker for reports.
func (t *SLOTracker) Status() SLOStatus {
	good, bad := t.Totals(sloWindow)
	return SLOStatus{
		Name:      t.cfg.Name,
		Objective: t.cfg.Objective,
		Good:      good,
		Bad:       bad,
		FastBurn:  t.BurnRate(sloShort),
		SlowBurn:  t.BurnRate(sloWindow),
		Breaching: t.Breaching(),
	}
}

// SLOStatus is the JSON-facing summary of one objective.
type SLOStatus struct {
	Name      string  `json:"name"`
	Objective float64 `json:"objective"`
	Good      uint64  `json:"good"`
	Bad       uint64  `json:"bad"`
	FastBurn  float64 `json:"fast_burn"`
	SlowBurn  float64 `json:"slow_burn"`
	Breaching bool    `json:"breaching"`
}

func (s SLOStatus) String() string {
	state := "ok"
	if s.Breaching {
		state = "BREACH"
	}
	return fmt.Sprintf("%s %s good=%d bad=%d fast=%.2fx slow=%.2fx",
		s.Name, state, s.Good, s.Bad, s.FastBurn, s.SlowBurn)
}

func min64(a, b uint64) uint64 {
	if a < b {
		return a
	}
	return b
}
