package experiments

import (
	"math"
	"reflect"
	"testing"
)

func availConfig(workers int) AvailabilityConfig {
	return AvailabilityConfig{
		Ks:        []int{1, 3, 5},
		FailFracs: []float64{0, 0.05, 0.10, 0.20},
		NumGUIDs:  500, NumLookups: 5000,
		Loss: 0.02, Retries: 1,
		Seed: 11, Workers: workers,
	}
}

func TestAvailabilityValidation(t *testing.T) {
	w := testWorld(t)
	bad := []AvailabilityConfig{
		{FailFracs: []float64{0.1}},                            // no Ks
		{Ks: []int{3}},                                         // no FailFracs
		{Ks: []int{0}, FailFracs: []float64{0.1}},              // K <= 0
		{Ks: []int{3}, FailFracs: []float64{1.0}},              // frac >= 1
		{Ks: []int{3}, FailFracs: []float64{-0.1}},             // frac < 0
		{Ks: []int{3}, FailFracs: []float64{0.1}, Loss: 1.0},   // loss >= 1
		{Ks: []int{3}, FailFracs: []float64{0.1}, Retries: -1}, // negative retries
	}
	for i, cfg := range bad {
		cfg.NumGUIDs, cfg.NumLookups = 10, 10
		if _, err := RunAvailability(w, cfg); err == nil {
			t.Errorf("config %d should be rejected", i)
		}
	}
}

// With no failures and no loss every lookup must succeed at its
// best-replica RTT: zero added latency, zero timeouts.
func TestAvailabilityFaultFreeBaseline(t *testing.T) {
	w := testWorld(t)
	res, err := RunAvailability(w, AvailabilityConfig{
		Ks: []int{1, 5}, FailFracs: []float64{0},
		NumGUIDs: 300, NumLookups: 3000, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range res.Cells {
		if c.SuccessRate() != 1 {
			t.Errorf("K=%d fault-free success = %v, want 1", c.K, c.SuccessRate())
		}
		if c.Timeouts != 0 || c.Failovers != 0 {
			t.Errorf("K=%d fault-free timeouts=%d failovers=%d", c.K, c.Timeouts, c.Failovers)
		}
		if add := c.AddedLatencyMs(); math.Abs(add) > 1e-9 {
			t.Errorf("K=%d fault-free added latency = %v ms", c.K, add)
		}
	}
}

// The ISSUE acceptance criterion: with 10% of nodes failed, K=5
// replication keeps the lookup success rate above the K=1 baseline,
// and a fixed seed reproduces identical numbers across runs.
func TestAvailabilityReplicationBeatsBaseline(t *testing.T) {
	w := testWorld(t)
	res, err := RunAvailability(w, availConfig(0))
	if err != nil {
		t.Fatal(err)
	}
	k1, ok1 := res.Cell(1, 0.10)
	k5, ok5 := res.Cell(5, 0.10)
	if !ok1 || !ok5 {
		t.Fatalf("missing cells: k1=%v k5=%v", ok1, ok5)
	}
	if k5.SuccessRate() <= k1.SuccessRate() {
		t.Errorf("K=5 success %v not above K=1 baseline %v at 10%% failed",
			k5.SuccessRate(), k1.SuccessRate())
	}
	// ~10% of single replicas land on a failed AS, so K=1 must visibly
	// suffer while K=5 stays near-perfect.
	if k1.SuccessRate() > 0.97 {
		t.Errorf("K=1 success %v suspiciously high at 10%% failed", k1.SuccessRate())
	}
	if k5.SuccessRate() < 0.999 {
		t.Errorf("K=5 success %v below 99.9%% at 10%% failed", k5.SuccessRate())
	}

	// Failures cost latency: the failed cells pay timeouts over the
	// fault-free baseline.
	if k5.AddedLatencyMs() <= 0 {
		t.Errorf("K=5 added latency %v ms, want > 0 under failures", k5.AddedLatencyMs())
	}

	// Same seed, fresh run → identical numbers.
	res2, err := RunAvailability(w, availConfig(0))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res, res2) {
		t.Error("fixed seed did not reproduce the sweep")
	}
}

// More failures can only hurt: the failed sets nest by construction,
// so success rate is monotone non-increasing in the failure fraction.
func TestAvailabilityMonotoneInFailures(t *testing.T) {
	w := testWorld(t)
	res, err := RunAvailability(w, availConfig(0))
	if err != nil {
		t.Fatal(err)
	}
	cfg := availConfig(0)
	for _, k := range cfg.Ks {
		prev := math.Inf(1)
		for _, frac := range cfg.FailFracs {
			c, ok := res.Cell(k, frac)
			if !ok {
				t.Fatalf("missing cell (%d, %v)", k, frac)
			}
			if c.SuccessRate() > prev {
				t.Errorf("K=%d success rose from %v to %v as failFrac grew to %v",
					k, prev, c.SuccessRate(), frac)
			}
			prev = c.SuccessRate()
		}
	}
}

// Replicas only add chances: K = 3's replicas are a prefix of K = 5's and
// meet the same outcomes, loss included, so success cannot fall as K
// grows at any failure fraction.
func TestAvailabilityMonotoneInK(t *testing.T) {
	w := testWorld(t)
	cfg := availConfig(0)
	res, err := RunAvailability(w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, frac := range cfg.FailFracs {
		prev := 0.0
		for _, k := range cfg.Ks {
			c, ok := res.Cell(k, frac)
			if !ok {
				t.Fatalf("missing cell (%d, %v)", k, frac)
			}
			if c.SuccessRate() < prev {
				t.Errorf("failFrac %v: success fell from %v to %v as K grew to %d",
					frac, prev, c.SuccessRate(), k)
			}
			prev = c.SuccessRate()
		}
	}
}

func TestAvailabilityResultString(t *testing.T) {
	w := testWorld(t)
	res, err := RunAvailability(w, AvailabilityConfig{
		Ks: []int{1}, FailFracs: []float64{0.1},
		NumGUIDs: 50, NumLookups: 200, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if s := res.String(); len(s) == 0 {
		t.Error("empty table")
	}
}
