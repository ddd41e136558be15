package experiments

import (
	"reflect"
	"testing"

	"dmap/internal/topology"
)

// The engine's contract is that worker count never changes results
// (internal/engine): work units are evaluated independently, PRNG
// streams are seeded per unit and the merge runs in input order. These
// tests hold every ported driver to that contract bit-for-bit —
// reflect.DeepEqual reaches the raw collector samples, not just
// summaries, so a float added in a different order fails the test.

// workerSweep runs f at several worker counts and requires each result
// to deep-equal the serial (Workers: 1) reference.
func workerSweep(t *testing.T, name string, f func(workers int) (any, error)) {
	t.Helper()
	ref, err := f(1)
	if err != nil {
		t.Fatalf("%s serial reference: %v", name, err)
	}
	for _, workers := range []int{0, 2, 3, 7} {
		got, err := f(workers)
		if err != nil {
			t.Fatalf("%s workers=%d: %v", name, workers, err)
		}
		if !reflect.DeepEqual(ref, got) {
			t.Errorf("%s: workers=%d diverged from the serial reference", name, workers)
		}
	}
}

func TestLatencyDeterministicAcrossWorkers(t *testing.T) {
	w := testWorld(t)
	// MissRate > 0 exercises the per-(K, source) seeded sampling, the
	// hardest part of the guarantee.
	workerSweep(t, "RunLatency", func(workers int) (any, error) {
		return RunLatency(w, LatencyConfig{
			Ks: []int{1, 3, 5}, NumGUIDs: 500, NumLookups: 5000,
			LocalReplica: true, MissRate: 0.05, Seed: 11, Workers: workers,
		})
	})
}

func TestUpdateDeterministicAcrossWorkers(t *testing.T) {
	w := testWorld(t)
	workerSweep(t, "RunUpdate", func(workers int) (any, error) {
		return RunUpdate(w, UpdateConfig{
			Ks: []int{1, 3, 5}, NumUpdates: 2000, Seed: 11, Workers: workers,
		})
	})
}

// TestCachingDeterministicAcrossWorkers runs on a 100-AS world, where
// the busiest source AS looks up about 1,400 distinct GUIDs of the
// 3,000 within one 600 s TTL: more than a cache holds (cacheCapacity,
// 1,024), so LRU eviction of live entries runs and moves the 600 s row.
func TestCachingDeterministicAcrossWorkers(t *testing.T) {
	w, err := NewWorld(TestScale(100, 7))
	if err != nil {
		t.Fatal(err)
	}
	workerSweep(t, "RunCaching", func(workers int) (any, error) {
		return RunCaching(w, CachingConfig{
			K: 3, NumGUIDs: 3000, NumLookups: 10000,
			DurationSec:      600,
			UpdateRatePerSec: 100.0 / 86400,
			TTLs:             []topology.Micros{0, 10_000_000, 600_000_000},
			Seed:             11,
			Workers:          workers,
		})
	})
}

func TestQueryLoadDeterministicAcrossWorkers(t *testing.T) {
	w := testWorld(t)
	workerSweep(t, "RunQueryLoad", func(workers int) (any, error) {
		return RunQueryLoad(w, QueryLoadConfig{
			Ks: []int{1, 5}, NumGUIDs: 500, NumLookups: 5000,
			Seed: 11, Workers: workers,
		})
	})
}

func TestBaselinesDeterministicAcrossWorkers(t *testing.T) {
	w := testWorld(t)
	workerSweep(t, "RunBaselines", func(workers int) (any, error) {
		return RunBaselines(w, BaselinesConfig{
			K: 3, NumGUIDs: 100, NumLookups: 1000,
			Seed: 11, Workers: workers,
		})
	})
}

func TestChurnSimDeterministicAcrossWorkers(t *testing.T) {
	// RunChurnSim applies withdrawals and announcements to the world's
	// live prefix table, so each run needs a fresh (small) world — the
	// shared fixture would drift between sweep iterations.
	workerSweep(t, "RunChurnSim", func(workers int) (any, error) {
		w, err := NewWorld(TestScale(500, 7))
		if err != nil {
			return nil, err
		}
		return RunChurnSim(w, ChurnSimConfig{
			K: 3, NumGUIDs: 300, NumLookups: 2000,
			DurationSec:    120,
			WithdrawPerSec: 0.1,
			AnnouncePerSec: 0.1,
			Seed:           11,
			Workers:        workers,
		})
	})
}

func TestAvailabilityDeterministicAcrossWorkers(t *testing.T) {
	w := testWorld(t)
	// Loss > 0 and several failure fractions make this the non-trivial
	// fault plan: every cell draws from its per-(K, failFrac, source)
	// seeded stream, the hardest part of the guarantee.
	workerSweep(t, "RunAvailability", func(workers int) (any, error) {
		return RunAvailability(w, availConfig(workers))
	})
}
