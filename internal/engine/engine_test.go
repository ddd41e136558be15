package engine

import (
	"fmt"
	"math/rand"
	"sync/atomic"
	"testing"
)

func TestMapOrdersResultsByUnit(t *testing.T) {
	for _, workers := range []int{1, 2, 4, 13} {
		got, err := Map(workers, 100, func() int { return 0 },
			func(unit int, _ int) (int, error) { return unit * unit, nil })
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != 100 {
			t.Fatalf("workers=%d: %d results", workers, len(got))
		}
		for i, v := range got {
			if v != i*i {
				t.Fatalf("workers=%d: result[%d] = %d, want %d", workers, i, v, i*i)
			}
		}
	}
}

func TestMapEmpty(t *testing.T) {
	got, err := Map(4, 0, func() int { return 0 },
		func(int, int) (int, error) { return 0, nil })
	if err != nil || got != nil {
		t.Fatalf("empty Map = (%v, %v)", got, err)
	}
}

func TestMapScratchPerWorker(t *testing.T) {
	// Each worker must get exactly one scratch, reused across its units.
	var created atomic.Int64
	type scratch struct{ uses int }
	workers := 3
	_, err := Map(workers, 64, func() *scratch {
		created.Add(1)
		return &scratch{}
	}, func(unit int, s *scratch) (int, error) {
		s.uses++
		return s.uses, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if n := created.Load(); n < 1 || n > int64(workers) {
		t.Errorf("created %d scratches, want 1..%d", n, workers)
	}
}

func TestMapErrorStopsEngine(t *testing.T) {
	// Unit 0 is handed out first and fails. Every other unit waits until
	// the pool has stopped, so a worker that finishes one takes no other,
	// whichever goroutine the scheduler runs when: at most one unit a
	// worker is evaluated.
	const workers = 4
	var evaluated atomic.Int64
	stopped := make(chan struct{})
	_, err := mapUnits(workers, 100_000, func() int { return 0 },
		func(unit int, _ int) (int, error) {
			evaluated.Add(1)
			if unit == 0 {
				return 0, fmt.Errorf("unit %d boom", unit)
			}
			<-stopped
			return unit, nil
		}, func() { close(stopped) })
	if err == nil || err.Error() != "unit 0 boom" {
		t.Fatalf("err = %v, want unit 0's", err)
	}
	if n := evaluated.Load(); n > workers {
		t.Errorf("%d units evaluated after unit 0 failed; the pool should stop at one a worker (%d)", n, workers)
	}
}

func TestMapSerialError(t *testing.T) {
	_, err := Map(1, 10, func() int { return 0 },
		func(unit int, _ int) (int, error) {
			if unit == 3 {
				return 0, fmt.Errorf("boom")
			}
			return unit, nil
		})
	if err == nil || err.Error() != "boom" {
		t.Fatalf("err = %v", err)
	}
}

// TestMapDeterministicWithPerUnitSeeds is the engine's contract in
// miniature: per-unit-seeded PRNG work gives bit-identical output at
// every worker count.
func TestMapDeterministicWithPerUnitSeeds(t *testing.T) {
	run := func(workers int) []float64 {
		res, err := Map(workers, 200, func() []float64 { return make([]float64, 0, 64) },
			func(unit int, _ []float64) (float64, error) {
				rng := rand.New(rand.NewSource(int64(unit)*7919 + 1))
				var sum float64
				for i := 0; i < 50; i++ {
					sum += rng.Float64()
				}
				return sum, nil
			})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	want := run(1)
	for _, workers := range []int{2, 4, 16} {
		got := run(workers)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("workers=%d: unit %d = %v, want %v (bit-identical)", workers, i, got[i], want[i])
			}
		}
	}
}

func TestMapNoScratch(t *testing.T) {
	got, err := MapNoScratch(4, 10, func(unit int) (int, error) { return unit + 1, nil })
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if v != i+1 {
			t.Fatalf("result[%d] = %d", i, v)
		}
	}
}

func TestResolveWorkers(t *testing.T) {
	if ResolveWorkers(0) < 1 {
		t.Error("ResolveWorkers(0) must be positive")
	}
	if ResolveWorkers(-3) < 1 {
		t.Error("ResolveWorkers(-3) must be positive")
	}
	if ResolveWorkers(5) != 5 {
		t.Error("explicit worker count must be respected")
	}
}
