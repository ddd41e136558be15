// Package engine is the concurrent evaluation engine behind the
// figure-scale experiment drivers: a worker pool that spreads
// grouped-by-source work units (one Dijkstra plus its lookups per source
// AS) across GOMAXPROCS workers and reassembles per-unit results in
// input order.
//
// Determinism is the design constraint. Parallel runs must be
// bit-identical to serial runs despite seeded PRNG workloads, so the
// engine imposes three rules on its callers:
//
//  1. Units are independent: a unit may read shared immutable state (the
//     topology, the trace, placements) and mutate only its own scratch
//     and result.
//  2. Randomness is seeded per unit, never drawn from a stream shared
//     across units — worker interleaving must not reorder PRNG draws.
//  3. Results are merged in unit-index order by the caller, so
//     float-summation order (and therefore every reported statistic) is
//     independent of the worker count.
//
// Under these rules Map(workers=1, ...) is the reference oracle and
// Map(workers=N, ...) reproduces it exactly.
package engine

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"dmap/internal/guid"
	"dmap/internal/metrics"
	"dmap/internal/trace"
)

// Engine metrics live on metrics.Default (the engine has no natural
// owner object): unit-latency histogram, busy/wall time counters and a
// derived occupancy gauge. Instrumentation never touches results —
// determinism is about outputs, and these are observations.
var (
	engOnce    sync.Once
	engMaps    *metrics.Counter
	engUnits   *metrics.Counter
	engBusyUs  *metrics.Counter
	engWallUs  *metrics.Counter
	engWorkers *metrics.Gauge
	engUnitUs  *metrics.Histogram
)

func engMetrics() {
	engOnce.Do(func() {
		reg := metrics.Default
		engMaps = reg.Counter("engine.maps")
		engUnits = reg.Counter("engine.units")
		engBusyUs = reg.Counter("engine.busy_us")
		engWallUs = reg.Counter("engine.wall_us")
		engWorkers = reg.Gauge("engine.workers")
		engUnitUs = reg.Histogram("engine.unit_us")
		// Occupancy = fraction of worker-time spent evaluating units,
		// cumulative over all Map calls: busy / (wall × workers).
		reg.GaugeFunc("engine.occupancy", func() float64 {
			wall := float64(engWallUs.Value()) * engWorkers.Value()
			if wall <= 0 {
				return 0
			}
			occ := float64(engBusyUs.Value()) / wall
			if occ > 1 {
				occ = 1
			}
			return occ
		})
	})
}

// engTracer, when set, samples Map calls into "engine.map" traces and
// feeds slow work units into the slow-op log. Swappable at runtime
// (dmapsim sets it from -trace-sample/-slow-op-ms before driving
// experiments); a nil tracer keeps the hot loop untouched.
var engTracer atomic.Pointer[trace.Tracer]

// SetTracer attaches t to all subsequent Map calls (nil detaches).
func SetTracer(t *trace.Tracer) { engTracer.Store(t) }

// ResolveWorkers maps a Workers configuration value to an actual worker
// count: n <= 0 selects GOMAXPROCS, anything else is used as given.
func ResolveWorkers(n int) int {
	if n <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return n
}

// Map evaluates units [0, n) and returns their results indexed by unit.
//
// workers <= 0 selects GOMAXPROCS; workers == 1 runs inline on the
// calling goroutine (the serial reference path, no goroutines spawned).
// Each worker owns one scratch value from newScratch, reused across all
// units that worker processes — put distance vectors and candidate
// buffers there to keep the hot loop allocation-free. eval must follow
// the package-level determinism rules.
//
// If any unit fails, Map stops handing out new units and returns the
// error of the lowest-numbered unit that failed before the engine
// stopped. Drivers validate configuration up front, so in practice a
// unit error is a programming bug, not a data-dependent path.
func Map[S, R any](workers, n int, newScratch func() S, eval func(unit int, scratch S) (R, error)) ([]R, error) {
	if n <= 0 {
		return nil, nil
	}
	workers = ResolveWorkers(workers)
	if workers > n {
		workers = n
	}
	results := make([]R, n)

	engMetrics()
	engMaps.Inc()
	engWorkers.Set(float64(workers))
	tr := engTracer.Load()
	sp := tr.StartOp("engine.map")
	if sp != nil {
		sp.Eventf("units=%d workers=%d", n, workers)
	}
	mapStart := time.Now()
	defer func() {
		engWallUs.Add(time.Since(mapStart).Microseconds())
		tr.FinishOp(sp, "engine.map", guid.GUID{}, mapStart, nil)
	}()
	// timedEval wraps eval with per-unit latency accounting; it is the
	// only difference between the instrumented and bare hot loops. Spans
	// are never opened per unit — worker interleaving would make the
	// recorded tree depend on the worker count, which the determinism
	// guarantee forbids — but units over the slow threshold land in the
	// slow-op log (an unordered set, so concurrency-safe to observe).
	timedEval := func(i int, scratch S) (R, error) {
		t0 := time.Now()
		r, err := eval(i, scratch)
		d := time.Since(t0)
		engUnits.Inc()
		engBusyUs.Add(d.Microseconds())
		engUnitUs.ObserveDuration(d)
		if tr.SlowEnabled() && d >= tr.SlowThreshold() {
			tr.ObserveSlow("engine.unit", fmt.Sprintf("unit=%d of %d", i, n), t0)
		}
		return r, err
	}

	if workers == 1 {
		scratch := newScratch()
		for i := 0; i < n; i++ {
			r, err := timedEval(i, scratch)
			if err != nil {
				return nil, err
			}
			results[i] = r
		}
		return results, nil
	}

	var (
		next    atomic.Int64 // next unit to hand out
		failed  atomic.Bool  // short-circuits remaining units
		errMu   sync.Mutex
		errUnit = n // lowest failing unit seen
		firstEr error
		wg      sync.WaitGroup
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			scratch := newScratch()
			for {
				i := int(next.Add(1)) - 1
				if i >= n || failed.Load() {
					return
				}
				r, err := timedEval(i, scratch)
				if err != nil {
					errMu.Lock()
					if i < errUnit {
						errUnit, firstEr = i, err
					}
					errMu.Unlock()
					failed.Store(true)
					return
				}
				results[i] = r
			}
		}()
	}
	wg.Wait()
	if firstEr != nil {
		return nil, firstEr
	}
	return results, nil
}

// MapNoScratch is Map for units that need no per-worker state.
func MapNoScratch[R any](workers, n int, eval func(unit int) (R, error)) ([]R, error) {
	return Map(workers, n, func() struct{} { return struct{}{} },
		func(unit int, _ struct{}) (R, error) { return eval(unit) })
}
