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
	"runtime"
	"sync"
	"sync/atomic"
)

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
	return mapUnits(workers, n, newScratch, eval, nil)
}

// mapUnits is Map. stopped, if not nil, is called by the worker whose
// unit failed once it has stopped the pool: a test's units can wait for
// it, so that none outruns the stop.
func mapUnits[S, R any](workers, n int, newScratch func() S, eval func(unit int, scratch S) (R, error), stopped func()) ([]R, error) {
	if n <= 0 {
		return nil, nil
	}
	workers = ResolveWorkers(workers)
	if workers > n {
		workers = n
	}
	results := make([]R, n)

	if workers == 1 {
		scratch := newScratch()
		for i := 0; i < n; i++ {
			r, err := eval(i, scratch)
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
				r, err := eval(i, scratch)
				if err != nil {
					errMu.Lock()
					if i < errUnit {
						errUnit, firstEr = i, err
					}
					errMu.Unlock()
					failed.Store(true)
					if stopped != nil {
						stopped()
					}
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
