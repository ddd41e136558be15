package main

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"dmap/internal/store"
)

// Open-loop constants (frozen). The pacer wakes on a fixed 1 ms grid:
// on this sandbox time.Sleep below 1 ms overshoots by about 1 ms, and a
// spinning pacer steals a core from the nodes, so it neither sleeps
// less than a slot nor spins. Each slot draws a Poisson count of
// arrivals, all due at the slot instant; latency runs from due.
const (
	slotLen       = time.Millisecond
	openInflight  = 64 // arrivals beyond this many in flight overflow
	olLimitP99    = 5 * time.Millisecond
	olMinComplete = 0.99
)

// rungs are the offered rates of the open-loop phase: about 20/40/60/80
// per cent of the closed-loop rate this benchmark read on seed 1 when it
// was written (see bench/README.md). They are constants so that a later
// change cannot move the rungs it is measured at.
var rungs = [4]float64{9000, 18000, 27000, 36000}

// slotGen generates the open-loop op stream: per slot a Poisson count
// and that many Zipf keys. It depends on its seed alone.
type slotGen struct {
	rng  *rand.Rand
	zipf *rand.Zipf
	expL float64 // e^-λ, λ = arrivals per slot
}

func newSlotGen(seed int64, rate float64, nKeys int) *slotGen {
	rng := rand.New(rand.NewSource(seed))
	return &slotGen{rng: rng, zipf: newZipf(rng, nKeys), expL: math.Exp(-rate * slotLen.Seconds())}
}

// next returns the keys of the arrivals of the next slot, appended to
// dst[:0]. The count is Poisson (Knuth's product method; λ ≤ ~50 here).
func (g *slotGen) next(dst []int) []int {
	dst = dst[:0]
	for p := g.rng.Float64(); p > g.expL; p *= g.rng.Float64() {
		dst = append(dst, int(g.zipf.Uint64()))
	}
	return dst
}

// arrival is one scheduled request.
type arrival struct {
	key int
	due time.Time
}

// rungResult is one open-loop rung.
type rungResult struct {
	phaseResult
	lateUs     []float64 // per slot: how late the pacer reached it
	endBacklog int64     // in flight when the pacer stopped
	ok         bool
}

// openRung offers `rate` arrivals per second for dur.
func (r *run) openRung(idx int, rate float64, dur time.Duration) (*rungResult, error) {
	name := fmt.Sprintf("open_r%d", idx+1)
	gen := newSlotGen(subSeed(r.cfg.seed, hashName(name)), rate, len(r.in.keys))
	res := &rungResult{phaseResult: phaseResult{Name: name, Inflight: openInflight, Windows: map[string][]window{}, dists: map[string]dist{}}}

	var (
		outstanding atomic.Int64
		wg          sync.WaitGroup
		mu          sync.Mutex
		samples     []sample
		failed      int64
	)
	// Capacity openInflight: the pacer admits an arrival only while fewer
	// than that many are outstanding, so a send never blocks.
	ch := make(chan arrival, openInflight)
	cpu0, err := r.cl.cpu()
	if err != nil {
		return nil, err
	}
	drv0 := selfCPU()
	phaseSpan := r.spans.begin(0, name)
	start := time.Now()
	for i := 0; i < openInflight; i++ {
		wg.Add(1)
		go func(w *worker) {
			defer wg.Done()
			var mine []sample
			var bad int64
			for a := range ch {
				ok := r.lookupOne(w, a.key)
				now := time.Now()
				outstanding.Add(-1)
				if !ok {
					bad++
					continue
				}
				mine = append(mine, sample{end: now.Sub(start), lat: now.Sub(a.due)})
				if r.spans != nil {
					w.spans = r.spans.record(w.spans, spansPerPhase/openInflight, phaseSpan, "client.LookupInto", a.due, now)
				}
			}
			mu.Lock()
			samples = append(samples, mine...)
			failed += bad
			mu.Unlock()
			if w.spans != nil {
				r.spans.merge(w.spans, len(mine))
			}
		}(&worker{c: r.clients[i%len(r.clients)], e: store.Entry{NAs: make([]store.NA, 0, store.MaxNAs)}})
	}

	// Slot s is due at start + (s+1)·slotLen. A ticker keeps the grid
	// without drift; a late wake-up serves every slot that has come due,
	// each stamped with its own instant, and the lateness is recorded.
	var keys []int
	slots := int(dur / slotLen)
	tick := time.NewTicker(slotLen)
	for s := 0; s < slots; {
		<-tick.C
		upto := min(int(time.Since(start)/slotLen), slots)
		for ; s < upto; s++ {
			due := start.Add(time.Duration(s+1) * slotLen)
			res.lateUs = append(res.lateUs, float64(time.Since(due))/float64(time.Microsecond))
			keys = gen.next(keys)
			for _, k := range keys {
				res.Attempted++
				if outstanding.Load() >= openInflight {
					res.Overflow++
					continue
				}
				outstanding.Add(1)
				ch <- arrival{key: k, due: due}
			}
		}
	}
	tick.Stop()
	res.endBacklog = outstanding.Load()
	close(ch)
	wg.Wait()
	elapsed := time.Since(start)
	r.spans.end(phaseSpan)
	drv1 := selfCPU()
	cpu1, err := r.cl.cpu()
	if err != nil {
		return nil, err
	}
	res.Seconds = elapsed.Seconds()
	res.NodeCPUs = (cpu1 - cpu0).Seconds()
	res.DrvCPUs = (drv1 - drv0).Seconds()
	res.Failed = failed
	res.Completed = int64(len(samples))
	if res.Completed+res.Failed+res.Overflow != res.Attempted {
		return nil, fmt.Errorf("%s: completed %d + failed %d + overflow %d != offered %d",
			name, res.Completed, res.Failed, res.Overflow, res.Attempted)
	}
	d := summarise(samples, elapsed)
	res.dists["read"] = d
	res.Windows["read"] = d.windows
	res.ok = d.p99ok && d.p99 <= float64(olLimitP99/time.Microsecond) &&
		float64(res.Completed) >= olMinComplete*float64(res.Attempted) &&
		res.endBacklog < openInflight
	r.phases = append(r.phases, &res.phaseResult)
	return res, nil
}

// openLoop runs the four rungs and derives the open-loop metrics.
func (r *run) openLoop(perRung time.Duration) error {
	var late []float64
	var overflow int64
	rateOK := 0.0
	for i, rate := range rungs {
		res, err := r.openRung(i, rate, perRung)
		if err != nil {
			return err
		}
		d := res.dists["read"]
		r.m.set(fmt.Sprintf("driver.ol_p99_us.r%d", i+1), d.p99)
		if i == 1 {
			r.m.set("ol_p50_us", d.p50)
			r.m.set("ol_p99_us", d.p99)
		}
		if res.ok && rate > rateOK {
			rateOK = rate
		}
		sort.Float64s(res.lateUs)
		l50, _ := percentile(res.lateUs, 50)
		l99, _ := percentile(res.lateUs, 99)
		r.notef("%s: %.0f/s offered %d completed %d failed %d overflow %d backlog %d; from due p50 %.0f p99 %.0f us; pacer late p50 %.0f p99 %.0f us; within limit %v",
			res.Name, rate, res.Attempted, res.Completed, res.Failed, res.Overflow, res.endBacklog, d.p50, d.p99, l50, l99, res.ok)
		late = append(late, res.lateUs...)
		overflow += res.Overflow
	}
	sort.Float64s(late)
	p50, _ := percentile(late, 50)
	p99, _ := percentile(late, 99)
	r.m.set("driver.late_p50_us", p50)
	r.m.set("driver.late_p99_us", p99)
	r.m.set("driver.overflow", float64(overflow))
	r.m.set("rate_ok_rps", rateOK)
	return nil
}
