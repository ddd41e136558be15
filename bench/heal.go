package main

import (
	"fmt"
	"math/rand"
	"sync/atomic"
	"time"

	"dmap/internal/store"
)

// Frozen restart_heal shape.
const (
	healCycles = 3
	// healUpdates keys are re-homed while the victim is down. With
	// fullReplicas each of them is then stale on the victim.
	healUpdates = 2048
	// healWriteChunk entries ride in one InsertBatch call of the update
	// burst.
	healWriteChunk = 2048
	healPollGap    = 20 * time.Millisecond
	healDeadline   = 60 * time.Second
	// healMinIdle is the least time a cycle idles in sync before the next
	// kill, however long convergence took.
	healMinIdle = 500 * time.Millisecond
	// healIdleProbe is how long a traced run watches the in-sync cluster
	// with no foreground traffic: six gossip ticks on each node.
	healIdleProbe = 3 * time.Second
)

func (r *run) healReads(name string, dur time.Duration) (*livePhase, error) {
	n := len(r.in.keys)
	return r.startPhase(name, dur, healReaders, func(int, *rand.Rand) workerSpec {
		return workerSpec{"read", "client.LookupInto", func(w *worker) (int, int) {
			return 1, bad(r.lookupOne(w, w.rng.Intn(n)))
		}}
	})
}

// killWindow is the wall time between a SIGKILL and the victim serving
// again.
type killWindow struct{ from, to time.Time }

func restartHeal(r *run) error {
	r.synced = make([]atomic.Uint64, len(r.in.keys))
	for i := range r.synced {
		r.synced[i].Store(1)
	}
	budget := r.frac(1)
	steady := func(name string, dur time.Duration) (*phaseResult, error) {
		ph, err := r.healReads(name, dur)
		if err != nil {
			return nil, err
		}
		return ph.finish()
	}
	if err := r.warmUp(steady); err != nil {
		return err
	}
	if r.cfg.trace {
		if err := r.serialPhase(); err != nil {
			return err
		}
		if _, err := r.tracedPair(tracedClosedShare, steady); err != nil {
			return err
		}
		budget = r.frac(1 - tracedSerialShare - 2*tracedClosedShare)
	}

	fg, err := r.healReads("heal", 0)
	if err != nil {
		return err
	}
	var (
		toServe, converge []float64
		windows           []killWindow
		updated           = map[int]bool{}
		cycleErr          error
	)
	rng := rand.New(rand.NewSource(subSeed(r.cfg.seed, hashName("heal-cycles"))))
	nUpd := healUpdates
	if r.cfg.quick {
		nUpd = 512
	}
	box := budget / healCycles
	for c := 0; c < healCycles && cycleErr == nil; c++ {
		cycleEnd := time.Now().Add(box)
		victim := c % numNodes
		keys := rng.Perm(len(r.in.keys))[:nUpd]

		if err := r.scrapeFold(victim); err != nil {
			cycleErr = err
			break
		}
		w := killWindow{from: time.Now()}
		r.cl.kill(victim)
		batch := make([]store.Entry, 0, healWriteChunk)
		for at := 0; at < len(keys); at += healWriteChunk {
			part := keys[at:min(at+healWriteChunk, len(keys))]
			_, badOps := r.writeBatch(r.clients[0], batch[:len(part)], part, victim)
			r.extraAttempted += int64(len(part))
			r.extraFailed += int64(badOps)
		}
		ms, err := r.restartAndServe(victim)
		if err != nil {
			cycleErr = err
			break
		}
		w.to = time.Now()
		windows = append(windows, w)
		toServe = append(toServe, ms)

		if err := r.awaitFresh(victim, keys, rng); err != nil {
			cycleErr = err
			break
		}
		converge = append(converge, float64(time.Since(w.to))/float64(time.Millisecond))
		for _, k := range keys {
			r.synced[k].Store(r.acked[k].Load())
			updated[k] = true
		}

		// Idle in sync until the cycle's box ends, so that the readers
		// also see the cluster at rest and the run length is fixed.
		idle := time.Until(cycleEnd)
		if idle < healMinIdle {
			idle = healMinIdle
		}
		time.Sleep(idle)
	}
	fg.stop()
	main, err := fg.finish()
	if cycleErr != nil {
		return cycleErr
	}
	if err != nil {
		return err
	}

	// Quiescence ⇒ all K replicas at max version: every placement node
	// of every updated key, asked alone.
	all := make([]int, 0, len(updated))
	for k := range updated {
		all = append(all, k)
	}
	for i := range r.cl.nodes {
		wrong, err := r.verifyNode(i, all)
		if err != nil {
			return err
		}
		if wrong > 0 {
			return fmt.Errorf("after the last heal, node %d holds %d updated keys below max version", i, wrong)
		}
	}

	inWindow := int64(0)
	for _, t := range main.failedAt {
		for _, w := range windows {
			if !t.Before(w.from) && !t.After(w.to.Add(time.Second)) {
				inWindow++
				break
			}
		}
	}
	if outside := int64(len(main.failedAt)) - inWindow; outside > 0 {
		return fmt.Errorf("%d foreground calls failed outside any kill window", outside)
	}
	r.m.set("heal.kill_window_failures", float64(inWindow))
	r.m.set("heal.stale_reads", float64(r.stale.Load()))
	r.m.set("restart_to_serve_ms", median(toServe))
	r.m.set("heal_converge_ms", median(converge))
	if r.cfg.trace {
		// With the readers stopped the nodes do nothing but gossip: what a
		// sweep costs when it finds nothing to repair.
		cpu, wchar, sweeps, err := r.idleCost(healIdleProbe)
		if err != nil {
			return err
		}
		if sweeps > 0 {
			r.m.set("server.repair.idle_cpu_ms_per_sweep", float64(cpu)/float64(time.Millisecond)/float64(sweeps))
			r.m.set("server.repair.idle_bytes_per_sweep", float64(wchar)/float64(sweeps))
		}
	}
	return r.headline(main, "read")
}

// awaitFresh polls node victim alone until it serves every key of keys
// at its acked version: one pollFrame-GUID sample every healPollGap,
// and a full pass once a sample comes back clean.
func (r *run) awaitFresh(victim int, keys []int, rng *rand.Rand) error {
	only, err := r.newClients(r.cl.addrsOnly(victim), 1)
	if err != nil {
		return err
	}
	defer closeClients(only)
	deadline := time.Now().Add(healDeadline)
	probe := make([]int, min(pollFrame, len(keys)))
	for time.Now().Before(deadline) {
		for j := range probe {
			probe[j] = keys[rng.Intn(len(keys))]
		}
		stale, err := r.countStale(only[0], probe)
		if err != nil {
			return err
		}
		if stale == 0 {
			if stale, err = r.countStale(only[0], keys); err != nil {
				return err
			}
			if stale == 0 {
				return nil
			}
		}
		time.Sleep(healPollGap)
	}
	return fmt.Errorf("node %d still stale %v after restart", victim, healDeadline)
}

// idleCost sleeps for d and returns the node CPU, node wchar and sweeps
// of that time. It scrapes, so it is for traced runs.
func (r *run) idleCost(d time.Duration) (cpu time.Duration, wchar, sweeps int64, err error) {
	sw0, err := r.sweeps()
	if err != nil {
		return 0, 0, 0, err
	}
	s0, err := r.cl.sample()
	if err != nil {
		return 0, 0, 0, err
	}
	time.Sleep(d)
	s1, err := r.cl.sample()
	if err != nil {
		return 0, 0, 0, err
	}
	sw1, err := r.sweeps()
	if err != nil {
		return 0, 0, 0, err
	}
	sweeps = sw1 - sw0
	for i := range s0 {
		cpu += s1[i].cpu - s0[i].cpu
		wchar += s1[i].io.wchar - s0[i].io.wchar
	}
	return cpu, wchar, sweeps, nil
}

func (r *run) sweeps() (int64, error) {
	snap, err := r.cl.scrapeAll()
	if err != nil {
		return 0, err
	}
	return snap.Counters["server.repair.sweeps"], nil
}
