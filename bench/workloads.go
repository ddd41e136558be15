package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"dmap/internal/client"
	"dmap/internal/guid"
	"dmap/internal/store"
)

// workload is one named traffic mix. Names are permanent; sizes and
// in-flight counts are frozen parameters, never calibrated at run time.
type workload struct {
	name string
	why  string
	spec nodeSpec
	// fullReplicas preloads every key onto every node (see preload).
	fullReplicas bool
	nKeys        int
	// body runs the timed phases and fills r.m.
	body func(r *run) error
}

// quickKeys is the population of a -quick run.
const quickKeys = 4096

func (w *workload) keys(quick bool) int {
	if quick {
		return quickKeys
	}
	return w.nKeys
}

var workloads = []*workload{
	{
		name:  wlLookup,
		why:   "the paper's dominant operation: Zipf single-op lookups; cost is syscalls, client mux, framing and server dispatch, store and codec do almost nothing",
		nKeys: 200000,
		body:  lookupSingle,
	},
	{
		name:  wlBatch,
		why:   "whole-host re-homing beside batched reads: batching amortises the syscall so core placement, wire batch codec and store shard locks do the work lookup_single bypasses",
		nKeys: 200000,
		body:  batchMobility,
	},
	{
		name:  wlDurable,
		why:   "the write path: K-replica update fan-out, WAL append, background snapshot stalls, then SIGKILL and recovery with every acked update checked",
		spec:  nodeSpec{durable: true},
		nKeys: 100000,
		body:  updateDurable,
	},
	{
		name:         wlHeal,
		why:          "the recovery and repair planes: kill a node, update while it is down, restart it and time gossip healing it under foreground reads",
		spec:         nodeSpec{durable: true, gossipInterval: 2 * time.Second},
		fullReplicas: true,
		nKeys:        8192,
		body:         restartHeal,
	},
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// Frozen in-flight counts.
const (
	lookupInflight  = 16
	batchInflight   = 8
	batchWriteEvery = 4  // every fourth call of a batch_mobility worker is a write
	hostSize        = 64 // GUIDs per "host" in batch_mobility
	durableInflight = 16
	healReaders     = 4
)

// Phase shares of --seconds. An untraced run spends all of it on the
// closed phase the end-to-end metrics come from. A traced run splits it
// between a serial phase, a plain and a span-recording copy of the
// closed phase (their difference is trace.overhead_pct) and the
// workload's extras.
const (
	tracedSerialShare = 0.10
	tracedClosedShare = 0.15 // each of plain and traced
)

// warmupLen is how long a workload runs its steady mix before anything
// is timed: connections dialled, the nodes' and the driver's heaps grown,
// the first garbage collections done.
const warmupLen = time.Second

// warmUp runs steady for warmupLen. Its ops count as attempted and are
// verified like any others; its timings feed no metric.
func (r *run) warmUp(steady func(name string, dur time.Duration) (*phaseResult, error)) error {
	d := warmupLen
	if r.cfg.quick {
		d /= 5
	}
	_, err := steady("warmup", d)
	return err
}

// headline fills the end-to-end metrics every workload reports from its
// headline closed phase.
func (r *run) headline(main *phaseResult, class string) error {
	d := main.dists[class]
	if !r.cfg.quick && !d.p99ok {
		return fmt.Errorf("%s: %d %s calls are too few for a p99 (need %d beyond it)", main.Name, d.n, class, minBeyond)
	}
	if main.Completed == 0 {
		return fmt.Errorf("%s: nothing completed", main.Name)
	}
	r.m.set("ops_s", main.opsPerSec())
	r.m.set("lat_p50_us", d.p50)
	r.m.set("lat_p99_us", d.p99)
	r.m.set("srv_cpu_us_per_op", main.nodeCPUPerOp())
	// The bounded three: the same figures at speed index 1. A slower
	// machine completes fewer ops and takes longer over each.
	r.m.set("ops_s_norm", main.opsPerSecNorm())
	r.m.set("lat_p50_us_norm", d.p50*main.Speed)
	r.m.set("srv_cpu_us_per_op_norm", main.nodeCPUPerOp()*main.Speed)
	r.m.set("driver.speed_index", main.Speed)
	r.m.set("driver.yardstick_ns", yardNominalNS/main.Speed)
	r.m.set("n."+main.Name+"."+class, float64(d.n))
	return nil
}

// tracedPair runs the workload's steady closed phase twice, each for
// share of the budget, without and with span recording, derives the
// metrics that come from the pair and returns the traced phase.
func (r *run) tracedPair(share float64, steady func(name string, dur time.Duration) (*phaseResult, error)) (traced *phaseResult, err error) {
	log := r.spans
	r.spans = nil
	plain, err := steady("closed_plain", r.frac(share))
	r.spans = log
	if err != nil {
		return nil, err
	}
	if traced, err = steady("closed_traced", r.frac(share)); err != nil {
		return nil, err
	}
	if traced.Completed > 0 && plain.Completed > 0 {
		// Normalised rates: the two phases run one after the other, and the
		// machine's speed may change between them.
		r.m.set("trace.overhead_pct", 100*(plain.opsPerSecNorm()-traced.opsPerSecNorm())/plain.opsPerSecNorm())
		r.m.set("driver.cpu_us_per_op", traced.DrvCPUs*1e6/float64(traced.Completed))
		r.m.set("driver.srv_cpu_us_per_op", traced.nodeCPUPerOp())
	}
	return traced, nil
}

// ---- lookup_single ----

func (r *run) zipfLookups(name string, dur time.Duration) (*phaseResult, error) {
	n := len(r.in.keys)
	return r.closedPhase(name, dur, lookupInflight, func(_ int, rng *rand.Rand) workerSpec {
		z := newZipf(rng, n)
		return workerSpec{"read", "client.LookupInto", func(w *worker) (int, int) {
			return 1, bad(r.lookupOne(w, int(z.Uint64())))
		}}
	})
}

func lookupSingle(r *run) error {
	if err := r.warmUp(r.zipfLookups); err != nil {
		return err
	}
	if !r.cfg.trace {
		main, err := r.zipfLookups("closed", r.frac(1))
		if err != nil {
			return err
		}
		return r.headline(main, "read")
	}
	if err := r.serialPhase(); err != nil {
		return err
	}
	traced, err := r.tracedPair(tracedClosedShare, r.zipfLookups)
	if err != nil {
		return err
	}
	if err := r.headline(traced, "read"); err != nil {
		return err
	}
	return r.openLoop(r.frac((1 - tracedSerialShare - 2*tracedClosedShare) / float64(len(rungs))))
}

// ---- batch_mobility ----

// batchMix is 8 workers that each make three reads of 64 uniform GUIDs
// and then one write re-homing a whole host (64 GUIDs, version+1), over
// and over, their cycles staggered: the mix of reads and writes is fixed
// at 3:1 whatever each of them costs on the day, so ops_s and the CPU per
// op mean the same thing on every run. Worker j owns the hosts h with
// h mod 8 = j, so versions are monotone.
func (r *run) batchMix(name string, dur time.Duration) (*phaseResult, error) {
	n := len(r.in.keys)
	hosts := n / hostSize
	return r.closedPhase(name, dur, batchInflight, func(id int, _ *rand.Rand) workerSpec {
		gs := make([]guid.GUID, hostSize)
		idx := make([]int, hostSize)
		floors := make([]uint64, hostSize)
		batch := make([]store.Entry, hostSize)
		calls := id
		return workerSpec{"read", "client.LookupBatch", func(w *worker) (int, int) {
			calls++
			if calls%batchWriteEvery == 0 {
				w.class, w.call = "write", "client.InsertBatch"
				h := w.rng.Intn(hosts/batchInflight)*batchInflight + id
				for j := range idx {
					idx[j] = h*hostSize + j
				}
				return r.writeBatch(w.c, batch, idx, -1)
			}
			w.class, w.call = "read", "client.LookupBatch"
			for j := range gs {
				idx[j] = w.rng.Intn(n)
				gs[j] = r.in.keys[idx[j]]
				floors[j] = r.acked[idx[j]].Load()
			}
			es, found, err := w.c.LookupBatch(gs)
			if err != nil {
				return hostSize, hostSize
			}
			wrong := 0
			for j := range gs {
				if !found[j] || !r.in.checkEntry(&es[j], idx[j], floors[j]) {
					wrong++
				}
			}
			return hostSize, wrong
		}}
	})
}

// writeBatch re-homes the keys listed in idx to their next version
// through c, using batch (of the same length) as scratch, and books the
// acks. down is the node that is known dead, or -1: its replica is not
// expected to ack.
func (r *run) writeBatch(c *client.Cluster, batch []store.Entry, idx []int, down int) (ops, badOps int) {
	for j, k := range idx {
		r.in.fillEntry(&batch[j], k, r.acked[k].Load()+1)
	}
	acks, err := c.InsertBatch(batch)
	if err != nil {
		return len(batch), len(batch)
	}
	for j, a := range acks {
		k := idx[j]
		want := r.in.replicaCount(k)
		if down >= 0 && r.in.hosts[k]&(1<<uint(down)) != 0 {
			want--
		}
		if a != want {
			badOps++
			continue
		}
		r.acked[k].Store(batch[j].Version)
	}
	return len(batch), badOps
}

func batchMobility(r *run) error {
	var main *phaseResult
	err := r.warmUp(r.batchMix)
	if err != nil {
		return err
	}
	if !r.cfg.trace {
		if main, err = r.batchMix("closed", r.frac(1)); err != nil {
			return err
		}
	} else {
		if err = r.serialPhase(); err != nil {
			return err
		}
		// No extras on this workload: the pair gets the whole budget.
		if main, err = r.tracedPair((1-tracedSerialShare)/2, r.batchMix); err != nil {
			return err
		}
	}
	if d := main.dists["write"]; d.n > 0 {
		r.m.set("upd_p99_us", d.p99)
		r.m.set("n."+main.Name+".write", float64(d.n))
	}
	return r.headline(main, "read")
}

// ---- update_durable ----

// durableUpdates is 16 in flight single-op Update calls over uniform
// keys. Worker j owns the keys k with k mod 16 = j.
func (r *run) durableUpdates(name string, dur time.Duration) (*phaseResult, error) {
	n := len(r.in.keys)
	return r.closedPhase(name, dur, durableInflight, func(id int, _ *rand.Rand) workerSpec {
		return workerSpec{"write", "client.Update", func(w *worker) (int, int) {
			k := w.rng.Intn(n/durableInflight)*durableInflight + id
			v := r.acked[k].Load() + 1
			r.in.fillEntry(&w.e, k, v)
			// Single-op Update acks once per placement (K), also when two
			// placements share a node.
			acks, err := w.c.Update(w.e)
			if err != nil || acks != replicas {
				return 1, 1
			}
			r.acked[k].Store(v)
			return 1, 0
		}}
	})
}

// walWatcher counts snapshot cycles from outside: a shard's WAL file
// shrinking means a background snapshot truncated it. The store exports
// no metric for this (ROADMAP item 2), the data dir is the evidence.
type walWatcher struct {
	stop   chan struct{}
	done   chan struct{}
	cycles []int // per node
}

func watchWALs(c *cluster) *walWatcher {
	w := &walWatcher{stop: make(chan struct{}), done: make(chan struct{}), cycles: make([]int, len(c.nodes))}
	go func() {
		defer close(w.done)
		last := map[string]int64{}
		tick := time.NewTicker(50 * time.Millisecond)
		defer tick.Stop()
		for {
			for i, n := range c.nodes {
				files, _ := filepath.Glob(filepath.Join(n.dataDir, "*.wal"))
				for _, f := range files {
					st, err := os.Stat(f)
					if err != nil {
						continue
					}
					if st.Size() < last[f] {
						w.cycles[i]++
					}
					last[f] = st.Size()
				}
			}
			select {
			case <-w.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return w
}

func (w *walWatcher) finish() []int {
	close(w.stop)
	<-w.done
	return w.cycles
}

func updateDurable(r *run) error {
	if err := r.warmUp(r.durableUpdates); err != nil {
		return err
	}
	watch := watchWALs(r.cl)
	var main *phaseResult
	var err error
	if !r.cfg.trace {
		main, err = r.durableUpdates("closed", r.frac(1))
	} else if err = r.serialPhase(); err == nil {
		main, err = r.tracedPair((1-tracedSerialShare)/2, r.durableUpdates)
	}
	cycles := watch.finish()
	if err != nil {
		return err
	}
	total := 0
	for i, c := range cycles {
		total += c
		if c < 3 && !r.cfg.quick && !r.cfg.trace {
			return fmt.Errorf("node %d completed %d snapshot cycles in the update phase, want >= 3", i, c)
		}
	}
	r.m.set("store.snapshot_cycles", float64(total))
	if err := r.headline(main, "write"); err != nil {
		return err
	}
	// Each completed update was acked by every replica of its key.
	var written, replicaWrites int64
	for i := range main.io0 {
		written += main.io1[i].io.writeBytes - main.io0[i].io.writeBytes
	}
	for k := range r.acked {
		replicaWrites += int64(r.acked[k].Load()-1) * int64(r.in.replicaCount(k))
	}
	if replicaWrites > 0 {
		r.m.set("disk_bytes_per_op", float64(written)/float64(replicaWrites))
	}
	return r.crashCheck()
}

// crashCheck SIGKILLs every node, restarts them and verifies that each
// replica serves every key at no less than its acked version. With
// -fsync os a process kill leaves the page cache intact, so this is the
// durability claim that mode makes. A violation fails the run.
func (r *run) crashCheck() error {
	if err := r.scrapeClose(); err != nil {
		return err
	}
	for i := range r.cl.nodes {
		r.cl.kill(i)
	}
	var toServe []float64
	for i := range r.cl.nodes {
		ms, err := r.restartAndServe(i)
		if err != nil {
			return err
		}
		toServe = append(toServe, ms)
	}
	r.m.set("restart_to_serve_ms", median(toServe))
	all := make([]int, len(r.in.keys))
	for k := range all {
		all[k] = k
	}
	for i := range r.cl.nodes {
		wrong, err := r.verifyNode(i, all)
		if err != nil {
			return err
		}
		if wrong > 0 {
			return fmt.Errorf("after SIGKILL, node %d serves %d keys below their acked version", i, wrong)
		}
	}
	return nil
}

// restartAndServe restarts node i and returns the milliseconds from
// exec to the first verified lookup it answers.
func (r *run) restartAndServe(i int) (float64, error) {
	if err := r.cl.restart(i); err != nil {
		return 0, err
	}
	only, err := r.newClients(r.cl.addrsOnly(i), 1)
	if err != nil {
		return 0, err
	}
	defer closeClients(only)
	k := 0
	for r.in.hosts[k]&(1<<uint(i)) == 0 {
		k++
	}
	var e store.Entry
	if err := only[0].LookupInto(r.in.keys[k], &e); err != nil {
		return 0, fmt.Errorf("node %d after restart: %w", i, err)
	}
	ms := float64(time.Since(r.cl.nodes[i].execAt)) / float64(time.Millisecond)
	// The restarted node may be behind (restart_heal); version 1 is the
	// least any replica has held since preload.
	if !r.in.checkEntry(&e, k, 1) {
		return 0, fmt.Errorf("node %d after restart: wrong reply for key %d", i, k)
	}
	return ms, nil
}

// verifyNode asks node i alone for those of keys whose placement
// includes it and counts the ones it serves below their acked version,
// or wrongly.
func (r *run) verifyNode(i int, keys []int) (wrong int, err error) {
	only, err := r.newClients(r.cl.addrsOnly(i), 1)
	if err != nil {
		return 0, err
	}
	defer closeClients(only)
	hosted := make([]int, 0, len(keys))
	for _, k := range keys {
		if r.in.hosts[k]&(1<<uint(i)) != 0 {
			hosted = append(hosted, k)
		}
	}
	return r.countStale(only[0], hosted)
}

// pollFrame is the number of GUIDs one verification LookupBatch carries.
const pollFrame = 512

// countStale looks keys up through c in pollFrame-sized batches and
// counts the replies that are missing, wrong or below the acked version.
func (r *run) countStale(c *client.Cluster, keys []int) (stale int, err error) {
	gs := make([]guid.GUID, 0, pollFrame)
	for at := 0; at < len(keys); at += pollFrame {
		part := keys[at:min(at+pollFrame, len(keys))]
		gs = gs[:0]
		for _, k := range part {
			gs = append(gs, r.in.keys[k])
		}
		es, found, err := c.LookupBatch(gs)
		if err != nil {
			return 0, err
		}
		for j, k := range part {
			if !found[j] || !r.in.checkEntry(&es[j], k, r.acked[k].Load()) {
				stale++
			}
		}
	}
	return stale, nil
}
