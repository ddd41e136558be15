package main

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"dmap/internal/client"
	"dmap/internal/store"
)

// runCfg is one invocation of one workload.
type runCfg struct {
	workload string
	cpu      int // the one CPU the driver and the nodes run on; -1: not pinned (tests)
	seed     int64
	seconds  float64
	trace    bool
	quick    bool   // test-sized populations; numbers mean nothing
	nodeBin  string // built dmapnode
	outDir   string // bench/out
}

// run is the state of one workload run: the inputs, the cluster under
// test, the driver's clients and the per-key version book every reply
// is checked against.
type run struct {
	cfg runCfg
	wl  *workload
	dir string // bench/out/<run id>
	id  string

	in      *inputs
	cl      *cluster
	clients []*client.Cluster // one per driver thread

	// acked[i] is the highest version of key i the cluster has
	// acknowledged on every live replica. Each key has one writer.
	acked []atomic.Uint64
	// synced, when non-nil (restart_heal), is the version known to be on
	// every replica; a read between synced and acked is stale, not wrong.
	synced []atomic.Uint64
	stale  atomic.Int64

	// extraAttempted and extraFailed count ops made outside any phase
	// (the update bursts of restart_heal).
	extraAttempted, extraFailed int64

	yard   *yardstick  // timed between the work windows of every closed phase
	spans  *spanLog    // nil when untraced
	book   *scrapeBook // nil when untraced
	phases []*phaseResult
	m      metricSet
	setups []float64 // seconds, one per set-up repetition
	notes  []string
}

func (r *run) notef(format string, a ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, a...))
}

// driverThreads is GOMAXPROCS for the driver and the number of client
// clusters, hence of TCP connections per node. The driver and the nodes
// share one CPU (pin.go), so it is one.
const driverThreads = 1

// clientConfig is the frozen client configuration. The retry policy and
// timeouts are the library defaults; only the jitter seed is pinned.
func clientConfig(seed int64) client.Config {
	return client.Config{Retry: client.RetryPolicy{JitterSeed: seed}}
}

func (r *run) newClients(addrs map[int]string, n int) ([]*client.Cluster, error) {
	cs := make([]*client.Cluster, n)
	for i := range cs {
		c, err := client.NewWithConfig(r.in.resolver, addrs, clientConfig(r.cfg.seed))
		if err != nil {
			return nil, err
		}
		cs[i] = c
	}
	return cs, nil
}

func closeClients(cs []*client.Cluster) {
	for _, c := range cs {
		c.Close()
	}
}

// spec is the workload's node flags; a traced run adds -debug-addr.
func (r *run) spec() nodeSpec {
	spec := r.wl.spec
	spec.debug = r.cfg.trace
	return spec
}

// setup brings up one cluster and loads it: spawn + ready + DFZ + key
// generation + preload. It returns the elapsed seconds and the resident
// bytes the preload added per entry held.
func (r *run) setup(rep int) (elapsed float64, bytesPerEntry float64, err error) {
	t0 := time.Now()
	r.cl, err = startCluster(r.cfg.nodeBin, filepath.Join(r.dir, fmt.Sprintf("c%d", rep)), r.spec())
	if err != nil {
		return 0, 0, err
	}
	rssEmpty, err := r.cl.rss()
	if err != nil {
		return 0, 0, err
	}
	if r.in, err = genInputs(r.cfg.seed, r.wl.keys(r.cfg.quick)); err != nil {
		return 0, 0, err
	}
	if r.clients, err = r.newClients(r.cl.addrs(), driverThreads); err != nil {
		return 0, 0, err
	}
	held, err := r.preload()
	if err != nil {
		return 0, 0, err
	}
	rssFull, err := r.cl.rss()
	if err != nil {
		return 0, 0, err
	}
	r.acked = make([]atomic.Uint64, len(r.in.keys))
	for i := range r.acked {
		r.acked[i].Store(1)
	}
	return time.Since(t0).Seconds(), float64(rssFull-rssEmpty) / float64(held), nil
}

// teardown stops the cluster and clients of the current set-up.
func (r *run) teardown() {
	closeClients(r.clients)
	r.clients = nil
	if r.cl != nil {
		r.cl.close()
		r.cl = nil
	}
}

// preloadChunk is the number of entries one InsertBatch call carries
// during preload; the client splits it into ≤ 512-entry frames per node.
const preloadChunk = 4096

// preload stores every key at version 1 and returns the number of
// replica entries the nodes now hold. With wl.fullReplicas every node
// gets every key (restart_heal: gossip treats its peers as replicas of
// one set, so the nodes start as exactly that); otherwise each key goes
// to its placement nodes.
func (r *run) preload() (held int64, err error) {
	n := len(r.in.keys)
	// A nil target is the placement-following driver clients; a non-nil
	// one asks a single node, which then sees one frame per placement AS
	// of a key, acks each, and stores the key once.
	targets := []*client.Cluster{nil}
	if r.wl.fullReplicas {
		targets = nil
		for i := 0; i < numNodes; i++ {
			cs, err := r.newClients(r.cl.addrsOnly(i), 1)
			if err != nil {
				return 0, err
			}
			defer closeClients(cs)
			targets = append(targets, cs[0])
		}
	}
	var (
		wg      sync.WaitGroup
		mu      sync.Mutex
		failure error
	)
	threads := len(r.clients)
	for _, target := range targets {
		for t := 0; t < threads; t++ {
			c, perAck := target, int64(0) // a single node holds each key once
			if target == nil {
				c, perAck = r.clients[t], 1
			}
			lo, hi := n*t/threads, n*(t+1)/threads
			wg.Add(1)
			go func(c *client.Cluster, perAck int64, lo, hi int) {
				defer wg.Done()
				batch := make([]store.Entry, 0, preloadChunk)
				var got int64
				for at := lo; at < hi; at += preloadChunk {
					end := min(at+preloadChunk, hi)
					batch = batch[:end-at]
					for j := range batch {
						r.in.fillEntry(&batch[j], at+j, 1)
					}
					acks, err := c.InsertBatch(batch)
					if err != nil {
						mu.Lock()
						failure = fmt.Errorf("preload: %w", err)
						mu.Unlock()
						return
					}
					for j, a := range acks {
						if want := r.in.replicaCount(at + j); a != want {
							mu.Lock()
							failure = fmt.Errorf("preload: key %d got %d acks, want %d", at+j, a, want)
							mu.Unlock()
							return
						}
						got += int64(a) * perAck
					}
					if perAck == 0 {
						got += int64(len(acks))
					}
				}
				atomic.AddInt64(&held, got)
			}(c, perAck, lo, hi)
		}
	}
	wg.Wait()
	return held, failure
}

// worker is one in-flight request slot of a closed loop: a goroutine
// with its own PRNG, result buffer and sample log.
type worker struct {
	id int
	// class is the latency population ("read" or "write") the call just
	// made feeds, call the public function it went through (the name of
	// its span). An op that mixes kinds sets both before it returns.
	class string
	call  string
	rng   *rand.Rand
	c     *client.Cluster
	e     store.Entry

	attempted, failed int64 // in ops (GUIDs)
	samples           []sample
	failedAt          []time.Time // when each call with a failed op returned
	spans             []span
}

// opFunc performs one call and returns how many ops it attempted and
// how many of those failed or came back wrong.
type opFunc func(w *worker) (ops, bad int)

// workerSpec is what a phase asks of worker id.
type workerSpec struct {
	class string
	call  string
	op    opFunc
}

// phaseResult is what one timed phase measured.
type phaseResult struct {
	Name string `json:"name"`
	// Seconds is the time the workers ran, Wall that plus the pauses in
	// which the yardstick was timed.
	Seconds   float64             `json:"seconds"`
	Wall      float64             `json:"wall_s"`
	Inflight  int                 `json:"inflight"`
	Attempted int64               `json:"attempted"`
	Completed int64               `json:"completed"`
	Failed    int64               `json:"failed"`
	Overflow  int64               `json:"overflow"`
	NodeCPUs  float64             `json:"node_cpu_s"`
	DrvCPUs   float64             `json:"driver_cpu_s"`
	Windows   map[string][]window `json:"windows"`
	// Speed is the phase's speed index (yardstick.go), YardNS the
	// yardstick readings it is the mean of.
	Speed  float64   `json:"speed_index"`
	YardNS []float64 `json:"yardstick_ns"`

	dists map[string]dist
	// io0 and io1 are the nodes' /proc io readings at the boundaries.
	io0, io1 []procSample
	failedAt []time.Time
}

// opsPerSec is the rate as measured; the *Norm methods scale a measured
// figure to the speed index 1.
func (p *phaseResult) opsPerSec() float64     { return float64(p.Completed) / p.Seconds }
func (p *phaseResult) opsPerSecNorm() float64 { return p.opsPerSec() / p.Speed }
func (p *phaseResult) nodeCPUPerOp() float64  { return p.NodeCPUs * 1e6 / float64(p.Completed) }

// livePhase is a closed phase in progress.
type livePhase struct {
	r        *run
	res      *phaseResult
	workers  []*worker
	wg       sync.WaitGroup
	start    time.Time
	stopCh   chan struct{}
	stopOnce sync.Once
	span     uint32
	cpu0     time.Duration
	drv0     time.Duration
	gate     *gate
}

// startPhase starts inflight workers running back to back: each sends
// its next call only when the previous one has returned. The workers
// end after dur, or, when dur is 0, when stop is called. mk says what
// worker id, whose PRNG is rng, does. Every call is made holding the
// phase's gate shared, so that the yardstick is timed with none in
// flight (yardstick.go). Node and driver CPU are read at the phase
// boundaries.
func (r *run) startPhase(name string, dur time.Duration, inflight int, mk func(id int, rng *rand.Rand) workerSpec) (*livePhase, error) {
	ph := &livePhase{r: r, stopCh: make(chan struct{}), workers: make([]*worker, inflight)}
	ops := make([]opFunc, inflight)
	for i := range ph.workers {
		rng := rand.New(rand.NewSource(subSeed(r.cfg.seed, hashName(name), uint64(i))))
		ws := mk(i, rng)
		ph.workers[i] = &worker{
			id: i, class: ws.class, call: ws.call, rng: rng,
			c: r.clients[i%len(r.clients)],
			e: store.Entry{NAs: make([]store.NA, 0, store.MaxNAs)},
		}
		ops[i] = ws.op
	}
	io0, err := r.cl.sample()
	if err != nil {
		return nil, err
	}
	if ph.cpu0, err = r.cl.cpu(); err != nil {
		return nil, err
	}
	ph.res = &phaseResult{Name: name, Inflight: inflight, io0: io0, Windows: map[string][]window{}, dists: map[string]dist{}}
	ph.drv0 = selfCPU()
	ph.span = r.spans.begin(0, name)
	spans := r.spans
	ph.gate = startGate(r.yard)
	g := ph.gate
	ph.start = time.Now()
	deadline := ph.start.Add(dur)
	if dur == 0 {
		deadline = ph.start.Add(24 * time.Hour)
	}
	for i, w := range ph.workers {
		ph.wg.Add(1)
		go func(w *worker, op opFunc) {
			defer ph.wg.Done()
			for {
				t0 := time.Now()
				if !t0.Before(deadline) {
					return
				}
				select {
				case <-ph.stopCh:
					return
				default:
				}
				g.mu.RLock()
				t0 = time.Now()
				n, bad := op(w)
				t1 := time.Now()
				g.mu.RUnlock()
				w.attempted += int64(n)
				w.failed += int64(bad)
				w.samples = append(w.samples, sample{end: t1.Sub(ph.start), lat: t1.Sub(t0), write: w.class == "write"})
				if bad > 0 {
					w.failedAt = append(w.failedAt, t1)
				}
				if spans != nil {
					w.spans = spans.record(w.spans, spansPerPhase/inflight, ph.span, w.call, t0, t1)
				}
			}
		}(w, ops[i])
	}
	return ph, nil
}

// stop ends a phase started with dur 0.
func (ph *livePhase) stop() { ph.stopOnce.Do(func() { close(ph.stopCh) }) }

// finish waits for the workers and does the phase's accounting.
func (ph *livePhase) finish() (*phaseResult, error) {
	r, p := ph.r, ph.res
	ph.wg.Wait()
	elapsed := time.Since(ph.start)
	speed, err := ph.gate.finish()
	if err != nil {
		return nil, err
	}
	r.spans.end(ph.span)
	drv1 := selfCPU()
	cpu1, err := r.cl.cpu()
	if err != nil {
		return nil, err
	}
	if p.io1, err = r.cl.sample(); err != nil {
		return nil, err
	}
	p.Seconds, p.Wall = ph.gate.workS, elapsed.Seconds()
	p.Speed, p.YardNS = speed, ph.gate.yardNS
	p.NodeCPUs = (cpu1 - ph.cpu0).Seconds()
	p.DrvCPUs = (drv1 - ph.drv0 - ph.gate.yardCPU).Seconds()
	byClass := map[string][]sample{}
	for _, w := range ph.workers {
		p.Attempted += w.attempted
		p.Failed += w.failed
		p.failedAt = append(p.failedAt, w.failedAt...)
		for _, s := range w.samples {
			class := "read"
			if s.write {
				class = "write"
			}
			byClass[class] = append(byClass[class], s)
		}
		if w.spans != nil {
			r.spans.merge(w.spans, len(w.samples))
		}
	}
	p.Completed = p.Attempted - p.Failed
	for class, ss := range byClass {
		d := summarise(ss, elapsed)
		p.dists[class] = d
		p.Windows[class] = d.windows
	}
	r.phases = append(r.phases, p)
	return p, nil
}

// closedPhase runs a closed phase for dur.
func (r *run) closedPhase(name string, dur time.Duration, inflight int, mk func(id int, rng *rand.Rand) workerSpec) (*phaseResult, error) {
	ph, err := r.startPhase(name, dur, inflight, mk)
	if err != nil {
		return nil, err
	}
	return ph.finish()
}

// hashName folds a phase name into a seed part.
func hashName(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	return h.Sum64()
}

// lookupOne resolves key through w's client and verifies the reply.
func (r *run) lookupOne(w *worker, key int) bool {
	floor := r.acked[key].Load()
	if err := w.c.LookupInto(r.in.keys[key], &w.e); err != nil {
		return false
	}
	if r.synced != nil {
		if !r.in.checkEntry(&w.e, key, r.synced[key].Load()) {
			return false
		}
		if w.e.Version < floor {
			r.stale.Add(1)
		}
		return true
	}
	return r.in.checkEntry(&w.e, key, floor)
}

// serialPhase is the one-in-flight lookup phase of a traced run, whose
// median is rtt_p50_us: uniform keys, so it reads the same on every
// workload's population.
func (r *run) serialPhase() error {
	n := len(r.in.keys)
	ser, err := r.closedPhase("serial", r.frac(tracedSerialShare), 1, func(int, *rand.Rand) workerSpec {
		return workerSpec{"read", "client.LookupInto", func(w *worker) (int, int) {
			return 1, bad(r.lookupOne(w, w.rng.Intn(n)))
		}}
	})
	if err != nil {
		return err
	}
	d := ser.dists["read"]
	if d.n == 0 {
		return fmt.Errorf("serial: nothing completed")
	}
	r.m.set("rtt_p50_us", d.p50)
	r.m.set("n.serial.read", float64(d.n))
	return nil
}

// frac returns the given share of the run's timed budget.
func (r *run) frac(f float64) time.Duration {
	return time.Duration(f * r.cfg.seconds * float64(time.Second))
}

// bad turns a verified-ok flag into a failure count of one op.
func bad(ok bool) int {
	if ok {
		return 0
	}
	return 1
}
