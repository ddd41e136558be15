// Package nodesim runs DMap as an event-driven protocol over simnet: one
// node per AS border gateway, real insert/update/lookup messages with
// topology latencies, querier-side timeouts and retries. Where
// experiments.evalLookup prices the same walk in closed form, nodesim
// exercises the interleavings: a lookup racing a mobility update observes
// the old mapping (§III-D2), a crashed replica costs a timeout before the
// next replica is tried (§III-D3).
package nodesim

import (
	"fmt"
	"slices"
	"sort"

	"dmap/internal/core"
	"dmap/internal/guid"
	"dmap/internal/simnet"
	"dmap/internal/store"
)

// message payloads
type (
	insertReq struct {
		entry store.Entry
		reqID uint64
	}
	insertAck struct {
		reqID uint64
	}
	lookupReq struct {
		guid  guid.GUID
		reqID uint64
	}
	lookupResp struct {
		reqID uint64
		entry store.Entry
		found bool
	}
)

// InsertResult reports a completed insert/update: Latency is the time
// until the last replica acknowledged (the paper's max-over-K update
// cost).
type InsertResult struct {
	Latency simnet.Time
	Acks    int
}

// LookupResult reports a completed lookup.
type LookupResult struct {
	Entry     store.Entry
	Found     bool
	Latency   simnet.Time
	Attempts  int
	ServedBy  int
	UsedLocal bool
}

// DefaultTimeout is the querier's per-attempt timeout.
const DefaultTimeout = simnet.Time(2_000_000) // 2 s

// Deployment is an event-driven DMap network.
type Deployment struct {
	sys     *core.System
	net     *simnet.Network
	oracle  simnet.LatencyOracle
	timeout simnet.Time

	nextReq uint64
	inserts map[uint64]*insertOp
	lookups map[uint64]*lookupOp
	gossip  GossipStats
	chains  map[uint64]*sweepChain // gossip chains by the reply they await
}

type insertOp struct {
	start   simnet.Time
	pending int
	acks    int
	done    func(InsertResult)
}

type lookupOp struct {
	g         guid.GUID
	src       int
	start     simnet.Time
	order     []int // distinct replica ASs in selection order
	next      int   // next index in order to try
	missed    bool  // a replica answered "missing"
	attempts  int
	answered  bool
	localHit  bool
	localTime simnet.Time
	local     store.Entry
	done      func(LookupResult)
}

// NewDeployment binds one DMap node per AS onto the network. timeout ≤ 0
// selects DefaultTimeout.
func NewDeployment(sys *core.System, sim *simnet.Sim, oracle simnet.LatencyOracle, timeout simnet.Time) (*Deployment, error) {
	if sys == nil {
		return nil, fmt.Errorf("nodesim: nil system")
	}
	net, err := simnet.NewNetwork(sim, oracle, sys.NumAS())
	if err != nil {
		return nil, err
	}
	if timeout <= 0 {
		timeout = DefaultTimeout
	}
	d := &Deployment{
		sys:     sys,
		net:     net,
		oracle:  oracle,
		timeout: timeout,
		inserts: make(map[uint64]*insertOp),
		lookups: make(map[uint64]*lookupOp),
		chains:  make(map[uint64]*sweepChain),
	}
	for as := 0; as < sys.NumAS(); as++ {
		as := as
		if err := net.Bind(as, simnet.HandlerFunc(func(n *simnet.Network, msg simnet.Message) {
			d.handle(as, msg)
		})); err != nil {
			return nil, err
		}
	}
	return d, nil
}

// Sim returns the underlying scheduler.
func (d *Deployment) Sim() *simnet.Sim { return d.net.Sim() }

// Network returns the underlying simnet, e.g. to install a
// simnet.FaultPlan (loss, delay, crash windows, partitions) under the
// deployment's protocol traffic.
func (d *Deployment) Network() *simnet.Network { return d.net }

// System returns the underlying DMap system.
func (d *Deployment) System() *core.System { return d.sys }

// handle dispatches a message arriving at AS self. A crashed node needs
// no check here: simnet drops every delivery to a node inside a crash
// window of the installed fault plan, so its queriers time out (§III-D3).
func (d *Deployment) handle(self int, msg simnet.Message) {
	if d.handleGossip(self, msg) {
		return
	}
	switch p := msg.Payload.(type) {
	case insertReq:
		st, err := d.sys.Store(self)
		if err != nil {
			return
		}
		// Put may reject stale versions; the ack is sent either way (the
		// protocol acknowledges receipt, not freshness).
		_, _ = st.Put(p.entry)
		_ = d.net.Send(self, msg.From, insertAck{reqID: p.reqID})
	case insertAck:
		op, ok := d.inserts[p.reqID]
		if !ok {
			return
		}
		op.acks++
		op.pending--
		if op.pending == 0 {
			delete(d.inserts, p.reqID)
			op.done(InsertResult{Latency: d.Sim().Now() - op.start, Acks: op.acks})
		}
	case lookupReq:
		st, err := d.sys.Store(self)
		if err != nil {
			return
		}
		e, ok := st.Get(p.guid)
		_ = d.net.Send(self, msg.From, lookupResp{reqID: p.reqID, entry: e, found: ok})
	case lookupResp:
		d.handleLookupResp(msg.From, p)
	}
}

// Insert stores e at its K replicas (plus the local copy) from srcAS,
// invoking done when every replica acknowledged. Update is the same
// operation with a higher version.
func (d *Deployment) Insert(srcAS int, e store.Entry, done func(InsertResult)) error {
	placements, err := d.sys.Resolver().Place(e.GUID)
	if err != nil {
		return err
	}
	if d.sys.LocalReplicaEnabled() {
		st, err := d.sys.Store(srcAS)
		if err != nil {
			return err
		}
		if _, err := st.Put(e); err != nil {
			return err
		}
	}
	d.nextReq++
	op := &insertOp{start: d.Sim().Now(), pending: len(placements), done: done}
	d.inserts[d.nextReq] = op
	for _, p := range placements {
		if err := d.net.Send(srcAS, p.AS, insertReq{entry: e, reqID: d.nextReq}); err != nil {
			return err
		}
	}
	return nil
}

// Lookup resolves g from srcAS: the closest replica AS (by the oracle's
// RTT estimate) is tried first, with a parallel local check, falling to
// the next replica AS on a miss reply or timeout. done fires exactly once.
func (d *Deployment) Lookup(srcAS int, g guid.GUID, done func(LookupResult)) error {
	placements, err := d.sys.Resolver().Place(g)
	if err != nil {
		return err
	}
	order := make([]int, 0, len(placements)) // each AS once
	for _, p := range placements {
		if !slices.Contains(order, p.AS) {
			order = append(order, p.AS)
		}
	}
	sort.Slice(order, func(i, j int) bool {
		ri, rj := d.rtt(srcAS, order[i]), d.rtt(srcAS, order[j])
		if ri != rj {
			return ri < rj
		}
		return order[i] < order[j]
	})

	d.nextReq++
	op := &lookupOp{
		g:     g,
		src:   srcAS,
		start: d.Sim().Now(),
		order: order,
		done:  done,
	}
	reqID := d.nextReq
	d.lookups[reqID] = op

	// Parallel local lookup (§III-C): modeled as an intra-AS round trip,
	// which a querier inside a crash window cannot make.
	if d.sys.LocalReplicaEnabled() && !d.net.NodeDown(srcAS, d.Sim().Now()) {
		st, err := d.sys.Store(srcAS)
		if err != nil {
			return err
		}
		if e, ok := st.Get(g); ok {
			localRTT := 2 * d.oracle.OneWay(srcAS, srcAS)
			op.localHit = true
			op.localTime = d.Sim().Now() + localRTT
			op.local = e
			if err := d.Sim().After(localRTT, func() {
				d.maybeAnswerLocal(reqID)
			}); err != nil {
				return err
			}
		}
	}
	return d.tryNext(reqID)
}

func (d *Deployment) rtt(a, b int) simnet.Time {
	return d.oracle.OneWay(a, b) + d.oracle.OneWay(b, a)
}

// maybeAnswerLocal completes the lookup from the local copy if no global
// replica has answered yet.
func (d *Deployment) maybeAnswerLocal(reqID uint64) {
	op, ok := d.lookups[reqID]
	if !ok || op.answered {
		return
	}
	op.answered = true
	delete(d.lookups, reqID)
	op.done(LookupResult{
		Entry:     op.local,
		Found:     true,
		Latency:   d.Sim().Now() - op.start,
		Attempts:  op.attempts,
		ServedBy:  op.src,
		UsedLocal: true,
	})
}

// tryNext contacts the next replica in order, arming a timeout.
func (d *Deployment) tryNext(reqID uint64) error {
	op, ok := d.lookups[reqID]
	if !ok || op.answered {
		return nil
	}
	if op.next >= len(op.order) {
		// All replicas exhausted; if a local answer is in flight it will
		// still fire. Otherwise the lookup fails now.
		if op.localHit {
			return nil
		}
		op.answered = true
		delete(d.lookups, reqID)
		op.done(LookupResult{
			Found:    false,
			Latency:  d.Sim().Now() - op.start,
			Attempts: op.attempts,
		})
		return nil
	}
	target := op.order[op.next]
	op.next++
	op.attempts++
	attemptIdx := op.next // value after increment identifies this attempt
	if err := d.net.Send(op.src, target, lookupReq{guid: op.g, reqID: reqID}); err != nil {
		return err
	}
	return d.Sim().After(d.timeout, func() {
		cur, ok := d.lookups[reqID]
		if !ok || cur.answered {
			return
		}
		// Fire only if no later attempt superseded this one.
		if cur.next == attemptIdx {
			_ = d.tryNext(reqID)
		}
	})
}

func (d *Deployment) handleLookupResp(from int, p lookupResp) {
	op, ok := d.lookups[p.reqID]
	if !ok || op.answered {
		return
	}
	if !p.found {
		// "GUID missing" (churn inconsistency): move on immediately. The
		// first replica to answer so is asked again once all are spent:
		// churn is transient and §III-D1 pulls the copy on the first miss.
		if !op.missed {
			op.missed = true
			op.order = append(op.order, from)
		}
		_ = d.tryNext(p.reqID)
		return
	}
	op.answered = true
	delete(d.lookups, p.reqID)
	op.done(LookupResult{
		Entry:    p.entry,
		Found:    true,
		Latency:  d.Sim().Now() - op.start,
		Attempts: op.attempts,
		ServedBy: from,
	})
}
