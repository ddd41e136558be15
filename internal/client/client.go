// Package client implements the querier side of networked DMap: it
// derives each GUID's K hosting ASs locally (exactly as a border gateway
// would, from the shared hash family and prefix table) and talks to the
// corresponding mapping nodes over TCP.
//
// Robustness follows §III-D3 of the paper: every operation runs under a
// per-operation deadline; each replica is tried with bounded,
// backoff-paced retries; and on timeout, connection error or an explicit
// node rejection the operation fails over to the next replica in
// Algorithm 1's rehash order (the K-th placement may itself be the
// nearest-deputy fallback — the walk covers it like any other replica).
package client

import (
	"cmp"
	"errors"
	"fmt"
	"net"
	"runtime"
	"slices"
	"time"

	"dmap/internal/core"
	"dmap/internal/guid"
	"dmap/internal/metrics"
	"dmap/internal/store"
	"dmap/internal/trace"
	"dmap/internal/wire"
)

// DefaultTimeout bounds each network attempt.
const DefaultTimeout = 2 * time.Second

// Config tunes the cluster client. The zero value selects every
// default.
type Config struct {
	// Timeout bounds one network attempt (dial + request + response).
	// ≤ 0 selects DefaultTimeout.
	Timeout time.Duration
	// OpDeadline bounds a whole operation across all replicas, retries
	// and backoffs. ≤ 0 selects 4 × Timeout.
	OpDeadline time.Duration
	// Retry is the per-replica retry policy (zero value = defaults).
	Retry RetryPolicy
	// Tracer samples operations into traces and captures slow ops. Nil
	// (the default) disables tracing entirely: the request path takes a
	// nil-check and nothing else. When set, sampled requests carry their
	// trace context, which a node with a tracer joins.
	Tracer *trace.Tracer
	// Net is the network the client runs on. Nil, the default, is TCP:
	// the node addresses through the shared connections, the wall clock,
	// and reads in Algorithm 1's placement order. A simulated network
	// (internal/nodesim) or a test script supplies its own; the address
	// map is then unused.
	Net Network
}

// Network is what a Cluster runs on: a clock, a way to put a request to
// an AS's node without waiting for its reply, and what it knows of the
// distance to each AS.
type Network interface {
	// Now and Sleep are the client's clock: every operation deadline,
	// attempt timing and retry backoff reads them.
	Now() time.Time
	Sleep(d time.Duration)
	// Start sends one request frame, carrying the attempt's trace
	// context, to the node of AS as and returns its reply to wait on;
	// it must not block on the network. The payload is valid until the
	// reply has been waited on, and the reply's body becomes the
	// client's (DESIGN.md §9), so it must not be a buffer Start reuses.
	Start(as int, t wire.MsgType, tc trace.Context, payload []byte, timeout time.Duration) Reply
	// RTT is the round trip to AS as, if known. A read asks the replica
	// ASs whose RTT is known closest first (§III-C), then the others in
	// placement order; knowing none, it walks placement order as over
	// TCP.
	RTT(as int) (d time.Duration, ok bool)
}

// Reply is a request on its way while its reply is not in yet.
type Reply interface {
	// Wait blocks for the reply — or the timeout the request was
	// started with, which it carries.
	Wait() (wire.MsgType, []byte, error)
}

func (c Config) withDefaults() Config {
	if c.Timeout <= 0 {
		c.Timeout = DefaultTimeout
	}
	if c.OpDeadline <= 0 {
		c.OpDeadline = 4 * c.Timeout
	}
	c.Retry = c.Retry.withDefaults()
	return c
}

// Cluster resolves GUIDs against a set of networked mapping nodes. It is
// safe for concurrent use.
type Cluster struct {
	resolver *core.Resolver
	cfg      Config
	addrs    map[int]string // AS index → node address, fixed at NewWithConfig

	mux muxTable // one shared pipelined connection per node address
	m   clusterMetrics

	// tracer mirrors cfg.Tracer; nil-safe.
	tracer *trace.Tracer

	// net is cfg.Net: nil runs over TCP through mux and the wall clock.
	net Network
}

// clusterMetrics holds the client's resolved metric handles. The
// counters double as the Stats() snapshot source, so the failure-path
// numbers in tests, dmapnode demo output and /debug/metrics are one
// set of books (no bespoke atomics on the side).
type clusterMetrics struct {
	reg       *metrics.Registry
	dials     *metrics.Counter
	redials   *metrics.Counter
	retries   *metrics.Counter
	failovers *metrics.Counter
	rejects   *metrics.Counter
	sheds     *metrics.Counter
	timeouts  *metrics.Counter
	deadlines *metrics.Counter
	// attempt is the per-attempt round-trip latency (µs), including
	// timed-out and failed attempts — the distribution §III-D3's
	// failover math is about.
	attempt *metrics.Histogram
	// Per-operation end-to-end latency (µs) across all replicas,
	// retries and backoffs, successful or not.
	opInsert *metrics.Histogram
	opLookup *metrics.Histogram
	opDelete *metrics.Histogram
	// v2 pipelined-path instrumentation: requests in flight on shared
	// connections, entries/GUIDs per batch frame, end-to-end batch op
	// latency.
	inflight   *metrics.Gauge
	batchSize  *metrics.Histogram
	opBatchIns *metrics.Histogram
	opBatchLkp *metrics.Histogram
}

func newClusterMetrics() clusterMetrics {
	reg := metrics.NewRegistry()
	return clusterMetrics{
		reg:       reg,
		dials:     reg.Counter("client.dials"),
		redials:   reg.Counter("client.redials"),
		retries:   reg.Counter("client.retries"),
		failovers: reg.Counter("client.failovers"),
		rejects:   reg.Counter("client.rejects"),
		sheds:     reg.Counter("client.sheds"),
		timeouts:  reg.Counter("client.timeouts"),
		deadlines: reg.Counter("client.deadlines"),
		attempt:   reg.Histogram("client.attempt_us"),
		opInsert:  reg.Histogram("client.op.insert_us"),
		opLookup:  reg.Histogram("client.op.lookup_us"),
		opDelete:  reg.Histogram("client.op.delete_us"),

		inflight:   reg.Gauge("client.inflight"),
		batchSize:  reg.Histogram("client.batch_size"),
		opBatchIns: reg.Histogram("client.op.batch_insert_us"),
		opBatchLkp: reg.Histogram("client.op.batch_lookup_us"),
	}
}

// NewWithConfig builds a cluster client. addrs maps AS indices to node
// "host:port" addresses; ASs without nodes are treated as unreachable.
// The zero Config selects the default timeout, deadline and retry
// settings.
func NewWithConfig(resolver *core.Resolver, addrs map[int]string, cfg Config) (*Cluster, error) {
	if resolver == nil {
		return nil, errors.New("client: nil resolver")
	}
	m := make(map[int]string, len(addrs))
	for as, a := range addrs {
		m[as] = a
	}
	c := &Cluster{resolver: resolver, cfg: cfg.withDefaults(), addrs: m, m: newClusterMetrics()}
	c.tracer, c.net = c.cfg.Tracer, c.cfg.Net
	c.m.reg.GaugeFunc("client.mux.conns", func() float64 { return float64(c.mux.liveConns()) })
	return c, nil
}

// Stats returns a snapshot of the failure-path counters (the same
// counters Metrics exposes).
func (c *Cluster) Stats() Stats {
	return Stats{
		Dials:     c.m.dials.Value(),
		Redials:   c.m.redials.Value(),
		Retries:   c.m.retries.Value(),
		Failovers: c.m.failovers.Value(),
		Rejects:   c.m.rejects.Value(),
		Sheds:     c.m.sheds.Value(),
		Timeouts:  c.m.timeouts.Value(),
		Deadlines: c.m.deadlines.Value(),
	}
}

// Metrics returns the cluster's registry: failure-path counters,
// per-attempt and per-operation latency histograms, and the
// shared-connection gauge.
func (c *Cluster) Metrics() *metrics.Registry { return c.m.reg }

// Close releases the shared connections.
func (c *Cluster) Close() { c.mux.closeAll() }

// Operation errors.
var (
	// ErrNotFound reports that no reachable replica had the mapping.
	ErrNotFound = errors.New("client: GUID not found")
	// ErrDeadline reports that the per-operation deadline expired before
	// the operation could complete.
	ErrDeadline = errors.New("client: operation deadline exceeded")
	// ErrOverload reports a load-shed refusal (wire.ErrKindShed): the
	// node is healthy but at its in-flight limit. The retry loop backs
	// off and retries the same replica rather than failing over.
	ErrOverload = errors.New("client: node overloaded")
	// ErrRejected reports an explicit MsgError refusal from a node
	// (e.g. a draining store). Rejections fail over immediately: the
	// node answered, so retrying it is pointless.
	ErrRejected = errors.New("client: request rejected by node")
)

// errStaleConn marks a reused shared connection that died before
// carrying the request's reply: the server closed it while idle. The
// retry loop replaces it without consuming a policy attempt — the
// request never reached a live server.
var errStaleConn = errors.New("client: stale shared connection")

// Insert stores e at its K replicas: one frame per distinct replica AS,
// all started before any ack is awaited (placements that share an AS
// share its one write — a second would be a stale no-op by §III-D2).
// It returns how many PLACEMENTS were acknowledged, an AS's ack counting
// for every placement that names it, so a fully stored entry reads K
// however its placements collide; InsertBatch counts distinct ASs. An
// error is returned only when no replica could be reached (partial
// success is the protocol's normal churn-tolerant mode).
func (c *Cluster) Insert(e store.Entry) (acked int, err error) {
	opStart := c.now()
	sp := c.tracer.StartOp("client.insert")
	defer func() {
		c.m.opInsert.ObserveExemplar(micros(c.now().Sub(opStart)), sp.TraceID())
		c.tracer.FinishOp(sp, "insert", e.GUID, opStart, err)
	}()
	var pbuf [stackK]core.Placement
	place, err := c.resolver.PlaceInto(e.GUID, pbuf[:0])
	if err != nil {
		return 0, err
	}
	payload, err := wire.AppendEntry(payloadBufs.Get(128), e)
	if err != nil {
		return 0, err
	}
	// fanOut returns with every attempt finished — the pool never sees
	// a buffer a retry could still send.
	defer payloadBufs.Put(payload)
	var abuf [stackK]attempt
	atts := c.fanOut(abuf[:0], place, attempt{sp: sp, t: wire.MsgInsert, payload: payload, opDeadline: opStart.Add(c.cfg.OpDeadline)}, opStart)
	for i := range atts {
		wire.Replies.Put(atts[i].body) // an insert ack carries no payload worth keeping
	}
	for _, p := range place {
		if a := replicaAt(atts, p.AS); a.err == nil && a.rt == wire.MsgInsertAck {
			acked++
		}
	}
	if acked == 0 {
		return 0, insertFailure(e.GUID, place, atts)
	}
	return acked, nil
}

// stackK sizes the placement and attempt scratch the K-replica
// operations keep on their stack; a larger K spills to the heap.
const stackK = 8

// fanOut is the K-replica write shape: it starts proto once per
// distinct replica AS among place — in placement order, from the
// calling goroutine, corked — flushes the set and then finishes every
// attempt in place. The caller owns the replies' bodies.
func (c *Cluster) fanOut(atts []attempt, place []core.Placement, proto attempt, now time.Time) []attempt {
	proto.cork = true
	for j, p := range place {
		if replicaAt(atts, p.AS) != nil {
			continue // placements collided on one AS: ask it once
		}
		if j > 0 {
			now = c.now() // a transport that answers in the call may have spent the budget
		}
		atts = append(atts, proto)
		c.start(&atts[len(atts)-1], p.AS, now)
	}
	flush(atts)
	c.finish(atts, now)
	return atts
}

// flush sends what a set of corked attempts left enqueued on their live
// connections: one yield, so that every caller already runnable appends
// its frames first, then a Flush per connection — a second one finds
// nothing pending, a failed one reaches its tries through their reply
// slots. The attempts leave uncorked: a retry goes out by itself.
func flush(atts []attempt) {
	runtime.Gosched()
	for i := range atts {
		atts[i].cork = false
		if atts[i].conn != nil {
			_ = atts[i].conn.Flush()
		}
	}
}

// replicaAt returns the attempt that asked replica AS as, nil if none.
func replicaAt(atts []attempt, as int) *attempt {
	for i := range atts {
		if atts[i].as == as {
			return &atts[i]
		}
	}
	return nil
}

// insertFailure explains a total insert failure. "Every replica
// rejected the write" (a cluster-wide drain) and "no replica reachable"
// (an outage) are different operator stories; the error distinguishes
// them and carries the last per-replica cause instead of a generic
// "no replica reachable".
func insertFailure(g guid.GUID, place []core.Placement, atts []attempt) error {
	rejected, unreachable := 0, 0
	var last error
	for _, p := range place {
		if a := replicaAt(atts, p.AS); a.err != nil {
			last = fmt.Errorf("AS %d: %w", p.AS, a.err)
		} else {
			last = fmt.Errorf("AS %d: unexpected frame %v", p.AS, a.rt)
		}
		if errors.Is(last, ErrRejected) {
			rejected++
		} else {
			unreachable++
		}
	}
	switch {
	case last == nil:
		return fmt.Errorf("client: insert %s: no replica acknowledged", g.Short())
	case unreachable == 0:
		return fmt.Errorf("client: insert %s: all %d replicas rejected the write (%w; last: %v)", g.Short(), rejected, ErrRejected, last)
	case rejected == 0:
		return fmt.Errorf("client: insert %s: no replica reachable (%d unreachable; last: %v)", g.Short(), unreachable, last)
	default:
		return fmt.Errorf("client: insert %s: no replica stored it (%d rejected, %d unreachable; last: %v)", g.Short(), rejected, unreachable, last)
	}
}

// Update is Insert with a higher version (freshest-wins at each node).
func (c *Cluster) Update(e store.Entry) (int, error) { return c.Insert(e) }

// Lookup resolves g. Over a Network that knows RTTs the walk asks the
// closest replica AS first (§III-C); the others, and every replica over
// TCP, follow in Algorithm 1's placement order. A miss reply, timeout,
// connection error or rejection moves to the next replica AS until the
// per-operation deadline expires (§III-D3); each replica AS is asked
// once. When they are spent and one answered "missing", the first that
// did is asked once more: churn is transient, and §III-D1 pulls the copy
// on the first miss.
func (c *Cluster) Lookup(g guid.GUID) (store.Entry, error) {
	var e store.Entry
	if err := c.LookupInto(g, &e); err != nil {
		return store.Entry{}, err
	}
	return e, nil
}

// LookupInto is Lookup with a caller-supplied result buffer: the found
// entry is decoded into e, reusing its NAs capacity, so a caller that
// keeps one entry per goroutine (cap(NAs) >= store.MaxNAs) resolves
// GUIDs with zero heap allocations. On a miss or error e's contents are
// unspecified.
func (c *Cluster) LookupInto(g guid.GUID, e *store.Entry) (err error) {
	payload := wire.AppendGUID(payloadBufs.Get(32), g)
	defer payloadBufs.Put(payload) // the replica walk below is sequential
	opStart := c.now()
	sp := c.tracer.StartOp("client.lookup")
	// now is the walk's last clock reading: a healthy single-attempt
	// lookup reads the clock at its start and when its reply is in, and
	// those two readings time the attempt and the operation both.
	now := opStart
	defer func() {
		c.m.opLookup.ObserveExemplar(micros(now.Sub(opStart)), sp.TraceID())
		c.tracer.FinishOp(sp, "lookup", g, opStart, err)
	}()
	walk := [1]attempt{{sp: sp, t: wire.MsgLookup, payload: payload, opDeadline: opStart.Add(c.cfg.OpDeadline)}}
	a := &walk[0]
	var lastErr error
	asked := make([]int, 0, stackK)
	k := c.resolver.K()
	byRTT := false
	if c.net != nil {
		if asked, byRTT = c.closestFirst(g, asked); byRTT {
			k = len(asked)
		} else {
			asked = asked[:0]
		}
	}
	missed := -1 // the first AS to answer "missing"
	// Step i < k asks the i-th AS, step k re-asks the missed one. In
	// placement order replica i is placed as the walk reaches it (§III-D3
	// asks replica i+1 only once replica i failed or missed): a healthy
	// read runs Algorithm 1 once, not K times.
walk:
	for i := 0; i <= k; i++ {
		as := missed
		switch {
		case i == k:
			if missed < 0 {
				break walk
			}
		case byRTT:
			as = asked[i]
		default:
			p, perr := c.resolver.PlaceReplica(g, i)
			if perr != nil {
				now = c.now()
				return perr
			}
			if slices.Contains(asked, p.AS) {
				continue // placements collided on one AS: it has answered for both
			}
			asked = append(asked, p.AS)
			as = p.AS
		}
		c.start(a, as, now)
		now = c.finish(walk[:], now)
		if a.err != nil {
			lastErr = a.err
			if errors.Is(a.err, ErrDeadline) {
				break // out of budget: later replicas cannot be tried either
			}
			if i < k-1 && (byRTT || c.failoverLeft(g, i)) {
				c.m.failovers.Inc()
				sp.Eventf("failover: AS %d failed: %v", as, a.err)
			}
			continue
		}
		if a.rt != wire.MsgLookupResp {
			wire.Replies.Put(a.body)
			lastErr = fmt.Errorf("client: unexpected frame %v", a.rt)
			continue
		}
		found, derr := wire.DecodeLookupRespInto(e, a.body)
		wire.Replies.Put(a.body) // DecodeLookupRespInto copied everything it kept
		switch {
		case derr != nil:
			lastErr = derr
		case found:
			return nil
		case missed < 0:
			missed = as
		}
	}
	if lastErr != nil {
		if errors.Is(lastErr, ErrDeadline) {
			return lastErr
		}
		return fmt.Errorf("%w (last error: %v)", ErrNotFound, lastErr)
	}
	return ErrNotFound
}

// closestFirst appends g's distinct replica ASs to ases in the order a
// read asks them over c.net: those whose RTT it knows by (RTT, AS), then
// the others in placement order. ok
// reports whether it knows the RTT to any of them and placement
// succeeded; if not, the read walks placement order as over TCP.
func (c *Cluster) closestFirst(g guid.GUID, ases []int) (_ []int, ok bool) {
	var pbuf [stackK]core.Placement
	place, err := c.resolver.PlaceInto(g, pbuf[:0])
	for j, p := range place {
		if !collided(place, j) {
			ases = append(ases, p.AS)
			_, known := c.net.RTT(p.AS)
			ok = ok || known
		}
	}
	slices.SortStableFunc(ases, func(x, y int) int {
		dx, okx := c.net.RTT(x)
		dy, oky := c.net.RTT(y)
		switch {
		case okx && oky:
			return cmp.Or(cmp.Compare(dx, dy), cmp.Compare(x, y))
		case okx:
			return -1
		case oky:
			return 1
		}
		return 0
	})
	return ases, ok && err == nil
}

// failoverLeft reports whether one of g's replicas after placement i is
// on an AS that placements 0..i do not name: whether a read that failed
// at replica i has an AS left to fail over to.
func (c *Cluster) failoverLeft(g guid.GUID, i int) bool {
	var pbuf [stackK]core.Placement
	place, _ := c.resolver.PlaceInto(g, pbuf[:0]) // none on error
	for j := i + 1; j < len(place); j++ {
		if !slices.ContainsFunc(place[:i+1], func(q core.Placement) bool { return q.AS == place[j].AS }) {
			return true
		}
	}
	return false
}

// Delete removes g from all replicas, asking each distinct replica AS
// once and all of them at the same time. It returns how many held it.
func (c *Cluster) Delete(g guid.GUID) (removed int, err error) {
	payload := wire.AppendGUID(payloadBufs.Get(32), g)
	defer payloadBufs.Put(payload) // fanOut returns with every attempt finished
	opStart := c.now()
	sp := c.tracer.StartOp("client.delete")
	defer func() {
		c.m.opDelete.ObserveExemplar(micros(c.now().Sub(opStart)), sp.TraceID())
		c.tracer.FinishOp(sp, "delete", g, opStart, err)
	}()
	var pbuf [stackK]core.Placement
	place, err := c.resolver.PlaceInto(g, pbuf[:0])
	if err != nil {
		return 0, err
	}
	var abuf [stackK]attempt
	atts := c.fanOut(abuf[:0], place, attempt{sp: sp, t: wire.MsgDelete, payload: payload, opDeadline: opStart.Add(c.cfg.OpDeadline)}, opStart)
	for i := range atts {
		a := &atts[i]
		if a.err == nil && a.rt == wire.MsgDeleteAck && len(a.body) >= 1 && a.body[0] == 1 {
			removed++
		}
		wire.Replies.Put(a.body)
	}
	return removed, nil
}

// attempt is one replica's share of an operation on its way from start
// to finish. Operations keep their attempts on their own stack.
type attempt struct {
	// What is asked, the same at every replica. sp is the operation's
	// span (nil when unsampled): each try opens a child span carrying
	// the AS, try number and outcome, whose context rides to the server.
	// idxs, on a batch frame, indexes the operation's items it carries.
	// cork marks one of a set of attempts started together: its first
	// try is only enqueued on a live connection, for the set's flush.
	sp         *trace.Span
	t          wire.MsgType
	payload    []byte
	opDeadline time.Time
	idxs       []int
	cork       bool

	as   int // the replica asked and its node, set by start
	addr string

	// The try in flight, set by send; wake is when the next may be sent.
	n        int // 1 for the first try at this replica
	redialed bool
	att      *trace.Span
	began    time.Time
	timeout  time.Duration
	wake     time.Time
	pend     Reply      // its reply, when still to be taken
	conn     *wire.Conn // the shared connection it was started on, if that was up

	// The answer, final once done.
	done bool
	rt   wire.MsgType
	body []byte
	err  error
}

// start sends a's first try at replica AS as. It does not wait for the
// reply.
func (c *Cluster) start(a *attempt, as int, now time.Time) {
	addr, ok := "", true // a Network reaches every AS
	if c.net == nil {
		addr, ok = c.addrs[as]
	}
	a.as, a.addr, a.n, a.redialed, a.done = as, addr, 1, false, !ok
	a.rt, a.body, a.err = 0, nil, nil
	if !ok {
		a.err = fmt.Errorf("client: no node for AS %d", as)
		return
	}
	c.send(a, now)
}

// send puts try a.n on the wire at time now, or — out of budget —
// settles the attempt with ErrDeadline.
func (c *Cluster) send(a *attempt, now time.Time) {
	remaining := a.opDeadline.Sub(now)
	if remaining <= 0 {
		c.m.deadlines.Inc()
		a.sp.Eventf("deadline exceeded at AS %d", a.as)
		a.done = true
		if a.err == nil {
			a.err = ErrDeadline
		} else {
			a.err = fmt.Errorf("%w (last error: %v)", ErrDeadline, a.err)
		}
		return
	}
	a.timeout = min(c.cfg.Timeout, remaining)
	a.att = a.sp.NewChild("attempt")
	if a.att != nil { // skip the arg boxing entirely when unsampled
		a.att.Eventf("as=%d addr=%s attempt=%d %v", a.as, a.addr, a.n, a.t)
	}
	a.began = now
	if c.net != nil {
		a.pend, a.conn = c.net.Start(a.as, a.t, a.att.Context(), a.payload, a.timeout), nil
	} else {
		a.pend, a.conn, a.err = c.roundTrip(a.addr, a.t, a.att.Context(), a.payload, now, a.timeout, a.cork)
	}
	if a.pend != nil {
		c.m.inflight.Add(1)
	}
}

// finish takes the reply of every try in flight among atts, in order,
// and runs what is left of the retry policy for the ones that failed,
// in rounds: all replies, then every granted retry sent once its own
// backoff has passed, then their replies. Retries of different replicas
// therefore overlap, and the whole takes no longer than one replica's
// worst-case budget. It returns its last clock reading, taken once the
// last reply was in.
func (c *Cluster) finish(atts []attempt, now time.Time) time.Time {
	for more := true; more; {
		more = false
		for i := range atts {
			if a := &atts[i]; !a.done {
				now = c.settle(a)
			}
		}
		for i := range atts {
			if a := &atts[i]; !a.done {
				more = true
				if pause := a.wake.Sub(now); pause > 0 {
					c.sleep(pause)
					now = c.now()
				}
				c.send(a, now)
			}
		}
	}
	return now
}

// settle takes the outcome of the try in flight and applies the retry
// policy to it: up to MaxAttempts tries with exponential backoff and
// deterministic jitter. A stale shared connection is replaced
// without consuming a try (once per replica) — and without a backoff or
// a tick of the retries counter, since no logical retry happened. A
// MsgError reply ends the retries — the node answered and said no —
// except for ErrKindShed, "too busy right now", which consumes a try
// and backs off on the same replica instead of failing over. It leaves
// a done, or ready for send at a.wake, and returns its clock reading.
func (c *Cluster) settle(a *attempt) time.Time {
	if a.pend != nil {
		a.rt, a.body, a.err = a.pend.Wait()
		if a.conn != nil { // started on a connection that was already up
			a.err = stale(a.err)
		}
		a.pend = nil
		c.m.inflight.Add(-1)
	}
	now := c.now()
	c.m.attempt.ObserveExemplar(micros(now.Sub(a.began)), a.att.TraceID())
	a.wake = now
	if errors.Is(a.err, errStaleConn) && !a.redialed {
		// Observable replacement of a server-closed idle connection.
		// The request never reached a live server, so this consumes
		// no policy attempt, pays no backoff and counts no retry.
		a.redialed = true
		c.m.redials.Inc()
		a.att.Eventf("redial: stale connection replaced")
		a.att.End()
		return now
	}
	if a.err == nil {
		if a.rt != wire.MsgError {
			a.att.End()
			a.done = true
			return now
		}
		kind, reason, derr := wire.DecodeErrorKind(a.body)
		wire.Replies.Put(a.body) // DecodeErrorKind copied the reason string
		a.rt, a.body = 0, nil
		if derr != nil {
			reason = "unreadable reason"
		}
		if kind != wire.ErrKindShed {
			// The node answered and said no for a condition that won't
			// clear by itself (draining, malformed request): abort the
			// retries so the caller fails over immediately.
			c.m.rejects.Inc()
			a.att.Eventf("rejected: %s", reason)
			a.att.End()
			a.done, a.err = true, fmt.Errorf("%w: %s", ErrRejected, reason)
			return now
		}
		// Admission shed: the replica is healthy but saturated, and
		// unlike a drain reject the condition clears on its own.
		// Consume an attempt and back off on this replica instead of
		// failing over, which would stampede the load onto the next
		// replica and take it down too.
		c.m.sheds.Inc()
		a.att.Eventf("shed: %s", reason)
		a.err = fmt.Errorf("%w: %s", ErrOverload, reason)
	}
	var ne net.Error
	if errors.As(a.err, &ne) && ne.Timeout() {
		c.m.timeouts.Inc()
		a.att.Eventf("timeout: %v", a.err)
	} else if !errors.Is(a.err, ErrOverload) {
		a.att.Eventf("error: %v", a.err)
	}
	a.att.End()
	a.n++
	if a.n > c.cfg.Retry.MaxAttempts {
		a.done = true
		return now
	}
	c.m.retries.Inc()
	pause := min(c.cfg.Retry.Backoff(a.as, a.n), a.opDeadline.Sub(now))
	a.sp.Eventf("retry %d at AS %d after %v backoff", a.n, a.as, pause)
	a.wake = now.Add(pause)
	return now
}

// now reads the client's clock: its network's, or the wall clock.
func (c *Cluster) now() time.Time {
	if c.net != nil {
		return c.net.Now()
	}
	return time.Now()
}

// sleep pauses on the client's clock.
func (c *Cluster) sleep(d time.Duration) {
	if c.net != nil {
		c.net.Sleep(d)
	} else {
		time.Sleep(d)
	}
}

// micros is d in the histograms' unit.
func micros(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
