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
	"errors"
	"fmt"
	"net"
	"sync"
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

// DefaultFreshnessWait is how long LookupFastest keeps collecting
// answers after the first positive reply to prefer the freshest
// Version — the stale-read window after a partial Update.
const DefaultFreshnessWait = 2 * time.Millisecond

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
	// ForceV1 disables the multiplexed v2 transport: every request uses
	// a sequential v1 connection. For benchmarking the old path and for
	// talking to pre-v2 deployments without paying the hello probe.
	ForceV1 bool
	// FreshnessWait is LookupFastest's grace window: after the first
	// positive reply it keeps collecting answers for this long (or until
	// every replica answered) and returns the highest Version seen.
	// 0 selects DefaultFreshnessWait; negative disables the grace
	// (first positive answer wins, which may return a stale read after
	// a partial Update).
	FreshnessWait time.Duration
	// Tracer samples operations into traces and captures slow ops. Nil
	// (the default) disables tracing entirely: the request path takes a
	// nil-check and nothing else. When set, sampled requests carry their
	// trace context to trace-capable servers (negotiated in the hello).
	Tracer *trace.Tracer
	// Logger receives structured client logs (redials, failovers at warn
	// and debug level). Nil discards.
	Logger *trace.Logger
}

func (c Config) withDefaults() Config {
	if c.Timeout <= 0 {
		c.Timeout = DefaultTimeout
	}
	if c.OpDeadline <= 0 {
		c.OpDeadline = 4 * c.Timeout
	}
	if c.FreshnessWait == 0 {
		c.FreshnessWait = DefaultFreshnessWait
	}
	c.Retry = c.Retry.withDefaults()
	return c
}

// Cluster resolves GUIDs against a set of networked mapping nodes. It is
// safe for concurrent use.
type Cluster struct {
	resolver *core.Resolver
	cfg      Config

	mu    sync.RWMutex
	addrs map[int]string // AS index → node address

	pool connPool // v1 transport: one idle sequential conn per addr
	mux  muxTable // v2 transport: one shared pipelined conn per addr
	m    clusterMetrics

	// tracer and logger mirror cfg.Tracer/cfg.Logger; both are nil-safe.
	tracer *trace.Tracer
	logger *trace.Logger

	// transport performs one request/response attempt, propagating the
	// attempt's trace context (zero when unsampled) to trace-capable v2
	// peers. It defaults to (*Cluster).roundTrip and exists so tests can
	// script per-attempt outcomes (e.g. a stale conn on the second
	// attempt) that are impractical to stage over a real socket.
	// Buffer contract (DESIGN.md §9): the payload is only valid for the
	// duration of the call — implementations must not retain it — and
	// the returned body may be pool-owned; the op layer releases it with
	// putBody once decoded, so implementations must return bodies they
	// own (fresh or pooled, never a shared buffer they reuse).
	transport func(addr string, t wire.MsgType, tc trace.Context, payload []byte, timeout time.Duration) (wire.MsgType, []byte, error)
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

// New builds a cluster client with default robustness settings. addrs
// maps AS indices to node "host:port" addresses; ASs without nodes are
// treated as unreachable. timeout ≤ 0 selects DefaultTimeout.
func New(resolver *core.Resolver, addrs map[int]string, timeout time.Duration) (*Cluster, error) {
	return NewWithConfig(resolver, addrs, Config{Timeout: timeout})
}

// NewWithConfig builds a cluster client with explicit timeout, deadline
// and retry configuration.
func NewWithConfig(resolver *core.Resolver, addrs map[int]string, cfg Config) (*Cluster, error) {
	if resolver == nil {
		return nil, errors.New("client: nil resolver")
	}
	m := make(map[int]string, len(addrs))
	for as, a := range addrs {
		m[as] = a
	}
	c := &Cluster{resolver: resolver, cfg: cfg.withDefaults(), addrs: m, m: newClusterMetrics()}
	c.tracer = c.cfg.Tracer
	c.logger = c.cfg.Logger
	c.transport = c.roundTrip
	c.m.reg.GaugeFunc("client.pool.idle", func() float64 { return float64(c.pool.idleLen()) })
	c.m.reg.GaugeFunc("client.mux.conns", func() float64 { return float64(c.mux.liveConns()) })
	return c, nil
}

// SetNode adds or replaces the node address of an AS (e.g. after a
// crashed node is revived elsewhere).
func (c *Cluster) SetNode(as int, addr string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.addrs[as] = addr
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
// per-attempt and per-operation latency histograms, and pool gauges.
func (c *Cluster) Metrics() *metrics.Registry { return c.m.reg }

// Tracer returns the cluster's tracer (nil when tracing is off).
func (c *Cluster) Tracer() *trace.Tracer { return c.tracer }

// Close releases pooled and shared connections.
func (c *Cluster) Close() {
	c.pool.closeAll()
	c.mux.closeAll()
}

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

// errStaleConn marks a pooled connection that died before carrying any
// response byte: the server closed it while idle. The retry loop
// replaces it without consuming a policy attempt — the request never
// reached a live server.
var errStaleConn = errors.New("client: stale pooled connection")

// Insert stores e at all K replicas in parallel and waits for every
// reachable replica's ack, returning how many acknowledged. An error is
// returned only when no replica could be reached (partial success is the
// protocol's normal churn-tolerant mode).
func (c *Cluster) Insert(e store.Entry) (acked int, err error) {
	placements, err := c.resolver.Place(e.GUID)
	if err != nil {
		return 0, err
	}
	payload, err := wire.AppendEntry(payloadBufs.Get(128), e)
	if err != nil {
		return 0, err
	}
	// Every goroutine below is joined by wg.Wait before the payload is
	// released — the pool never sees a buffer with readers in flight.
	defer payloadBufs.Put(payload)
	opStart := time.Now()
	sp := c.tracer.StartOp("client.insert")
	opDeadline := opStart.Add(c.cfg.OpDeadline)
	defer func() {
		c.m.opInsert.ObserveSinceExemplar(opStart, sp.TraceID())
		c.tracer.FinishOp(sp, "insert", e.GUID, opStart, err)
	}()

	var wg sync.WaitGroup
	acks := make([]bool, len(placements))
	errs := make([]error, len(placements))
	for i, p := range placements {
		i, as := i, p.AS
		wg.Add(1)
		go func() {
			defer wg.Done()
			t, body, err := c.call(sp, as, wire.MsgInsert, payload, opDeadline)
			putBody(body) // an insert ack carries no payload worth keeping
			switch {
			case err != nil:
				errs[i] = fmt.Errorf("AS %d: %w", as, err)
			case t != wire.MsgInsertAck:
				errs[i] = fmt.Errorf("AS %d: unexpected frame %v", as, t)
			default:
				acks[i] = true
			}
		}()
	}
	wg.Wait()
	n := 0
	for _, ok := range acks {
		if ok {
			n++
		}
	}
	if n == 0 {
		return 0, insertFailure(e.GUID, errs)
	}
	return n, nil
}

// insertFailure explains a total insert failure. "Every replica
// rejected the write" (a cluster-wide drain) and "no replica reachable"
// (an outage) are different operator stories; the error distinguishes
// them and carries the last per-replica cause instead of a generic
// "no replica reachable".
func insertFailure(g guid.GUID, errs []error) error {
	rejected, unreachable := 0, 0
	var last error
	for _, err := range errs {
		if err == nil {
			continue
		}
		last = err
		if errors.Is(err, ErrRejected) {
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

// Lookup resolves g, walking replicas in Algorithm 1's placement order:
// a miss reply, timeout, connection error or rejection moves to the next
// replica until the per-operation deadline expires (§III-D3).
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
	opStart := time.Now()
	sp := c.tracer.StartOp("client.lookup")
	opDeadline := opStart.Add(c.cfg.OpDeadline)
	defer func() {
		c.m.opLookup.ObserveSinceExemplar(opStart, sp.TraceID())
		c.tracer.FinishOp(sp, "lookup", g, opStart, err)
	}()
	var lastErr error
	// Replica i is placed as the walk reaches it (§III-D3 asks replica
	// i+1 only once replica i failed or missed): a healthy read runs
	// Algorithm 1 once, not K times.
	for i, k := 0, c.resolver.K(); i < k; i++ {
		p, perr := c.resolver.PlaceReplica(g, i)
		if perr != nil {
			return perr
		}
		t, body, err := c.call(sp, p.AS, wire.MsgLookup, payload, opDeadline)
		if err != nil {
			lastErr = err
			if errors.Is(err, ErrDeadline) {
				break // out of budget: later replicas cannot be tried either
			}
			if i < k-1 {
				c.m.failovers.Inc()
				sp.Eventf("failover: AS %d failed: %v", p.AS, err)
				c.logger.Debug("lookup failover", "guid", g.Short(), "as", p.AS, "err", err)
			}
			continue
		}
		if t != wire.MsgLookupResp {
			putBody(body)
			lastErr = fmt.Errorf("client: unexpected frame %v", t)
			continue
		}
		found, derr := wire.DecodeLookupRespInto(e, body)
		putBody(body) // DecodeLookupRespInto copied everything it kept
		if derr != nil {
			lastErr = derr
			continue
		}
		if found {
			return nil
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

// LookupFastest queries all K replicas in parallel — the latency-optimal
// strategy when the client cannot estimate per-replica RTTs (cf.
// §III-C's simultaneous local+global lookup). It costs K network round
// trips of load instead of one.
//
// After the first positive reply it keeps collecting answers for the
// configured FreshnessWait grace (or until every replica has answered)
// and returns the highest Version seen: after a partial Update (n < K
// acks) the fastest replica may well be a stale one, and first-answer-
// wins would serve the old mapping indefinitely. Replicas that had to
// be looked past because they failed count as read-path failovers.
func (c *Cluster) LookupFastest(g guid.GUID) (entry store.Entry, err error) {
	placements, err := c.resolver.Place(g)
	if err != nil {
		return store.Entry{}, err
	}
	// Deliberately not pooled: the grace window lets LookupFastest
	// return while slow replicas' goroutines still hold the payload, so
	// recycling it here would hand the pool a buffer with live readers.
	payload := wire.AppendGUID(nil, g)
	opStart := time.Now()
	sp := c.tracer.StartOp("client.lookup_fastest")
	opDeadline := opStart.Add(c.cfg.OpDeadline)
	defer func() {
		c.m.opLookup.ObserveSinceExemplar(opStart, sp.TraceID())
		c.tracer.FinishOp(sp, "lookup_fastest", g, opStart, err)
	}()

	type answer struct {
		entry store.Entry
		found bool
		err   error
	}
	results := make(chan answer, len(placements))
	for _, p := range placements {
		as := p.AS
		go func() {
			t, body, err := c.call(sp, as, wire.MsgLookup, payload, opDeadline)
			if err != nil {
				results <- answer{err: err}
				return
			}
			if t != wire.MsgLookupResp {
				putBody(body)
				results <- answer{err: fmt.Errorf("client: unexpected frame %v", t)}
				return
			}
			resp, err := wire.DecodeLookupResp(body)
			putBody(body)
			if err != nil {
				results <- answer{err: err}
				return
			}
			results <- answer{entry: resp.Entry, found: resp.Found}
		}()
	}

	grace := c.cfg.FreshnessWait
	if grace < 0 {
		grace = 0
	}
	var (
		best     store.Entry
		found    bool
		errCount int
		lastErr  error
		timer    *time.Timer
		graceC   <-chan time.Time
	)
collect:
	for answered := 0; answered < len(placements); {
		select {
		case a := <-results:
			answered++
			if a.err != nil {
				errCount++
				lastErr = a.err
				continue
			}
			if !a.found {
				continue
			}
			if !found || a.entry.Version > best.Version {
				best, found = a.entry, true
			}
			if grace == 0 {
				break collect
			}
			if timer == nil {
				timer = time.NewTimer(grace)
				graceC = timer.C
			}
		case <-graceC:
			break collect
		}
	}
	if timer != nil {
		timer.Stop()
	}
	if found {
		// Every failed replica whose answer we had to replace with
		// another's is a read-path failover, same as the sequential walk.
		c.m.failovers.Add(int64(errCount))
		return best, nil
	}
	if errCount > 1 {
		// Mirrors Lookup: a failure on the last-resort replica is not a
		// failover, there was nowhere further to go.
		c.m.failovers.Add(int64(errCount - 1))
	}
	if lastErr != nil {
		return store.Entry{}, fmt.Errorf("%w (last error: %v)", ErrNotFound, lastErr)
	}
	return store.Entry{}, ErrNotFound
}

// Delete removes g from all replicas, returning how many held it.
func (c *Cluster) Delete(g guid.GUID) (removedCount int, err error) {
	payload := wire.AppendGUID(payloadBufs.Get(32), g)
	defer payloadBufs.Put(payload) // the replica walk below is sequential
	opStart := time.Now()
	sp := c.tracer.StartOp("client.delete")
	opDeadline := opStart.Add(c.cfg.OpDeadline)
	defer func() {
		c.m.opDelete.ObserveSinceExemplar(opStart, sp.TraceID())
		c.tracer.FinishOp(sp, "delete", g, opStart, err)
	}()
	removed := 0
	for i := 0; i < c.resolver.K(); i++ {
		p, perr := c.resolver.PlaceReplica(g, i)
		if perr != nil {
			return removed, perr
		}
		t, body, err := c.call(sp, p.AS, wire.MsgDelete, payload, opDeadline)
		existed := err == nil && t == wire.MsgDeleteAck && len(body) >= 1 && body[0] == 1
		putBody(body)
		if err != nil && errors.Is(err, ErrDeadline) {
			break
		}
		if existed {
			removed++
		}
	}
	return removed, nil
}

// Ping checks liveness of the node serving an AS.
func (c *Cluster) Ping(as int) error {
	t, body, err := c.call(nil, as, wire.MsgPing, nil, time.Now().Add(c.cfg.OpDeadline))
	putBody(body)
	if err != nil {
		return err
	}
	if t != wire.MsgPong {
		return fmt.Errorf("client: unexpected frame %v", t)
	}
	return nil
}

// call runs the retry policy for one replica: up to MaxAttempts
// round trips with exponential backoff and deterministic jitter, all
// inside the operation deadline. A stale shared/pooled connection is
// replaced without consuming an attempt (once per call) — and without
// sleeping a backoff or ticking the retries counter, since no logical
// retry happened. A MsgError reply aborts the retries — the node
// answered and said no — except for ErrKindShed, which means "too busy
// right now": that consumes an attempt and backs off on the same
// replica instead of failing over.
//
// sp is the operation's span (nil when unsampled): each round trip
// opens a child attempt span carrying the AS, attempt number and
// outcome (redial, timeout, rejection), and the attempt's context is
// what propagates to the server.
func (c *Cluster) call(sp *trace.Span, as int, t wire.MsgType, payload []byte, opDeadline time.Time) (wire.MsgType, []byte, error) {
	c.mu.RLock()
	addr, ok := c.addrs[as]
	c.mu.RUnlock()
	if !ok {
		return 0, nil, fmt.Errorf("client: no node for AS %d", as)
	}

	pol := c.cfg.Retry
	redialed := false
	var lastErr error
	attempt := 1
	for {
		remaining := time.Until(opDeadline)
		if remaining <= 0 {
			c.m.deadlines.Inc()
			sp.Eventf("deadline exceeded at AS %d", as)
			if lastErr == nil {
				return 0, nil, ErrDeadline
			}
			return 0, nil, fmt.Errorf("%w (last error: %v)", ErrDeadline, lastErr)
		}
		timeout := c.cfg.Timeout
		if timeout > remaining {
			timeout = remaining
		}

		att := sp.NewChild("attempt")
		if att != nil { // skip the arg boxing entirely when unsampled
			att.Eventf("as=%d addr=%s attempt=%d %v", as, addr, attempt, t)
		}
		attemptStart := time.Now()
		rt, body, err := c.transport(addr, t, att.Context(), payload, timeout)
		c.m.attempt.ObserveSinceExemplar(attemptStart, att.TraceID())
		if errors.Is(err, errStaleConn) && !redialed {
			// Observable replacement of a server-closed idle connection.
			// The request never reached a live server, so this consumes
			// no policy attempt, pays no backoff and counts no retry.
			redialed = true
			c.m.redials.Inc()
			att.Eventf("redial: stale connection replaced")
			att.End()
			c.logger.Debug("redial", "addr", addr, "as", as)
			continue
		}
		if err == nil {
			if rt != wire.MsgError {
				att.End()
				return rt, body, nil
			}
			kind, reason, derr := wire.DecodeErrorKind(body)
			putBody(body) // DecodeErrorKind copied the reason string
			if derr != nil {
				reason = "unreadable reason"
			}
			if kind != wire.ErrKindShed {
				// The node answered and said no for a condition that won't
				// clear by itself (draining, malformed request): abort the
				// retries so the caller fails over immediately.
				c.m.rejects.Inc()
				att.Eventf("rejected: %s", reason)
				att.End()
				return 0, nil, fmt.Errorf("%w: %s", ErrRejected, reason)
			}
			// Admission shed: the replica is healthy but saturated, and
			// unlike a drain reject the condition clears on its own.
			// Consume an attempt and back off on this replica instead of
			// failing over, which would stampede the load onto the next
			// replica and take it down too.
			c.m.sheds.Inc()
			att.Eventf("shed: %s", reason)
			err = fmt.Errorf("%w: %s", ErrOverload, reason)
		}
		var ne net.Error
		if errors.As(err, &ne) && ne.Timeout() {
			c.m.timeouts.Inc()
			att.Eventf("timeout: %v", err)
		} else if !errors.Is(err, ErrOverload) {
			att.Eventf("error: %v", err)
		}
		att.End()
		lastErr = err
		attempt++
		if attempt > pol.MaxAttempts {
			return 0, nil, lastErr
		}
		c.m.retries.Inc()
		pause := pol.Backoff(as, attempt)
		if remaining := time.Until(opDeadline); pause > remaining {
			pause = remaining
		}
		sp.Eventf("retry %d at AS %d after %v backoff", attempt, as, pause)
		if pause > 0 {
			time.Sleep(pause)
		}
	}
}

// roundTrip performs exactly one request/response attempt against addr.
// It prefers the multiplexed v2 transport — one shared pipelined
// connection per address — and falls back to the sequential v1 pool for
// peers that only speak v1 (or when ForceV1 is set). Either transport
// reports a reused connection dying underneath the request as
// errStaleConn so call can replace it without consuming an attempt.
// tc, when sampled, rides to trace-capable v2 peers; v1 peers never
// see it (the extension is v2-only by design).
func (c *Cluster) roundTrip(addr string, t wire.MsgType, tc trace.Context, payload []byte, timeout time.Duration) (wire.MsgType, []byte, error) {
	if !c.cfg.ForceV1 {
		mc, fresh, err := c.muxGet(addr, timeout)
		switch {
		case err == nil:
			if fresh {
				c.m.dials.Inc()
			}
			c.m.inflight.Add(1)
			rt, body, derr := mc.do(t, tc, payload, timeout)
			c.m.inflight.Add(-1)
			if derr != nil && errors.Is(derr, errConnDead) && !fresh {
				// The shared conn died with this request in flight; it
				// never got an answer from a live server.
				return 0, nil, fmt.Errorf("%w: %v", errStaleConn, derr)
			}
			return rt, body, derr
		case errors.Is(err, errUseV1):
			// Peer speaks v1; fall through to the sequential transport.
		default:
			return 0, nil, err
		}
	}
	return c.roundTripV1(addr, t, payload, timeout)
}

// roundTripV1 performs exactly one request/response against addr over
// the sequential v1 protocol, using a pooled connection when available.
// A pooled connection failing before any response byte yields
// errStaleConn so the caller can replace it.
func (c *Cluster) roundTripV1(addr string, t wire.MsgType, payload []byte, timeout time.Duration) (wire.MsgType, []byte, error) {
	conn, fresh, err := c.pool.get(addr, timeout)
	if err != nil {
		return 0, nil, err
	}
	if fresh {
		c.m.dials.Inc()
	}
	_ = conn.SetDeadline(time.Now().Add(timeout))
	if err := wire.WriteFrame(conn, t, payload); err != nil {
		conn.Close()
		if !fresh {
			return 0, nil, fmt.Errorf("%w: %v", errStaleConn, err)
		}
		return 0, nil, err
	}
	rt, body, err := wire.ReadFrame(conn)
	if err != nil {
		conn.Close()
		if !fresh {
			return 0, nil, fmt.Errorf("%w: %v", errStaleConn, err)
		}
		return 0, nil, err
	}
	_ = conn.SetDeadline(time.Time{})
	c.pool.put(addr, conn)
	return rt, body, nil
}

// connPool keeps one idle connection per address — enough to amortize
// dials for the sequential request/response protocol while staying
// trivially correct.
type connPool struct {
	mu   sync.Mutex
	idle map[string]net.Conn
}

// get returns a pooled connection or dials a fresh one; fresh reports
// which.
func (p *connPool) get(addr string, timeout time.Duration) (conn net.Conn, fresh bool, err error) {
	p.mu.Lock()
	if c, ok := p.idle[addr]; ok {
		delete(p.idle, addr)
		p.mu.Unlock()
		return c, false, nil
	}
	p.mu.Unlock()
	c, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, true, fmt.Errorf("client: dial %s: %w", addr, err)
	}
	return c, true, nil
}

func (p *connPool) put(addr string, conn net.Conn) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.idle == nil {
		p.idle = make(map[string]net.Conn)
	}
	if _, ok := p.idle[addr]; ok {
		conn.Close() // already one idle; drop the extra
		return
	}
	p.idle[addr] = conn
}

// idleLen reports the number of idle pooled connections.
func (p *connPool) idleLen() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.idle)
}

func (p *connPool) closeAll() {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, c := range p.idle {
		c.Close()
	}
	p.idle = nil
}
