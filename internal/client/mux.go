// The transport: one shared connection per node address, pipelined
// identified frames, a demux reader goroutine per connection. Concurrent
// callers to the same AS enqueue on the shared connection; none of them
// pays a dial of its own.
//
// The request path is allocation-free in steady state (DESIGN.md §9):
// reply slots in the in-flight table and response payload buffers are
// recycled through pools, one watchdog timer per connection bounds every
// wait, frames are encoded straight into the connection's coalescing
// writer (wire.Writer), and concurrent senders' frames ride out in shared
// syscalls.
package client

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"dmap/internal/trace"
	"dmap/internal/wire"
)

// errConnDead reports that the shared connection failed while the
// request was in flight or queued. The caller maps it to errStaleConn
// when the connection was not freshly dialed for this request.
var errConnDead = errors.New("client: multiplexed connection failed")

// timeoutError is the net.Error returned when a request's deadline
// passes while the shared connection stays healthy.
type timeoutError struct{}

func (timeoutError) Error() string   { return "client: request timed out on multiplexed connection" }
func (timeoutError) Timeout() bool   { return true }
func (timeoutError) Temporary() bool { return true }

// replyBufs recycles response payload buffers between the demux readers
// (producers) and the operations that decode the responses (consumers).
// Ops hand bodies back through putBody once decoding is done.
var replyBufs = wire.NewBufPool(256)

// payloadBufs recycles request payload buffers for the op layer.
var payloadBufs = wire.NewBufPool(256)

// putBody releases a response body obtained from a transport round
// trip. Nil and foreign buffers (test transports) are accepted, so ops
// can release unconditionally. The caller must be completely done with
// the body — decoding copies, so nothing decoded from it is at risk.
func putBody(b []byte) { replyBufs.Put(b) }

// muxReply is one demuxed response. A non-nil body is pool-owned and
// must be released with putBody by whoever consumes the reply.
type muxReply struct {
	t    wire.MsgType
	body []byte
	err  error
}

// muxSlot is one reusable in-flight table slot: the rendezvous between
// a requester and whoever claims the slot — the demux reader with the
// reply, the watchdog with a timeout, or fail. Slots are pooled — the
// buffered channel is created once per slot and reused for the slot's
// whole lifetime, replacing the per-request channel allocation the
// in-flight table used to pay. A slot belongs to whoever started its
// request until wait hands it back to the pool.
type muxSlot struct {
	ch chan muxReply
	// The request the slot carries, set by start.
	m        *muxConn
	id       uint64
	deadline time.Time
	fresh    bool
}

// deferred is the pending reply of an attempt that runs beside the
// caller (roundTrip); such an attempt times itself out.
type deferred chan muxReply

func (d deferred) Wait() (wire.MsgType, []byte, error) {
	r := <-d
	return r.t, r.body, r.err
}

// staleUnless maps a connection's death under a request to errStaleConn
// unless the connection was dialed for that very request: on a reused
// one the request never got an answer from a live server, and settle
// replaces the connection without consuming a try.
func staleUnless(fresh bool, err error) error {
	if fresh || !errors.Is(err, errConnDead) {
		return err
	}
	return fmt.Errorf("%w: %w", errStaleConn, err)
}

var slotPool = sync.Pool{
	New: func() any { return &muxSlot{ch: make(chan muxReply, 1)} },
}

// muxConn is one shared connection: writes are coalesced through w,
// responses are matched to callers through the in-flight table by the
// reader goroutine.
type muxConn struct {
	conn net.Conn
	// w coalesces concurrent frame writes into shared syscalls; its
	// onFail hook kills the connection on the first write error.
	w *wire.Writer
	// feat holds the hello-negotiated feature flags; FeatTrace set means
	// the server accepts trace-prefixed frames on this connection.
	feat byte

	mu       sync.Mutex
	nextID   uint64
	inflight map[uint64]*muxSlot
	// watch is the connection's one timer (expire), armed for next, the
	// earliest deadline in flight, or stopped when next is zero.
	watch  *time.Timer
	next   time.Time
	closed bool
	err    error // first connection-level failure
}

func newMuxConn(conn net.Conn, feat byte) *muxConn {
	m := &muxConn{conn: conn, feat: feat, inflight: make(map[uint64]*muxSlot)}
	m.w = wire.NewWriter(conn, m.fail)
	m.watch = time.AfterFunc(time.Hour, m.expire)
	m.watch.Stop() // until register arms it
	return m
}

// register allocates a request ID and claims a pooled reply slot whose
// deadline is began+timeout, re-arming the watchdog only if that is the
// earliest: for timeout from now, no earlier than the deadline, with no
// clock read.
func (m *muxConn) register(began time.Time, timeout time.Duration) (*muxSlot, error) {
	m.mu.Lock()
	if m.closed {
		err := m.err
		m.mu.Unlock()
		return nil, fmt.Errorf("%w: %v", errConnDead, err)
	}
	m.nextID++
	s := slotPool.Get().(*muxSlot)
	s.m, s.id, s.deadline = m, m.nextID, began.Add(timeout)
	m.inflight[s.id] = s
	if m.next.IsZero() || s.deadline.Before(m.next) {
		m.next = s.deadline
		m.watch.Reset(timeout)
	}
	m.mu.Unlock()
	return s, nil
}

// expire is the watchdog: it claims every slot whose deadline has passed
// and fails it with timeoutError — under m.mu, since the send cannot
// block (a claimed slot gets exactly one, into room for one) — then
// re-arms for the earliest deadline left. A reply that comes after finds
// its slot claimed and is dropped by the reader.
func (m *muxConn) expire() {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return
	}
	now := time.Now()
	m.next = time.Time{}
	for id, s := range m.inflight {
		if !now.Before(s.deadline) {
			delete(m.inflight, id)
			s.ch <- muxReply{err: timeoutError{}}
		} else if m.next.IsZero() || s.deadline.Before(m.next) {
			m.next = s.deadline
		}
	}
	if !m.next.IsZero() {
		m.watch.Reset(m.next.Sub(now))
	}
}

// claim takes request id's slot out of the in-flight table. Nil means
// somebody else — the reader, the watchdog, fail, or a requester whose
// write failed — already has: a requester that gets nil is guaranteed a
// reply send and must drain the slot's channel before recycling it.
func (m *muxConn) claim(id uint64) *muxSlot {
	m.mu.Lock()
	s := m.inflight[id]
	delete(m.inflight, id)
	m.mu.Unlock()
	return s
}

// dead reports whether the connection has failed.
func (m *muxConn) dead() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.closed
}

// fail marks the connection dead, stops its watchdog and fails every
// in-flight request; the first error wins. Safe to call from the reader,
// from writers and from the coalescing writer's onFail hook.
func (m *muxConn) fail(err error) {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return
	}
	m.closed = true
	m.err = err
	m.watch.Stop()
	pending := m.inflight
	m.inflight = nil
	m.mu.Unlock()
	m.conn.Close()
	for _, s := range pending {
		s.ch <- muxReply{err: fmt.Errorf("%w: %v", errConnDead, err)}
	}
}

// readLoop demuxes responses until the connection fails. Each payload
// is copied out of the connection's reader into a pooled buffer — drawn
// once the reply's header is parsed, so an idle connection holds none —
// that travels with the reply; the consuming op releases it after
// decoding.
func (m *muxConn) readLoop() {
	rd := wire.NewReader(m.conn)
	for {
		t, id, body, err := rd.Next(func(_ wire.MsgType, n int) []byte { return replyBufs.Get(n) })
		if err != nil {
			m.fail(err)
			return
		}
		s := m.claim(id)
		if s == nil {
			// A reply nobody waits for belonged to a timed-out request.
			replyBufs.Put(body)
			continue
		}
		s.ch <- muxReply{t: t, body: body}
	}
}

// start registers a reply slot and hands the frame to the connection's
// coalescing writer; it never waits for the reply. A sampled trace
// context is prefixed onto the frame when the server negotiated
// FeatTrace; otherwise the context is dropped silently (the client's
// own span still records the attempt). The payload is copied into the
// writer before start returns. The request times out at began+timeout.
// fresh: m was dialed for this request.
func (m *muxConn) start(t wire.MsgType, tc trace.Context, payload []byte, began time.Time, timeout time.Duration, fresh bool) (Reply, error) {
	return m.begin(t, tc, payload, began, timeout, fresh, false)
}

// begin is start or, corked, start without the write: the frame is only
// enqueued, for its set's flush; a failed flush reaches it through its slot.
func (m *muxConn) begin(t wire.MsgType, tc trace.Context, payload []byte, began time.Time, timeout time.Duration, fresh, cork bool) (Reply, error) {
	s, err := m.register(began, timeout)
	if err != nil {
		return nil, staleUnless(fresh, err)
	}
	s.fresh = fresh
	m.w.SetTimeout(timeout)
	if m.feat&wire.FeatTrace == 0 {
		tc = trace.Context{}
	}
	var werr error
	if cork {
		werr = m.w.Enqueue(t, s.id, tc, payload)
	} else {
		werr = m.w.WriteFrameIDTrace(t, s.id, tc, payload)
	}
	if werr != nil {
		// A failed or partial write desynchronizes the stream for every
		// user of the connection, not just this request. The writer's
		// onFail hook has already killed the connection; claim the slot
		// back (draining the error reply if fail got there first).
		m.fail(werr)
		if m.claim(s.id) == nil {
			r := <-s.ch
			putBody(r.body)
		}
		slotPool.Put(s)
		return nil, staleUnless(fresh, fmt.Errorf("%w: %v", errConnDead, werr))
	}
	return s, nil
}

// Wait takes the reply of the request s carries — the answer, the
// watchdog's timeout or the connection's death, whichever claimed the
// slot first — and recycles the slot. The body, when non-nil, is
// pool-owned: release it with putBody after decoding.
func (s *muxSlot) Wait() (wire.MsgType, []byte, error) {
	r := <-s.ch
	err := staleUnless(s.fresh, r.err)
	slotPool.Put(s)
	return r.t, r.body, err
}

// muxEntry is the per-address slot: at most one live muxConn, with the
// entry mutex single-flighting the dial+handshake so a burst of callers
// against a cold address performs one handshake, not N.
type muxEntry struct {
	mu   sync.Mutex // held across a dial; conn is written under it
	conn atomic.Pointer[muxConn]
}

// muxTable routes addresses to shared connections. It remembers nothing
// else about an address: a node that refused a hello and was upgraded
// in place is picked up by the next dial.
type muxTable struct {
	mu      sync.Mutex
	entries map[string]*muxEntry
}

func (tb *muxTable) entry(addr string) *muxEntry {
	tb.mu.Lock()
	defer tb.mu.Unlock()
	if tb.entries == nil {
		tb.entries = make(map[string]*muxEntry)
	}
	e, ok := tb.entries[addr]
	if !ok {
		e = &muxEntry{}
		tb.entries[addr] = e
	}
	return e
}

// live returns addr's shared connection if it is up. It never blocks,
// not on a dial in progress either.
func (tb *muxTable) live(addr string) *muxConn {
	tb.mu.Lock()
	e := tb.entries[addr]
	tb.mu.Unlock()
	if e != nil {
		if mc := e.conn.Load(); mc != nil && !mc.dead() {
			return mc
		}
	}
	return nil
}

func (tb *muxTable) closeAll() {
	tb.mu.Lock()
	entries := tb.entries
	tb.entries = nil
	tb.mu.Unlock()
	for _, e := range entries {
		e.mu.Lock()
		if mc := e.conn.Swap(nil); mc != nil {
			mc.fail(net.ErrClosed)
		}
		e.mu.Unlock()
	}
}

// liveConns counts healthy shared connections (the client.mux.conns
// gauge).
func (tb *muxTable) liveConns() int {
	tb.mu.Lock()
	entries := make([]*muxEntry, 0, len(tb.entries))
	for _, e := range tb.entries {
		entries = append(entries, e)
	}
	tb.mu.Unlock()
	n := 0
	for _, e := range entries {
		if mc := e.conn.Load(); mc != nil && !mc.dead() {
			n++
		}
	}
	return n
}

// muxGet returns the live shared connection for addr, dialing and
// handshaking one if needed. fresh reports a new dial. A previously
// live connection found dead is cleared and reported as errStaleConn so
// the retry loop replaces it observably.
func (c *Cluster) muxGet(addr string, timeout time.Duration) (mc *muxConn, fresh bool, err error) {
	e := c.mux.entry(addr)
	e.mu.Lock()
	defer e.mu.Unlock()
	if mc := e.conn.Load(); mc != nil {
		if !mc.dead() {
			return mc, false, nil
		}
		e.conn.Store(nil)
		return nil, false, fmt.Errorf("%w: shared connection died idle", errStaleConn)
	}
	conn, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, true, fmt.Errorf("client: dial %s: %w", addr, err)
	}
	// Only a tracing client asks for the trace extension; the server
	// grants the intersection.
	var wantFeat byte
	if c.tracer != nil {
		wantFeat = wire.FeatTrace
	}
	feat, err := wire.Handshake(conn, timeout, wantFeat)
	if err != nil {
		conn.Close()
		return nil, true, fmt.Errorf("client: %s: %w", addr, err)
	}
	mc = newMuxConn(conn, feat)
	e.conn.Store(mc)
	go mc.readLoop()
	return mc, true, nil
}
