// The dialing side of a connection (DESIGN.md §7): the handshake, and
// Conn, the one connection type every dialer uses — the cluster client's
// shared connections, the gossip sweeper and the SLO prober.
//
// A Conn pipelines identified frames: many exchanges are in flight at
// once, a reader goroutine per connection matches each reply to its
// request by ID, and one watchdog timer per connection bounds every
// wait. The request path is allocation-free in steady state (DESIGN.md
// §9): reply slots and reply payload buffers are recycled through pools,
// frames are encoded straight into the connection's coalescing writer
// (Writer), and concurrent senders' frames ride out in shared syscalls.
package wire

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"dmap/internal/trace"
)

// Handshake opens the protocol on a fresh connection, within timeout:
// MsgHello asking for Version2, under the 5-byte header, answered by
// MsgHelloAck. Every later frame on the connection is identified. There
// is no fallback: a peer that answers MsgError, or with an older
// version, has refused the connection.
func Handshake(conn net.Conn, timeout time.Duration) error {
	_ = conn.SetDeadline(time.Now().Add(timeout))
	defer conn.SetDeadline(time.Time{})
	if err := WriteFrame(conn, MsgHello, AppendHello(nil, Version2)); err != nil {
		return fmt.Errorf("wire: hello write: %w", err)
	}
	// ReadFrame takes exactly the ack's bytes off the connection, so a
	// Reader created afterwards starts at the first identified frame.
	t, body, err := ReadFrame(conn)
	if err != nil {
		return fmt.Errorf("wire: hello read: %w", err)
	}
	switch t {
	case MsgHelloAck:
		v, _, err := DecodeHelloAck(body)
		if err != nil {
			return err
		}
		if v < Version2 {
			return fmt.Errorf("wire: peer refused the hello: it speaks version %d", v)
		}
		return nil
	case MsgError:
		_, reason, _ := DecodeErrorKind(body)
		return fmt.Errorf("wire: peer refused the hello: %s", reason)
	default:
		return fmt.Errorf("wire: hello answered with %v", t)
	}
}

// ErrConnDead reports that the connection failed while the request was
// in flight or queued, or before it was started.
var ErrConnDead = errors.New("wire: connection failed")

// timeoutError is the net.Error a request gets when its deadline passes
// while the connection stays healthy.
type timeoutError struct{}

func (timeoutError) Error() string   { return "wire: request timed out" }
func (timeoutError) Timeout() bool   { return true }
func (timeoutError) Temporary() bool { return true }

// Replies recycles reply payload buffers: a Conn's reader draws each
// reply's body from it once the reply's header is parsed, and whoever
// decodes the reply hands the body back with Put (nil and foreign
// buffers are accepted, so callers can release unconditionally).
var Replies = NewBufPool(256)

// RoundTripper is one request/reply exchange with a peer at a time — a
// *Conn, or a simulated link — each bounded by timeout. The gossip
// sweeper and the SLO prober speak through it.
type RoundTripper interface {
	RoundTrip(t MsgType, payload []byte, timeout time.Duration) (MsgType, []byte, error)
}

// reply is one demuxed response. A non-nil body is pool-owned.
type reply struct {
	t    MsgType
	body []byte
	err  error
}

// Pending is one request in flight: the rendezvous between its sender
// and whoever claims it — the reader with the reply, the watchdog with a
// timeout, or the connection's failure. Pendings are pooled; the
// buffered channel is made once per Pending and reused for its whole
// life. A Pending belongs to its sender until Wait hands it back.
type Pending struct {
	ch       chan reply
	id       uint64
	deadline time.Time
}

var pendingPool = sync.Pool{
	New: func() any { return &Pending{ch: make(chan reply, 1)} },
}

// Wait takes the request's reply — the answer, the watchdog's timeout or
// the connection's death, whichever claimed it first — and recycles the
// Pending. The body, when non-nil, is the caller's: Replies.Put hands it
// back to the pool once it is decoded.
func (p *Pending) Wait() (MsgType, []byte, error) {
	r := <-p.ch
	pendingPool.Put(p)
	return r.t, r.body, r.err
}

// Conn is a connection past its handshake. It is safe for concurrent
// use: writes are coalesced through w, and replies are matched to their
// requests through the in-flight table by the reader goroutine.
type Conn struct {
	conn net.Conn
	w    *Writer
	stop func() bool   // detaches the connection from its context
	done chan struct{} // closed when the reader has exited

	mu       sync.Mutex
	nextID   uint64
	inflight map[uint64]*Pending
	// watch is the connection's one timer (expire), armed for next, the
	// earliest deadline in flight, or stopped when next is zero.
	watch  *time.Timer
	next   time.Time
	closed bool
	err    error // first connection-level failure
}

// Dial connects to addr and performs the handshake, both within
// timeout. The connection lives no longer than ctx: when ctx is done it
// fails, which fails the dial, the handshake or every exchange in
// progress, so whoever owns ctx never waits out a silent peer.
func Dial(ctx context.Context, addr string, timeout time.Duration) (*Conn, error) {
	d := net.Dialer{Timeout: timeout}
	conn, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("wire: dial %s: %w", addr, err)
	}
	return NewConn(ctx, conn, timeout)
}

// NewConn performs the handshake on conn, a connection the caller
// dialed, within timeout, and starts the reader; Dial is net's dial and
// NewConn. conn is the Conn's from here on, closed on failure too, and
// lives no longer than ctx. Every write must finish within timeout as
// well. A request's own deadline is the watchdog's, never the writer's:
// a sender descheduled past a short one would otherwise fail its write
// and, with it, the connection every request shares.
func NewConn(ctx context.Context, conn net.Conn, timeout time.Duration) (*Conn, error) {
	c := &Conn{conn: conn, done: make(chan struct{}), inflight: make(map[uint64]*Pending)}
	c.w = NewWriter(conn, c.fail)
	c.w.SetTimeout(timeout)
	c.watch = time.AfterFunc(time.Hour, c.expire)
	c.watch.Stop() // until register arms it
	c.stop = context.AfterFunc(ctx, func() { c.fail(context.Cause(ctx)) })
	if err := Handshake(conn, timeout); err != nil {
		c.stop()
		c.fail(err)
		return nil, err
	}
	go c.readLoop()
	return c, nil
}

// Close fails the connection and returns once its reader has exited.
func (c *Conn) Close() error {
	c.stop()
	c.fail(net.ErrClosed)
	<-c.done
	return nil
}

// Dead reports whether the connection has failed.
func (c *Conn) Dead() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.closed
}

// fail marks the connection dead, stops its watchdog and fails every
// request in flight; the first error wins. Safe to call from the reader,
// from senders, from the Writer's onFail hook and from the context.
func (c *Conn) fail(err error) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	c.closed = true
	c.err = err
	c.watch.Stop()
	pending := c.inflight
	c.inflight = nil
	c.mu.Unlock()
	c.conn.Close()
	for _, p := range pending {
		p.ch <- reply{err: fmt.Errorf("%w: %v", ErrConnDead, err)}
	}
}

// register allocates a request ID and claims a pooled Pending whose
// deadline is began+timeout, re-arming the watchdog only if that is the
// earliest: for timeout from now, no earlier than the deadline, with no
// clock read.
func (c *Conn) register(began time.Time, timeout time.Duration) (*Pending, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil, fmt.Errorf("%w: %v", ErrConnDead, c.err)
	}
	c.nextID++
	p := pendingPool.Get().(*Pending)
	p.id, p.deadline = c.nextID, began.Add(timeout)
	c.inflight[p.id] = p
	if c.next.IsZero() || p.deadline.Before(c.next) {
		c.next = p.deadline
		c.watch.Reset(timeout)
	}
	return p, nil
}

// expire is the watchdog: it claims every request whose deadline has
// passed and fails it with timeoutError — under c.mu, since the send
// cannot block (a claimed Pending gets exactly one reply, into room for
// one) — then re-arms for the earliest deadline left. A reply that comes
// after finds its request claimed and is dropped by the reader.
func (c *Conn) expire() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return
	}
	now := time.Now()
	c.next = time.Time{}
	for id, p := range c.inflight {
		if !now.Before(p.deadline) {
			delete(c.inflight, id)
			p.ch <- reply{err: timeoutError{}}
		} else if c.next.IsZero() || p.deadline.Before(c.next) {
			c.next = p.deadline
		}
	}
	if !c.next.IsZero() {
		c.watch.Reset(c.next.Sub(now))
	}
}

// claim takes request id out of the in-flight table. Nil means somebody
// else — the reader, the watchdog, fail — already has: a sender that
// gets nil is guaranteed a reply and must drain it before recycling.
func (c *Conn) claim(id uint64) *Pending {
	c.mu.Lock()
	p := c.inflight[id]
	delete(c.inflight, id)
	c.mu.Unlock()
	return p
}

// readLoop demuxes replies until the connection fails. Each payload is
// copied out of the connection's Reader into a pooled buffer — drawn
// once the reply's header is parsed, so an idle connection holds none —
// that travels with the reply.
func (c *Conn) readLoop() {
	defer close(c.done)
	rd := NewReader(c.conn)
	for {
		t, id, body, err := rd.Next(func(_ MsgType, n int) []byte { return Replies.Get(n) })
		if err != nil {
			c.fail(err)
			return
		}
		p := c.claim(id)
		if p == nil {
			// A reply nobody waits for belonged to a timed-out request.
			Replies.Put(body)
			continue
		}
		p.ch <- reply{t: t, body: body}
	}
}

// Start registers a request and hands its frame to the connection's
// writer, carrying tc when it is sampled; it never waits for the reply.
// The payload is copied before Start returns. The request times out at
// began+timeout.
func (c *Conn) Start(t MsgType, tc trace.Context, payload []byte, began time.Time, timeout time.Duration) (*Pending, error) {
	return c.start(t, tc, payload, began, timeout, false)
}

// Enqueue is Start without the write: the frame waits in the writer for
// a Flush, which the caller owes the connection before it waits on the
// reply. A failed Flush reaches the request through its Pending.
func (c *Conn) Enqueue(t MsgType, tc trace.Context, payload []byte, began time.Time, timeout time.Duration) (*Pending, error) {
	return c.start(t, tc, payload, began, timeout, true)
}

// Flush writes out the frames Enqueue left pending.
func (c *Conn) Flush() error { return c.w.Flush() }

func (c *Conn) start(t MsgType, tc trace.Context, payload []byte, began time.Time, timeout time.Duration, cork bool) (*Pending, error) {
	p, err := c.register(began, timeout)
	if err != nil {
		return nil, err
	}
	var werr error
	if cork {
		werr = c.w.Enqueue(t, p.id, tc, payload)
	} else {
		werr = c.w.WriteFrameIDTrace(t, p.id, tc, payload)
	}
	if werr == nil {
		return p, nil
	}
	// A frame too large was never written; any other failure, whole or
	// partial, desynchronizes the stream for every request on the
	// connection: kill it (the writer's onFail may have already).
	if !errors.Is(werr, ErrFrameTooLarge) {
		c.fail(werr)
		werr = fmt.Errorf("%w: %v", ErrConnDead, werr)
	}
	if c.claim(p.id) == nil {
		r := <-p.ch // fail got there first
		Replies.Put(r.body)
	}
	pendingPool.Put(p)
	return nil, werr
}

// RoundTrip is one whole exchange: Start, then Wait. The body is the
// caller's, as Wait's is.
func (c *Conn) RoundTrip(t MsgType, payload []byte, timeout time.Duration) (MsgType, []byte, error) {
	p, err := c.Start(t, trace.Context{}, payload, time.Now(), timeout)
	if err != nil {
		return 0, nil, err
	}
	return p.Wait()
}
