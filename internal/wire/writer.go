// Writer: a coalescing, allocation-free frame writer for multiplexed
// connections.
//
// Many goroutines enqueue frames concurrently; whichever goroutine
// finds no flush in progress becomes the flusher. Before its first
// Write it yields the processor once, so every goroutine that is
// already runnable — the other workers of a pipelined burst, the other
// callers sharing a client connection — appends its frame first; then
// it drains the pending buffer in a small loop, so frames enqueued
// while a syscall is in flight ride out together on the next one —
// writev-style coalescing without platform-specific syscalls. The
// flush waits for work that exists, never for time: there is no timer
// and no flush interval, and with nothing else runnable the yield
// returns at once. So under no contention a frame is still exactly one
// Write, issued by the goroutine that enqueued it before WriteFrameID
// returns; under contention N frames collapse into far fewer syscalls
// than N, on one processor as well as on many. A goroutine that knows
// its own burst (a read loop answering one read's frames, a caller
// starting a frame per replica) Enqueues each frame and Flushes once.
// Two persistent buffers ping-pong between "being appended to" and
// "being written", so the steady state allocates nothing.
package wire

import (
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"dmap/internal/trace"
)

// Writer serializes and coalesces frame writes to one connection. It is
// safe for concurrent use. Create with NewWriter.
type Writer struct {
	conn net.Conn
	// onFail, when set, is called exactly once with the first write
	// error. It runs outside the Writer's lock, so it may close the
	// connection or fail in-flight requests without deadlocking.
	onFail func(error)
	// timeout, when positive, is applied as a write deadline before
	// each flush syscall (stored as nanoseconds).
	timeout atomic.Int64

	mu       sync.Mutex
	pending  []byte // frames waiting for the flusher
	spare    []byte // the flusher's swap buffer
	flushing bool
	err      error // first write error; sticky
}

// NewWriter returns a Writer for conn. onFail (optional) observes the
// first write error — a partial frame write desynchronizes the stream
// for every user of the connection, so the callback should kill it. A
// TCP connection is written with raw write(2)s (sock_linux.go).
func NewWriter(conn net.Conn, onFail func(error)) *Writer {
	return &Writer{conn: raw(conn), onFail: onFail}
}

// SetTimeout sets the per-flush write deadline. Zero or negative
// disables it. Concurrent callers race benignly: some flush gets some
// caller's deadline, which is all a shared connection can promise.
func (w *Writer) SetTimeout(d time.Duration) { w.timeout.Store(int64(d)) }

// WriteFrameID enqueues one identified frame and flushes the pending
// buffer unless another goroutine is already doing so. A nil return
// means the frame was queued on a healthy connection — not that it
// reached the kernel; if a later flush fails, onFail fires and every
// queued frame dies with the connection.
func (w *Writer) WriteFrameID(t MsgType, id uint64, payload []byte) error {
	return w.WriteFrameIDTrace(t, id, trace.Context{}, payload)
}

// WriteFrameIDTrace is WriteFrameID for a frame that may be traced:
// Enqueue, then Flush with the one yield in between.
func (w *Writer) WriteFrameIDTrace(t MsgType, id uint64, tc trace.Context, payload []byte) error {
	if err := w.Enqueue(t, id, tc, payload); err != nil {
		return err
	}
	return w.flush(true)
}

// Enqueue appends one identified frame — traced (TraceBit set, payload
// prefixed with tc) when tc is sampled — and leaves it there: the caller
// owes the connection a Flush before it blocks on anything the peer does
// in answer. One goroutine
// enqueues a burst of frames this way, on one connection or across
// several, and pays for one Write per connection.
func (w *Writer) Enqueue(t MsgType, id uint64, tc trace.Context, payload []byte) (err error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.err != nil {
		return w.err
	}
	p := w.pending
	if tc.Sampled {
		p, err = AppendFrameIDTrace(p, t, id, tc, payload)
	} else {
		p, err = AppendFrameID(p, t, id, payload)
	}
	if err == nil {
		w.pending = p
	}
	return err
}

// Flush writes out what is pending unless a flusher is active — the
// frames then ride its next Write — or nothing is. It never yields: who
// enqueued a burst has already gathered what it meant to send together.
func (w *Writer) Flush() error { return w.flush(false) }

// flush makes this goroutine the flusher unless one is active or nothing
// is pending: asked to yield, it first lets every runnable goroutine
// append (they see flushing set and return at once), then it writes
// until the pending buffer stays empty.
func (w *Writer) flush(yield bool) error {
	w.mu.Lock()
	if w.flushing || len(w.pending) == 0 {
		err := w.err
		w.mu.Unlock()
		return err
	}
	w.flushing = true
	if yield {
		w.mu.Unlock()
		runtime.Gosched()
		w.mu.Lock()
	}
	var failed error
	for w.err == nil && len(w.pending) > 0 {
		w.pending, w.spare = w.spare[:0], w.pending
		buf := w.spare
		w.mu.Unlock()
		if d := time.Duration(w.timeout.Load()); d > 0 {
			_ = w.conn.SetWriteDeadline(time.Now().Add(d))
		}
		_, werr := w.conn.Write(buf)
		w.mu.Lock()
		if werr != nil && w.err == nil {
			w.err = werr
			failed = werr
		}
	}
	w.flushing = false
	err := w.err
	w.mu.Unlock()
	if failed != nil && w.onFail != nil {
		// Only the flusher that recorded the error reports it, so onFail
		// fires exactly once.
		w.onFail(failed)
	}
	return err
}

// Err returns the sticky write error, if any.
func (w *Writer) Err() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.err
}
