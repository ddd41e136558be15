package wire

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dmap/internal/trace"
)

// atProcs runs f at GOMAXPROCS 1 and 4. The Writer's flush policy is
// scheduler-dependent: on one P nothing appends while a Write is in
// flight, so coalescing rests on the flusher's yield alone; on several
// Ps appenders and the flusher truly overlap.
func atProcs(t *testing.T, f func(t *testing.T)) {
	for _, procs := range []int{1, 4} {
		t.Run(fmt.Sprintf("procs=%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			f(t)
		})
	}
}

// countingConn counts the Write calls that reach the connection: each is
// one write(2) on a TCP socket.
type countingConn struct {
	net.Conn
	writes atomic.Int64
}

func (c *countingConn) Write(b []byte) (int, error) {
	c.writes.Add(1)
	return c.Conn.Write(b)
}

// tcpPair returns the two ends of a loopback TCP connection.
func tcpPair(t *testing.T) (dialed, accepted net.Conn) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	dialed, err = net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	accepted, err = ln.Accept()
	if err != nil {
		dialed.Close()
		t.Fatal(err)
	}
	t.Cleanup(func() { dialed.Close(); accepted.Close() })
	return dialed, accepted
}

// TestWriterLoneFrameIsFlushed is the liveness property a deferred flush
// can break: one frame from one goroutine reaches the peer with no
// further call on the Writer to push it out, in exactly one Write.
func TestWriterLoneFrameIsFlushed(t *testing.T) {
	atProcs(t, func(t *testing.T) {
		c, peer := tcpPair(t)
		cc := &countingConn{Conn: c}
		w := NewWriter(cc, nil)
		for i := uint64(1); i <= 3; i++ {
			if err := w.WriteFrameID(MsgLookup, i, []byte("alone")); err != nil {
				t.Fatal(err)
			}
			if n := cc.writes.Load(); n != int64(i) {
				t.Fatalf("frame %d: %d Writes issued by the time WriteFrameID returned, want %d", i, n, i)
			}
			_ = peer.SetReadDeadline(time.Now().Add(5 * time.Second))
			_, id, body, err := ReadFrameIDInto(peer, nil)
			if err != nil || id != i || string(body) != "alone" {
				t.Fatalf("frame %d stranded: peer read (id %d, %q, %v)", i, id, body, err)
			}
		}
	})
}

// TestWriterCoalescesOnOneP: 16 goroutines × 1,000 frames over a real
// socket at GOMAXPROCS=1, where no goroutine can append while a Write is
// in flight. Before the flusher yielded, this averaged 1–4 frames per
// Write; the yield lets every runnable writer append first.
func TestWriterCoalescesOnOneP(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const writers, perWriter = 16, 1000
	c, peer := tcpPair(t)
	cc := &countingConn{Conn: c}
	w := NewWriter(cc, nil)
	read := make(chan error, 1)
	go func() {
		rd := NewReader(peer)
		seen := make(map[uint64]bool, writers*perWriter)
		for len(seen) < writers*perWriter {
			typ, id, body, err := rd.Next(freshBuf)
			if err != nil {
				read <- err
				return
			}
			if typ != MsgLookup || seen[id] || string(body) != fmt.Sprint(id) {
				read <- fmt.Errorf("frame (%v, %d, %q) torn or repeated", typ, id, body)
				return
			}
			seen[id] = true
		}
		read <- nil
	}()
	var wg sync.WaitGroup
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				id := uint64(g*perWriter + i)
				if err := w.WriteFrameID(MsgLookup, id, []byte(fmt.Sprint(id))); err != nil {
					t.Errorf("WriteFrameID(%d): %v", id, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if err := <-read; err != nil {
		t.Fatal(err)
	}
	perWrite := float64(writers*perWriter) / float64(cc.writes.Load())
	t.Logf("%d frames in %d Writes: %.1f frames per Write", writers*perWriter, cc.writes.Load(), perWrite)
	if perWrite < 8 {
		t.Fatalf("%.1f frames per Write at GOMAXPROCS=1, want >= 8", perWrite)
	}
}

// TestWriterConcurrent drives many goroutines through one coalescing
// Writer and checks that every frame arrives intact: coalescing must
// only batch whole frames, never interleave or tear them.
func TestWriterConcurrent(t *testing.T) {
	const writers, perWriter = 8, 200
	client, server := net.Pipe()
	defer client.Close()
	defer server.Close()

	w := NewWriter(client, nil)
	got := make(map[uint64]string, writers*perWriter)
	done := make(chan error, 1)
	go func() {
		r := bufio.NewReader(server)
		for i := 0; i < writers*perWriter; i++ {
			typ, id, payload, err := ReadFrameIDInto(r, nil)
			if err != nil {
				done <- err
				return
			}
			if typ != MsgLookup {
				done <- fmt.Errorf("frame %d: type %v", i, typ)
				return
			}
			got[id] = string(payload)
		}
		done <- nil
	}()

	var wg sync.WaitGroup
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				id := uint64(g*perWriter + i)
				payload := []byte(fmt.Sprintf("frame-%d", id))
				if err := w.WriteFrameID(MsgLookup, id, payload); err != nil {
					t.Errorf("WriteFrameID(%d): %v", id, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	for id := uint64(0); id < writers*perWriter; id++ {
		if want := fmt.Sprintf("frame-%d", id); got[id] != want {
			t.Fatalf("frame %d payload = %q, want %q", id, got[id], want)
		}
	}
}

// TestWriterPayloadNotRetained proves the ownership contract: the
// payload is serialized into the Writer's own pending buffer before
// WriteFrameID returns, so the caller may recycle it immediately even
// if the flush happens later.
func TestWriterPayloadNotRetained(t *testing.T) {
	client, server := net.Pipe()
	defer client.Close()
	defer server.Close()

	// Signal when the flush reaches conn.Write: by then the payload has
	// been serialized into the Writer's pending buffer, and the pipe is
	// unbuffered so the frame itself is still in flight.
	serialized := make(chan struct{})
	w := NewWriter(&signalConn{Conn: client, entered: serialized}, nil)
	payload := []byte("do not retain me")
	errc := make(chan error, 1)
	go func() { errc <- w.WriteFrameID(MsgInsert, 7, payload) }()

	<-serialized
	for i := range payload {
		payload[i] = 0xFF
	}

	_, id, body, err := ReadFrameIDInto(server, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
	if id != 7 || string(body) != "do not retain me" {
		t.Fatalf("frame = id %d payload %q; caller's buffer aliased", id, body)
	}
}

// signalConn closes entered the first time Write is called.
type signalConn struct {
	net.Conn
	entered chan struct{}
	once    sync.Once
}

func (c *signalConn) Write(b []byte) (int, error) {
	c.once.Do(func() { close(c.entered) })
	return c.Conn.Write(b)
}

// failConn fails every Write after the first n.
type failConn struct {
	net.Conn
	allowed atomic.Int64
}

var errInjected = errors.New("injected write failure")

func (c *failConn) Write(b []byte) (int, error) {
	if c.allowed.Add(-1) < 0 {
		return 0, errInjected
	}
	return len(b), nil
}

type discardConn struct{ net.Conn }

func (discardConn) Write(b []byte) (int, error)      { return len(b), nil }
func (discardConn) SetWriteDeadline(time.Time) error { return nil }
func (discardConn) Close() error                     { return nil }

func TestWriterErrorStickyAndOnFailOnce(t *testing.T) {
	atProcs(t, testWriterErrorStickyAndOnFailOnce)
}

func testWriterErrorStickyAndOnFailOnce(t *testing.T) {
	var fails atomic.Int64
	conn := &failConn{Conn: discardConn{}}
	conn.allowed.Store(1)
	w := NewWriter(conn, func(error) { fails.Add(1) })

	if err := w.WriteFrameID(MsgPing, 1, nil); err != nil {
		t.Fatalf("first write: %v", err)
	}
	// Hammer the broken connection from several goroutines: exactly one
	// flusher records the error and fires onFail; a frame queued behind
	// the yielding flusher may still be accepted (nil: queued on a then
	// healthy connection), but once a caller has seen the error every
	// later call of its own must see it too.
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			failed := false
			for i := 0; i < 50; i++ {
				err := w.WriteFrameID(MsgPing, 2, nil)
				if failed && !errors.Is(err, errInjected) {
					t.Errorf("write after a failed write = %v, want sticky error", err)
				}
				failed = failed || err != nil
			}
		}()
	}
	wg.Wait()
	if !errors.Is(w.Err(), errInjected) {
		t.Fatalf("sticky err = %v", w.Err())
	}
	if err := w.WriteFrameID(MsgPing, 3, nil); !errors.Is(err, errInjected) {
		t.Fatalf("write after failure = %v, want sticky error", err)
	}
	if n := fails.Load(); n != 1 {
		t.Fatalf("onFail fired %d times, want exactly 1", n)
	}
}

// TestWriterEnqueueThenFlush: Enqueue writes nothing, however many
// frames; the one Flush that follows is exactly one Write carrying them
// all, traced and plain alike, and a Flush with nothing pending is none.
func TestWriterEnqueueThenFlush(t *testing.T) {
	atProcs(t, func(t *testing.T) {
		const frames = 40
		c, peer := tcpPair(t)
		cc := &countingConn{Conn: c}
		w := NewWriter(cc, nil)
		tc := trace.Context{Trace: 3, Span: 4, Sampled: true}
		for i := uint64(0); i < frames; i++ {
			ctx := trace.Context{}
			if i%4 == 0 {
				ctx = tc
			}
			if err := w.Enqueue(MsgLookup, i, ctx, []byte(fmt.Sprint(i))); err != nil {
				t.Fatal(err)
			}
		}
		runtime.Gosched() // nobody else may flush them either
		if n := cc.writes.Load(); n != 0 {
			t.Fatalf("%d Writes after %d Enqueues and no Flush, want 0", n, frames)
		}
		for i := 0; i < 2; i++ { // the second Flush finds nothing pending
			if err := w.Flush(); err != nil {
				t.Fatal(err)
			}
			if n := cc.writes.Load(); n != 1 {
				t.Fatalf("%d Writes after %d Enqueues and %d Flush, want 1", n, frames, i+1)
			}
		}
		_ = peer.SetReadDeadline(time.Now().Add(5 * time.Second))
		rd := NewReader(peer)
		for i := uint64(0); i < frames; i++ {
			typ, id, body, err := rd.Next(freshBuf)
			if err != nil || id != i {
				t.Fatalf("frame %d: id %d, %v", i, id, err)
			}
			want := []byte(fmt.Sprint(i))
			if i%4 == 0 {
				if !IsTraced(typ) {
					t.Fatalf("frame %d lost its trace bit", i)
				}
				var got trace.Context
				if got, body, err = DecodeTraceContext(body); err != nil || got != tc {
					t.Fatalf("frame %d: trace context %+v, %v", i, got, err)
				}
			}
			if BaseType(typ) != MsgLookup || !bytes.Equal(body, want) {
				t.Fatalf("frame %d = (%v, %q), want (MsgLookup, %q)", i, typ, body, want)
			}
		}
	})
}

// gatedConn holds every Write at a gate: it reports the Write's bytes on
// arrived and lets it through on a token from pass.
type gatedConn struct {
	net.Conn
	arrived chan []byte
	pass    chan struct{}
}

func (c *gatedConn) Write(b []byte) (int, error) {
	c.arrived <- append([]byte(nil), b...)
	<-c.pass
	return len(b), nil
}

// TestWriterFlushBehindActiveFlusher: a Flush that finds another
// goroutine flushing returns at once without writing, and what it meant
// to flush rides that flusher's next Write.
func TestWriterFlushBehindActiveFlusher(t *testing.T) {
	atProcs(t, func(t *testing.T) {
		gc := &gatedConn{Conn: discardConn{}, arrived: make(chan []byte), pass: make(chan struct{})}
		w := NewWriter(gc, nil)
		done := make(chan error, 1)
		go func() { done <- w.WriteFrameID(MsgPing, 1, nil) }()
		first := <-gc.arrived // the flusher is inside its Write
		if err := w.Enqueue(MsgLookup, 2, trace.Context{}, []byte("rider")); err != nil {
			t.Fatal(err)
		}
		if err := w.Enqueue(MsgLookup, 3, trace.Context{}, []byte("rider")); err != nil {
			t.Fatal(err)
		}
		if err := w.Flush(); err != nil { // must not block on the gate, nor write
			t.Fatal(err)
		}
		gc.pass <- struct{}{}
		second := <-gc.arrived
		gc.pass <- struct{}{}
		if err := <-done; err != nil {
			t.Fatal(err)
		}
		want := mustFrame(t, mustFrame(t, nil, MsgLookup, 2, []byte("rider")), MsgLookup, 3, []byte("rider"))
		if !bytes.Equal(first, mustFrame(t, nil, MsgPing, 1, nil)) || !bytes.Equal(second, want) {
			t.Fatalf("Writes carried %d and %d bytes; want the ping alone, then both riders in one", len(first), len(second))
		}
	})
}

// TestWriterFailedFlushStickyOnFailOnce: a Flush whose Write fails
// records the error for every later call of any kind and reports it to
// onFail exactly once.
func TestWriterFailedFlushStickyOnFailOnce(t *testing.T) {
	var fails atomic.Int64
	w := NewWriter(&failConn{Conn: discardConn{}}, func(error) { fails.Add(1) })
	if err := w.Enqueue(MsgPing, 1, trace.Context{}, nil); err != nil {
		t.Fatalf("Enqueue on a healthy connection: %v", err)
	}
	if err := w.Flush(); !errors.Is(err, errInjected) {
		t.Fatalf("Flush = %v, want the injected failure", err)
	}
	for i, err := range []error{
		w.Enqueue(MsgPing, 2, trace.Context{}, nil),
		w.Flush(),
		w.WriteFrameID(MsgPing, 3, nil),
		w.Err(),
	} {
		if !errors.Is(err, errInjected) {
			t.Fatalf("call %d after the failed Flush = %v, want the sticky error", i, err)
		}
	}
	if n := fails.Load(); n != 1 {
		t.Fatalf("onFail fired %d times, want exactly 1", n)
	}
}

func TestWriterRejectsOversizedFrame(t *testing.T) {
	w := NewWriter(discardConn{}, nil)
	if err := w.WriteFrameID(MsgInsert, 1, make([]byte, MaxFrame+1)); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("oversized frame err = %v", err)
	}
	// A rejected frame must not poison the writer.
	if err := w.WriteFrameID(MsgPing, 2, nil); err != nil {
		t.Fatalf("write after rejected frame: %v", err)
	}
}
