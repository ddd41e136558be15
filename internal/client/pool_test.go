// Tests of the shared connection the client runs every request on
// (wire.Conn), played against by hand from the node's end: reply slots
// and reply buffers are recycled across requests, so the dangerous
// interleavings are timeout-vs-reply races — a slot or buffer recycled
// while the demux reader still holds a reference would cross-wire two
// requests.
package client

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dmap/internal/guid"
	"dmap/internal/trace"
	"dmap/internal/wire"
)

// TestMain lets scripts/check.sh run this package with buffer poisoning
// on (DMAP_POISON_BUFS=1): released pooled buffers are scribbled over,
// so a reply body used after its release corrupts visibly under -race
// load instead of silently.
func TestMain(m *testing.M) {
	if os.Getenv("DMAP_POISON_BUFS") == "1" {
		wire.Poison = true
	}
	os.Exit(m.Run())
}

// muxPair dials a shared connection over loopback TCP and returns it
// with the node's end, past the hello, for the test to play the node on.
func muxPair(t *testing.T) (*wire.Conn, net.Conn) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	accepted := make(chan net.Conn, 1)
	go func() {
		conn, err := ln.Accept()
		if err == nil {
			if typ, _, err := wire.ReadFrame(conn); err == nil && typ == wire.MsgHello {
				_ = wire.WriteFrame(conn, wire.MsgHelloAck, wire.AppendHelloAck(nil, wire.Version2))
			}
		}
		accepted <- conn
	}()
	m, err := wire.Dial(context.Background(), ln.Addr().String(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	sc := <-accepted
	t.Cleanup(func() { m.Close(); sc.Close() })
	return m, sc
}

// start puts one lookup carrying payload on m under timeout.
func start(t *testing.T, m *wire.Conn, payload []byte, timeout time.Duration) *wire.Pending {
	t.Helper()
	p, err := m.Start(wire.MsgLookup, trace.Context{}, payload, time.Now(), timeout)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// reply writes a lookup reply carrying body under id from the node's end.
func reply(t *testing.T, sc net.Conn, id uint64, body []byte) {
	frame, err := wire.AppendFrameID(nil, wire.MsgLookupResp, id, body)
	if err == nil {
		_, err = sc.Write(frame)
	}
	if err != nil {
		t.Error(err)
	}
}

// isTimeout reports a request's own timeout, as settle tells it apart.
func isTimeout(err error) bool {
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}

// TestMuxSlotRecycleUnderTimeoutRaces drives one connection with request
// timeouts tuned to straddle the node's reply delays, so the three
// outcomes — clean reply, clean timeout, and reply racing the watchdog —
// all occur while slots and body buffers recycle. Every reply is the
// request's own payload echoed back; any slot cross-wiring or premature
// buffer recycle surfaces as a payload mismatch.
func TestMuxSlotRecycleUnderTimeoutRaces(t *testing.T) {
	// A real TCP loopback pair, not net.Pipe: the request timeout doubles
	// as the coalescing writer's deadline, and an unbuffered pipe would
	// turn any scheduler hiccup on the echo server into a write timeout
	// that kills the shared connection and the test with it.
	m, sc := muxPair(t)

	// Echo server: replies carry the request's payload back under its
	// ID. Delays straddle the client's deadline — id%3 picks an instant
	// reply (clean success), a reply at about the timeout (the race with
	// the watchdog) or one well past it (clean timeout).
	const timeout = 10 * time.Millisecond
	sw := wire.NewWriter(sc, nil)
	// pending counts the echo reader and the repliers it starts, so that
	// no replier is added while the test waits on it.
	var pending sync.WaitGroup
	pending.Add(1)
	go func() {
		defer pending.Done()
		for {
			_, id, payload, err := wire.ReadFrameIDInto(sc, nil)
			if err != nil {
				return
			}
			body := append([]byte(nil), payload...)
			pending.Add(1)
			go func() {
				defer pending.Done()
				time.Sleep(time.Duration(id%3) * timeout)
				_ = sw.WriteFrameID(wire.MsgLookupResp, id, body)
			}()
		}
	}()

	const goroutines, perG = 8, 50
	var ok, timeouts atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				want := []byte(fmt.Sprintf("req-%d-%d", g, i))
				var typ wire.MsgType
				var body []byte
				p, err := m.Start(wire.MsgLookup, trace.Context{}, want, time.Now(), timeout)
				if err == nil {
					typ, body, err = p.Wait()
				}
				switch {
				case err == nil:
					if typ != wire.MsgLookupResp || !bytes.Equal(body, want) {
						t.Errorf("reply cross-wired: sent %q, got type %v body %q", want, typ, body)
					}
					wire.Replies.Put(body)
					ok.Add(1)
				case isTimeout(err):
					timeouts.Add(1)
				default:
					t.Errorf("request %q: %v", want, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if ok.Load() == 0 {
		t.Fatal("no request ever succeeded; timeout too aggressive for the harness")
	}
	if timeouts.Load() == 0 {
		t.Log("no request timed out this run; the race path went unexercised")
	}
	t.Logf("%d replies, %d timeouts", ok.Load(), timeouts.Load())
	m.Close() // stop the reader before the echo writer dies
	pending.Wait()
}

// TestMuxFailDrainsInflight: a node that hangs up with requests parked
// in the in-flight table fails every waiter with wire.ErrConnDead rather
// than leaving it blocked (or handing it a recycled slot), and the dead
// connection takes no new request.
func TestMuxFailDrainsInflight(t *testing.T) {
	m, sc := muxPair(t)
	const waiters = 16
	errs := make(chan error, waiters)
	for i := 0; i < waiters; i++ {
		go func(i int) {
			p, err := m.Start(wire.MsgLookup, trace.Context{}, []byte{byte(i)}, time.Now(), time.Minute)
			if err == nil {
				var body []byte
				_, body, err = p.Wait()
				wire.Replies.Put(body)
			}
			errs <- err
		}(i)
	}
	// Take every frame off the wire, then hang up.
	for i := 0; i < waiters; i++ {
		if _, _, _, err := wire.ReadFrameIDInto(sc, nil); err != nil {
			t.Fatal(err)
		}
	}
	sc.Close()
	for i := 0; i < waiters; i++ {
		if err := <-errs; !errors.Is(err, wire.ErrConnDead) {
			t.Fatalf("waiter %d err = %v, want wire.ErrConnDead", i, err)
		}
	}
	if _, err := m.Start(wire.MsgLookup, trace.Context{}, nil, time.Now(), time.Minute); !errors.Is(err, wire.ErrConnDead) {
		t.Fatalf("Start after the hang-up = %v, want wire.ErrConnDead", err)
	}
}

// TestMuxDeadlineLateReplyIsTheAnswer: a reply 20 ms late under a 1 s
// deadline is the request's answer, not a timeout.
func TestMuxDeadlineLateReplyIsTheAnswer(t *testing.T) {
	m, sc := muxPair(t)
	p := start(t, m, nil, time.Second)
	_, id, _, err := wire.ReadFrameIDInto(sc, nil)
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(20 * time.Millisecond)
	reply(t, sc, id, nil)
	if typ, _, err := p.Wait(); err != nil || typ != wire.MsgLookupResp {
		t.Fatalf("reply 20 ms late under a 1 s deadline: (%v, %v), want the reply", typ, err)
	}
}

// TestMuxDeadlineSilentPeerTimesOut: a request nobody answers times out
// through the watchdog, and no earlier than its deadline; its reply,
// should it come after all, is dropped, not handed to the next request.
func TestMuxDeadlineSilentPeerTimesOut(t *testing.T) {
	m, sc := muxPair(t)
	began := time.Now()
	p := start(t, m, nil, 20*time.Millisecond)
	if _, _, err := p.Wait(); !isTimeout(err) || time.Since(began) < 20*time.Millisecond {
		t.Fatalf("no reply under a 20 ms deadline: %v after %v, want a timeout after 20 ms", err, time.Since(began))
	}
	_, late, _, err := wire.ReadFrameIDInto(sc, nil)
	if err != nil {
		t.Fatal(err)
	}
	reply(t, sc, late, []byte("late"))
	next := start(t, m, nil, time.Second)
	_, id, _, err := wire.ReadFrameIDInto(sc, nil)
	if err != nil {
		t.Fatal(err)
	}
	reply(t, sc, id, []byte("next"))
	if _, body, err := next.Wait(); err != nil || string(body) != "next" {
		t.Fatalf("the request after a timed-out one: (%q, %v), want its own reply", body, err)
	}
}

// TestMuxDeadlineShorterFiresFirst: a request whose deadline is shorter
// than one already in flight on the connection — an operation deadline
// below Timeout — re-arms the watchdog and times out on its own
// deadline, while the longer one is still waiting and still answerable.
func TestMuxDeadlineShorterFiresFirst(t *testing.T) {
	m, sc := muxPair(t)
	long := start(t, m, nil, time.Minute)
	_, longID, _, err := wire.ReadFrameIDInto(sc, nil)
	if err != nil {
		t.Fatal(err)
	}
	began := time.Now()
	short := start(t, m, nil, 20*time.Millisecond)
	if _, _, err := short.Wait(); !isTimeout(err) {
		t.Fatalf("short deadline: %v, want a timeout", err)
	}
	if took := time.Since(began); took < 20*time.Millisecond || took > 10*time.Second {
		t.Fatalf("short deadline fired after %v, want 20 ms (not the long one's minute)", took)
	}
	reply(t, sc, longID, nil)
	if typ, _, err := long.Wait(); err != nil || typ != wire.MsgLookupResp {
		t.Fatalf("long request: (%v, %v), want its reply", typ, err)
	}
}

// TestMuxDeadlineReplyRacesExpiry answers requests at about their
// deadline, so the reader's claim and the watchdog's race: each request
// gets exactly one outcome — its own reply or the timeout — and a slot
// that went back to the pool twice would hand a later request another's
// reply.
func TestMuxDeadlineReplyRacesExpiry(t *testing.T) {
	m, sc := muxPair(t)
	const d = 2 * time.Millisecond
	var replies, timeouts int
	for i := 0; i < 200; i++ {
		want := []byte(fmt.Sprint(i))
		p := start(t, m, want, d)
		_, id, payload, err := wire.ReadFrameIDInto(sc, nil)
		if err != nil {
			t.Fatal(err)
		}
		done := make(chan struct{})
		go func() {
			defer close(done)
			time.Sleep(d - time.Millisecond + time.Duration(i%20)*100*time.Microsecond)
			reply(t, sc, id, payload)
		}()
		typ, body, err := p.Wait()
		<-done
		switch {
		case err == nil && typ == wire.MsgLookupResp && bytes.Equal(body, want):
			replies++
		case isTimeout(err):
			timeouts++
		default:
			t.Fatalf("request %d: (%v, %q, %v), want its own reply or a timeout", i, typ, body, err)
		}
		wire.Replies.Put(body)
	}
	t.Logf("%d replies, %d timeouts", replies, timeouts)
}

// TestMuxDeadlineWatchdogStoppedByFail: a request waiting on a
// connection that dies has the connection's error, not the watchdog's
// timeout, however long its deadline.
func TestMuxDeadlineWatchdogStoppedByFail(t *testing.T) {
	m, sc := muxPair(t)
	p := start(t, m, nil, time.Minute)
	sc.Close()
	if _, _, err := p.Wait(); !errors.Is(err, wire.ErrConnDead) {
		t.Fatalf("waiter on a failed connection: %v, want wire.ErrConnDead", err)
	}
}

// TestMuxIdleConnHoldsNoReplyBuffer: a shared connection whose reader is
// blocked waiting for the next reply must have taken nothing from
// wire.Replies — the payload buffer is drawn once a reply's header is
// parsed, not ahead of the read. The pool is pre-filled so every Get is
// served from it and a buffer not given back shows as a lower idle
// count.
func TestMuxIdleConnHoldsNoReplyBuffer(t *testing.T) {
	for i := 0; i < 8; i++ {
		wire.Replies.Put(make([]byte, 0, 512))
	}
	idle := wire.Replies.Idle()
	c, _ := testCluster(t, 4, 1)
	// One round trip dials the shared connection and proves its reader
	// is up; Lookup has released the reply's body by the time it returns.
	if _, err := c.Lookup(guid.New("absent")); !errors.Is(err, ErrNotFound) {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for wire.Replies.Idle() != idle {
		if time.Now().After(deadline) {
			t.Fatalf("idle shared connection holds %d pooled buffer(s)", idle-wire.Replies.Idle())
		}
		time.Sleep(time.Millisecond)
	}
}
