// White-box tests for the mux pools: reply slots, response buffers and
// timers are recycled across requests, so the dangerous interleavings
// are timeout-vs-reply races — a slot or buffer recycled while the
// demux reader still holds a reference would cross-wire two requests.
package client

import (
	"bytes"
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
// so a response body used after putBody corrupts visibly under -race
// load instead of silently.
func TestMain(m *testing.M) {
	if os.Getenv("DMAP_POISON_BUFS") == "1" {
		wire.Poison = true
	}
	os.Exit(m.Run())
}

// TestMuxSlotRecycleUnderTimeoutRaces drives one muxConn with request
// timeouts tuned to straddle the server's reply delays, so the three
// do() outcomes — clean reply, clean timeout, and reply-beats-timer
// race — all occur while slots, timers and body buffers recycle. Every
// reply is the request's own payload echoed back; any slot cross-wiring
// or premature buffer recycle surfaces as a payload mismatch.
func TestMuxSlotRecycleUnderTimeoutRaces(t *testing.T) {
	// A real TCP loopback pair, not net.Pipe: the request timeout doubles
	// as the coalescing writer's deadline, and an unbuffered pipe would
	// turn any scheduler hiccup on the echo server into a write timeout
	// that kills the shared connection and the test with it.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	accepted := make(chan net.Conn, 1)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		accepted <- conn
	}()
	cc, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	sc := <-accepted
	defer sc.Close()

	m := newMuxConn(cc, 0)
	go m.readLoop()
	defer m.fail(net.ErrClosed)

	// Echo server: replies carry the request's payload back under its
	// ID. Delays straddle the client's reply timer — id%3 picks an
	// instant reply (clean success), a reply at about the timeout (the
	// reply-beats-timer race) or one well past it (clean timeout).
	const timeout = 10 * time.Millisecond
	sw := wire.NewWriter(sc, nil)
	var pending sync.WaitGroup
	go func() {
		for {
			_, id, payload, err := wire.ReadFrameID(sc)
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
				s, err := m.start(wire.MsgLookup, trace.Context{}, want, timeout, true)
				if err == nil {
					typ, body, err = s.wait(timeout)
				}
				switch {
				case err == nil:
					if typ != wire.MsgLookupResp || !bytes.Equal(body, want) {
						t.Errorf("reply cross-wired: sent %q, got type %v body %q", want, typ, body)
					}
					putBody(body)
					ok.Add(1)
				case errors.Is(err, timeoutError{}):
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
	m.fail(net.ErrClosed) // stop the reader before the echo writer dies
	pending.Wait()
}

// TestMuxFailDrainsInflight kills a connection with requests parked in
// the in-flight table and checks every waiter is failed with
// errConnDead rather than left blocked (or handed a recycled slot).
func TestMuxFailDrainsInflight(t *testing.T) {
	cc, sc := net.Pipe()
	m := newMuxConn(cc, 0)
	go m.readLoop()
	defer sc.Close()

	const waiters = 16
	errs := make(chan error, waiters)
	var started sync.WaitGroup
	for i := 0; i < waiters; i++ {
		started.Add(1)
		go func(i int) {
			started.Done()
			s, err := m.start(wire.MsgLookup, trace.Context{}, []byte{byte(i)}, time.Minute, true)
			if err == nil {
				var body []byte
				_, body, err = s.wait(time.Minute)
				putBody(body)
			}
			errs <- err
		}(i)
	}
	started.Wait()
	// Consume the frames so the writers get past their flush, then kill.
	go func() {
		for i := 0; i < waiters; i++ {
			if _, _, _, err := wire.ReadFrameID(sc); err != nil {
				return
			}
		}
		m.fail(errors.New("injected failure"))
	}()
	for i := 0; i < waiters; i++ {
		if err := <-errs; !errors.Is(err, errConnDead) {
			t.Fatalf("waiter %d err = %v, want errConnDead", i, err)
		}
	}
	if _, err := m.register(); !errors.Is(err, errConnDead) {
		t.Fatalf("register after fail = %v, want errConnDead", err)
	}
}

// TestStaleTimerTickDoesNotTimeOut: go.mod's 1.22 keeps timer channels
// asynchronous, so a pooled timer can come back holding the tick its
// previous user's Stop raced with. Planted in the pool (several: the
// pool drops entries at random under -race), such ticks must not time
// out a healthy request: a reply 20 ms late under a 1 s timeout is the
// request's answer. A timeout that is real still fires.
func TestStaleTimerTickDoesNotTimeOut(t *testing.T) {
	for i := 0; i < 32; i++ {
		tm := time.NewTimer(0)
		for len(tm.C) == 0 {
			time.Sleep(100 * time.Microsecond)
		}
		timerPool.Put(tm) // tick undrained
	}
	cc, sc := net.Pipe()
	defer sc.Close()
	m := newMuxConn(cc, 0)
	defer m.fail(net.ErrClosed)
	s, err := m.register()
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		time.Sleep(20 * time.Millisecond)
		if late := m.claim(s.id); late != nil {
			late.ch <- muxReply{t: wire.MsgLookupResp}
		}
	}()
	if typ, _, err := s.wait(time.Second); err != nil || typ != wire.MsgLookupResp {
		t.Fatalf("reply 20 ms late under a 1 s timeout: (%v, %v), want the reply", typ, err)
	}
	s, err = m.register()
	if err != nil {
		t.Fatal(err)
	}
	began := time.Now()
	if _, _, err := s.wait(20 * time.Millisecond); !errors.Is(err, timeoutError{}) || time.Since(began) < 20*time.Millisecond {
		t.Fatalf("no reply under a 20 ms timeout: %v after %v, want a timeout after 20 ms", err, time.Since(began))
	}
}

// TestMuxIdleConnHoldsNoReplyBuffer: a shared connection whose reader is
// blocked waiting for the next reply must have taken nothing from
// replyBufs — the payload buffer is drawn once a reply's header is
// parsed, not ahead of the read. The pool is pre-filled so every Get is
// served from it and a buffer not given back shows as a lower idle
// count.
func TestMuxIdleConnHoldsNoReplyBuffer(t *testing.T) {
	for i := 0; i < 8; i++ {
		replyBufs.Put(make([]byte, 0, 512))
	}
	idle := replyBufs.Idle()
	c, _ := testCluster(t, 4, 1)
	// One round trip dials the shared connection and proves its reader
	// is up; Lookup has released the reply's body by the time it returns.
	if _, err := c.Lookup(guid.New("absent")); !errors.Is(err, ErrNotFound) {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for replyBufs.Idle() != idle {
		if time.Now().After(deadline) {
			t.Fatalf("idle shared connection holds %d pooled buffer(s)", idle-replyBufs.Idle())
		}
		time.Sleep(time.Millisecond)
	}
}
