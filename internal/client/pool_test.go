// White-box tests for the mux pools and its deadline watchdog: reply
// slots and response buffers are recycled across requests, so the
// dangerous interleavings are timeout-vs-reply races — a slot or buffer
// recycled while the demux reader still holds a reference would
// cross-wire two requests.
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
// outcomes — clean reply, clean timeout, and reply racing the watchdog —
// all occur while slots and body buffers recycle. Every
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
				s, err := m.start(wire.MsgLookup, trace.Context{}, want, time.Now(), timeout, true)
				if err == nil {
					typ, body, err = s.Wait()
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
			s, err := m.start(wire.MsgLookup, trace.Context{}, []byte{byte(i)}, time.Now(), time.Minute, true)
			if err == nil {
				var body []byte
				_, body, err = s.Wait()
				putBody(body)
			}
			errs <- err
		}(i)
	}
	started.Wait()
	// Consume the frames so the writers get past their flush, then kill.
	go func() {
		for i := 0; i < waiters; i++ {
			if _, _, _, err := wire.ReadFrameIDInto(sc, nil); err != nil {
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
	if _, err := m.register(time.Now(), time.Minute); !errors.Is(err, errConnDead) {
		t.Fatalf("register after fail = %v, want errConnDead", err)
	}
}

// idleMux returns a muxConn over one end of a pipe whose other end
// never answers; its reader is not running, so a test plays the reader
// with answer.
func idleMux(t *testing.T) *muxConn {
	cc, sc := net.Pipe()
	m := newMuxConn(cc, 0)
	t.Cleanup(func() { m.fail(net.ErrClosed); sc.Close() })
	return m
}

// answer does what the demux reader does with a reply to s: it claims
// the slot and sends, or reports that the watchdog claimed it first.
func answer(m *muxConn, s *muxSlot) bool {
	late := m.claim(s.id)
	if late != nil {
		late.ch <- muxReply{t: wire.MsgLookupResp}
	}
	return late != nil
}

// TestMuxDeadlineLateReplyIsTheAnswer: a reply 20 ms late under a 1 s
// deadline is the request's answer, not a timeout.
func TestMuxDeadlineLateReplyIsTheAnswer(t *testing.T) {
	m := idleMux(t)
	s, err := m.register(time.Now(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		time.Sleep(20 * time.Millisecond)
		answer(m, s)
	}()
	if typ, _, err := s.Wait(); err != nil || typ != wire.MsgLookupResp {
		t.Fatalf("reply 20 ms late under a 1 s deadline: (%v, %v), want the reply", typ, err)
	}
}

// TestMuxDeadlineSilentPeerTimesOut: a request nobody answers times out
// through the watchdog, and no earlier than its deadline.
func TestMuxDeadlineSilentPeerTimesOut(t *testing.T) {
	m := idleMux(t)
	began := time.Now()
	s, err := m.register(began, 20*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Wait(); !errors.Is(err, timeoutError{}) || time.Since(began) < 20*time.Millisecond {
		t.Fatalf("no reply under a 20 ms deadline: %v after %v, want a timeout after 20 ms", err, time.Since(began))
	}
	if m.claim(s.id) != nil {
		t.Fatal("timed-out request still in the in-flight table")
	}
}

// TestMuxDeadlineShorterFiresFirst: a request whose deadline is shorter
// than one already in flight on the connection — an operation deadline
// below Timeout — re-arms the watchdog and times out on its own
// deadline, while the longer one is still waiting and still answerable.
func TestMuxDeadlineShorterFiresFirst(t *testing.T) {
	m := idleMux(t)
	long, err := m.register(time.Now(), time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	began := time.Now()
	short, err := m.register(began, 20*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := short.Wait(); !errors.Is(err, timeoutError{}) {
		t.Fatalf("short deadline: %v, want a timeout", err)
	}
	if took := time.Since(began); took < 20*time.Millisecond || took > 10*time.Second {
		t.Fatalf("short deadline fired after %v, want 20 ms (not the long one's minute)", took)
	}
	if !answer(m, long) {
		t.Fatal("the watchdog took the long request with the short one")
	}
	if typ, _, err := long.Wait(); err != nil || typ != wire.MsgLookupResp {
		t.Fatalf("long request: (%v, %v), want its reply", typ, err)
	}
}

// TestMuxDeadlineReplyRacesExpiry answers requests at about their
// deadline, so the reader's claim and the watchdog's race: each request
// gets exactly one outcome — the reply or the timeout, the loser's send
// never happens — and its slot goes back to the pool once: a slot put
// twice would come out of it twice.
func TestMuxDeadlineReplyRacesExpiry(t *testing.T) {
	m := idleMux(t)
	const d = 2 * time.Millisecond
	var replies, timeouts int
	for i := 0; i < 200; i++ {
		s, err := m.register(time.Now(), d)
		if err != nil {
			t.Fatal(err)
		}
		done := make(chan struct{})
		go func() {
			defer close(done)
			time.Sleep(d - time.Millisecond + time.Duration(i%20)*100*time.Microsecond)
			answer(m, s)
		}()
		typ, _, err := s.Wait()
		<-done
		switch {
		case err == nil && typ == wire.MsgLookupResp:
			replies++
		case errors.Is(err, timeoutError{}):
			timeouts++
		default:
			t.Fatalf("request %d: (%v, %v)", i, typ, err)
		}
		if len(s.ch) != 0 {
			t.Fatalf("request %d: a second outcome was sent into its slot", i)
		}
		a, b := slotPool.Get().(*muxSlot), slotPool.Get().(*muxSlot)
		if a == b {
			t.Fatalf("request %d: its slot was recycled twice", i)
		}
		slotPool.Put(a)
		slotPool.Put(b)
	}
	t.Logf("%d replies, %d timeouts", replies, timeouts)
}

// TestMuxDeadlineWatchdogStoppedByFail: a dead connection's watchdog is
// stopped by fail, not left to fire, and its waiter has the
// connection's error rather than a timeout.
func TestMuxDeadlineWatchdogStoppedByFail(t *testing.T) {
	m := idleMux(t)
	s, err := m.register(time.Now(), time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	m.fail(errors.New("injected failure"))
	if _, _, err := s.Wait(); !errors.Is(err, errConnDead) {
		t.Fatalf("waiter on a failed connection: %v, want errConnDead", err)
	}
	m.mu.Lock()
	running := m.watch.Stop()
	m.mu.Unlock()
	if running {
		t.Fatal("fail left the watchdog armed")
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
