package wire

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net"
	"runtime"
	"strings"
	"testing"
	"time"
)

// fakePeer accepts one connection on a loopback listener and hands it to
// serve; the returned address is what a test dials.
func fakePeer(t *testing.T, serve func(conn net.Conn)) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		serve(conn)
	}()
	t.Cleanup(func() {
		ln.Close()
		<-done
	})
	return ln.Addr().String()
}

// TestHandshakeOutcomes: what the dialer sends is the 5-byte hello frame
// byte for byte, and every answer but a MsgHelloAck for Version2 is an
// error that names the refusal.
func TestHandshakeOutcomes(t *testing.T) {
	var hello bytes.Buffer
	if err := WriteFrame(&hello, MsgHello, AppendHello(nil, Version2)); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name     string
		replyT   MsgType
		reply    []byte
		errMatch string
	}{
		{"granted", MsgHelloAck, AppendHelloAck(nil, Version2), ""},
		{"answered MsgError", MsgError, AppendErrorKind(nil, ErrKindBadRequest, "unknown frame type"), "peer refused the hello: unknown frame type"},
		{"settled on version 1", MsgHelloAck, AppendHelloAck(nil, 1), "peer refused the hello: it speaks version 1"},
		{"answered something else", MsgPong, nil, "hello answered with pong"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got := make(chan []byte, 1)
			addr := fakePeer(t, func(conn net.Conn) {
				sent := make([]byte, hello.Len())
				_, _ = io.ReadFull(conn, sent)
				got <- sent
				_ = WriteFrame(conn, tc.replyT, tc.reply)
			})
			conn, err := net.Dial("tcp", addr)
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			err = Handshake(conn, time.Second)
			if sent := <-got; !bytes.Equal(sent, hello.Bytes()) {
				t.Errorf("hello on the wire = %x, want %x", sent, hello.Bytes())
			}
			if tc.errMatch == "" {
				if err != nil {
					t.Fatalf("Handshake = %v, want nil", err)
				}
			} else if err == nil || !strings.Contains(err.Error(), tc.errMatch) {
				t.Fatalf("Handshake error = %v, want one containing %q", err, tc.errMatch)
			}
		})
	}
}

// TestHandshakeBounded: a peer that accepts and never answers costs the
// dialer its timeout, not forever.
func TestHandshakeBounded(t *testing.T) {
	release := make(chan struct{})
	addr := fakePeer(t, func(net.Conn) { <-release })
	defer close(release)
	start := time.Now()
	if _, err := Dial(context.Background(), addr, 100*time.Millisecond); err == nil {
		t.Fatal("Dial succeeded against a peer that never answers the hello")
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("Dial took %v against a silent peer, timeout was 100ms", elapsed)
	}
}

// peer accepts one connection, answers its hello and hands every later
// identified frame to answer, which writes the reply, if any, to w.
func peer(t *testing.T, answer func(w io.Writer, typ MsgType, id uint64, payload []byte)) string {
	return fakePeer(t, func(conn net.Conn) {
		if t, _, err := ReadFrame(conn); err != nil || t != MsgHello {
			return
		}
		if err := WriteFrame(conn, MsgHelloAck, AppendHelloAck(nil, Version2)); err != nil {
			return
		}
		for {
			typ, id, payload, err := ReadFrameIDInto(conn, nil)
			if err != nil {
				return
			}
			answer(conn, typ, id, payload)
		}
	})
}

// TestConnRoundTrip: replies are matched by ID into pooled bodies the
// caller owns; a frame too large is refused before anything is written,
// leaving the connection up; and a reply under another ID, or none, is a
// timeout within the request's timeout.
func TestConnRoundTrip(t *testing.T) {
	addr := peer(t, func(w io.Writer, typ MsgType, id uint64, payload []byte) {
		var reply []byte
		switch typ {
		case MsgPing: // echo
			reply, _ = AppendFrameID(nil, MsgPong, id, payload)
		case MsgLookup: // answer under the wrong ID
			reply, _ = AppendFrameID(nil, MsgLookupResp, id+1, nil)
		default: // never answer
		}
		_, _ = w.Write(reply)
	})
	c, err := Dial(context.Background(), addr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	var bodies [][]byte
	for i, msg := range []string{"the first reply", "a second", "third"} {
		rt, body, err := c.RoundTrip(MsgPing, []byte(msg), time.Second)
		if err != nil || rt != MsgPong || string(body) != msg {
			t.Fatalf("round trip %d = (%v, %q, %v)", i, rt, body, err)
		}
		bodies = append(bodies, body)
	}
	for i, msg := range []string{"the first reply", "a second", "third"} {
		if string(bodies[i]) != msg {
			t.Fatalf("reply %d reads %q after later round trips, want %q: a body is the caller's", i, bodies[i], msg)
		}
		Replies.Put(bodies[i])
	}
	if _, _, err := c.RoundTrip(MsgPing, make([]byte, MaxFrame+1), time.Second); err != ErrFrameTooLarge {
		t.Fatalf("oversized request: %v, want ErrFrameTooLarge", err)
	}
	var ne net.Error
	start := time.Now()
	if _, _, err := c.RoundTrip(MsgLookup, nil, 100*time.Millisecond); !errors.As(err, &ne) || !ne.Timeout() {
		t.Fatalf("reply under another ID: %v, want a timeout", err)
	}
	if _, _, err := c.RoundTrip(MsgInsert, nil, 100*time.Millisecond); !errors.As(err, &ne) || !ne.Timeout() {
		t.Fatalf("round trip against a peer that never answers: %v, want a timeout", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("two round trips took %v against a silent peer, timeout was 100ms", elapsed)
	}
	c.mu.Lock()
	left := len(c.inflight)
	c.mu.Unlock()
	if left != 0 {
		t.Fatalf("%d timed-out requests still in the in-flight table", left)
	}
	if rt, _, err := c.RoundTrip(MsgPing, nil, time.Second); err != nil || rt != MsgPong || c.Dead() {
		t.Fatalf("round trip after the timeouts = (%v, %v), want the connection still up", rt, err)
	}
}

// TestDialContextEndsConn: cancelling the context a connection was
// dialed under fails the round trip in progress at once, with
// ErrConnDead, however long its timeout, and stops the watchdog; and
// Close returns with the reader goroutine gone.
func TestDialContextEndsConn(t *testing.T) {
	addr := peer(t, func(io.Writer, MsgType, uint64, []byte) {}) // never answers
	base := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	c, err := Dial(ctx, addr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	errc := make(chan error, 1)
	go func() {
		_, _, err := c.RoundTrip(MsgLookup, nil, time.Minute)
		errc <- err
	}()
	time.Sleep(20 * time.Millisecond) // the request is on its way
	cancel()
	select {
	case err := <-errc:
		if !errors.Is(err, ErrConnDead) {
			t.Fatalf("round trip after cancel: %v, want ErrConnDead", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("round trip still waiting 5 s after its context was cancelled")
	}
	c.mu.Lock()
	dead, running := c.closed, c.watch.Stop()
	c.mu.Unlock()
	if !dead || running {
		t.Fatalf("after the cancel: dead = %t, watchdog armed = %t; want dead, stopped", dead, running)
	}
	c.Close()
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > base; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after Close, %d before Dial", runtime.NumGoroutine(), base)
		}
	}
}
