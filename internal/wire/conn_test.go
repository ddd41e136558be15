package wire

import (
	"bytes"
	"context"
	"io"
	"net"
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

// TestHandshakeOutcomes: what the dialer sends is the hello frame byte
// for byte, and every answer but a MsgHelloAck for Version2 is an error
// that names the refusal.
func TestHandshakeOutcomes(t *testing.T) {
	var plain, featured bytes.Buffer
	if err := WriteFrame(&plain, MsgHello, AppendHello(nil, Version2)); err != nil {
		t.Fatal(err)
	}
	if err := WriteFrame(&featured, MsgHello, AppendHelloFeat(nil, Version2, FeatTrace)); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name     string
		want     byte
		sent     []byte
		replyT   MsgType
		reply    []byte
		feat     byte
		errMatch string
	}{
		{"granted", 0, plain.Bytes(), MsgHelloAck, AppendHelloAck(nil, Version2), 0, ""},
		{"features masked to the wanted ones", FeatTrace, featured.Bytes(), MsgHelloAck, AppendHelloAckFeat(nil, Version2, FeatTrace|1<<1), FeatTrace, ""},
		{"feature not granted", FeatTrace, featured.Bytes(), MsgHelloAck, AppendHelloAck(nil, Version2), 0, ""},
		{"answered MsgError", 0, plain.Bytes(), MsgError, AppendErrorKind(nil, ErrKindBadRequest, "unknown frame type"), 0, "peer refused the hello: unknown frame type"},
		{"settled on version 1", 0, plain.Bytes(), MsgHelloAck, AppendHelloAck(nil, 1), 0, "peer refused the hello: it speaks version 1"},
		{"answered something else", 0, plain.Bytes(), MsgPong, nil, 0, "hello answered with pong"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got := make(chan []byte, 1)
			addr := fakePeer(t, func(conn net.Conn) {
				hello := make([]byte, len(tc.sent))
				_, _ = io.ReadFull(conn, hello)
				got <- hello
				_ = WriteFrame(conn, tc.replyT, tc.reply)
			})
			conn, err := net.Dial("tcp", addr)
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			feat, err := Handshake(conn, time.Second, tc.want)
			if sent := <-got; !bytes.Equal(sent, tc.sent) {
				t.Errorf("hello on the wire = %x, want %x", sent, tc.sent)
			}
			if tc.errMatch == "" {
				if err != nil || feat != tc.feat {
					t.Fatalf("Handshake = (%#x, %v), want (%#x, nil)", feat, err, tc.feat)
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

// TestConnRoundTrip: replies are matched by ID, land in the connection's
// one reply buffer, and a reply under another ID or a silent peer is an
// error within the timeout.
func TestConnRoundTrip(t *testing.T) {
	addr := fakePeer(t, func(conn net.Conn) {
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
			var reply []byte
			switch typ {
			case MsgPing: // echo
				reply, _ = AppendFrameID(nil, MsgPong, id, payload)
			case MsgLookup: // answer under the wrong ID
				reply, _ = AppendFrameID(nil, MsgLookupResp, id+1, nil)
			default: // never answer
			}
			_, _ = conn.Write(reply)
		}
	})
	c, err := Dial(context.Background(), addr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	var buf *byte
	for i, msg := range []string{"the first reply", "a second", "third"} {
		rt, body, err := c.RoundTrip(MsgPing, []byte(msg), time.Second)
		if err != nil || rt != MsgPong || string(body) != msg {
			t.Fatalf("round trip %d = (%v, %q, %v)", i, rt, body, err)
		}
		if buf == nil {
			buf = &body[0]
		} else if &body[0] != buf {
			t.Fatalf("round trip %d replaced a reply buffer that was large enough", i)
		}
	}
	if _, _, err := c.RoundTrip(MsgPing, make([]byte, MaxFrame+1), time.Second); err != ErrFrameTooLarge {
		t.Fatalf("oversized request: %v, want ErrFrameTooLarge", err)
	}
	if _, _, err := c.RoundTrip(MsgLookup, nil, time.Second); err == nil || !strings.Contains(err.Error(), "reply id") {
		t.Fatalf("reply under another ID: %v, want an ID mismatch error", err)
	}
	start := time.Now()
	if _, _, err := c.RoundTrip(MsgInsert, nil, 100*time.Millisecond); err == nil {
		t.Fatal("round trip succeeded against a peer that never answers")
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("round trip took %v against a silent peer, timeout was 100ms", elapsed)
	}
}
