package server

import (
	"bytes"
	"encoding/binary"
	"net"
	"testing"
	"time"

	"dmap/internal/guid"
	"dmap/internal/store"
	"dmap/internal/trace"
	"dmap/internal/wire"
)

// gauge reads one of the node's gauges off its registry.
func gauge(n *Node, name string) float64 { return n.Metrics().Snapshot().Gauges[name] }

// TestFirstFrameMustBeHello: whatever a connection opens with that is
// not a hello for version 2 — a pre-hello client's bare request, a hello
// for version 1 — is answered exactly one un-identified
// MsgError{BadRequest} and closed, and none of it reaches a handler or
// the admission limiter.
func TestFirstFrameMustBeHello(t *testing.T) {
	for _, tc := range []struct {
		name    string
		typ     wire.MsgType
		payload []byte
	}{
		{"bare lookup", wire.MsgLookup, wire.AppendGUID(nil, guid.New("pre-hello"))},
		{"hello v1", wire.MsgHello, wire.AppendHello(nil, 1)},
		{"hello with bad magic", wire.MsgHello, []byte{'D', 'M', 'a', 'X', 2}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			n, addr := startNodeOpts(t, Options{MaxInflight: 4})
			conn := dial(t, addr)
			_ = conn.SetDeadline(time.Now().Add(2 * time.Second))
			if err := wire.WriteFrame(conn, tc.typ, tc.payload); err != nil {
				t.Fatal(err)
			}
			typ, body, err := wire.ReadFrame(conn)
			if err != nil || typ != wire.MsgError {
				t.Fatalf("reply = (%v, %v), want MsgError", typ, err)
			}
			if kind, reason, err := wire.DecodeErrorKind(body); err != nil || kind != wire.ErrKindBadRequest || reason == "" {
				t.Fatalf("error = (%v, %q, %v), want a bad request with a reason", kind, reason, err)
			}
			if typ, _, err := wire.ReadFrame(conn); err == nil {
				t.Fatalf("a second frame (%v) followed the refusal, want EOF", typ)
			}
			if st := n.Stats(); st != (Stats{BadRequests: 1}) {
				t.Errorf("stats = %+v, want one bad request and nothing served", st)
			}
			if got := n.v2Frames.Value(); got != 0 {
				t.Errorf("server.v2_frames = %d, want 0", got)
			}
			if got := gauge(n, "server.inflight"); got != 0 {
				t.Errorf("server.inflight = %v, want 0", got)
			}
		})
	}
}

// TestHelloVersionClamped: a hello asking for a version from the future
// is granted the one this node speaks.
func TestHelloVersionClamped(t *testing.T) {
	_, addr := startNode(t)
	conn := dial(t, addr)
	_ = conn.SetDeadline(time.Now().Add(2 * time.Second))
	if err := wire.WriteFrame(conn, wire.MsgHello, wire.AppendHello(nil, 9)); err != nil {
		t.Fatal(err)
	}
	typ, body, err := wire.ReadFrame(conn)
	if err != nil || typ != wire.MsgHelloAck {
		t.Fatalf("hello reply = (%v, %v)", typ, err)
	}
	if v, feat, err := wire.DecodeHelloAck(body); err != nil || v != wire.Version2 || feat != 0 {
		t.Fatalf("granted (v%d, feat %#x, %v), want v2 and no features", v, feat, err)
	}
	ping, err := wire.AppendFrameID(nil, wire.MsgPing, 7, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write(ping); err != nil {
		t.Fatal(err)
	}
	if typ, id, _, err := wire.ReadFrameIDInto(conn, nil); err != nil || typ != wire.MsgPong || id != 7 {
		t.Fatalf("ping after the clamped hello = (%v, id %d, %v)", typ, id, err)
	}
}

// TestTracedLookupAfterPlainHello: the hello negotiates nothing, so a
// traced frame is understood on a connection opened with the 5-byte
// hello, by a node without a tracer too: its context is stripped and the
// lookup is answered under its ID.
func TestTracedLookupAfterPlainHello(t *testing.T) {
	n, addr := startNode(t)
	e := testEntry()
	n.Store().Put(e)
	conn := dial(t, addr)
	_ = conn.SetDeadline(time.Now().Add(2 * time.Second))
	hello(t, conn)
	tc := trace.Context{Trace: 7, Span: 9, Sampled: true}
	frame, err := wire.AppendFrameIDTrace(nil, wire.MsgLookup, 5, tc, wire.AppendGUID(nil, e.GUID))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write(frame); err != nil {
		t.Fatal(err)
	}
	typ, id, body, err := wire.ReadFrameIDInto(conn, nil)
	if err != nil || typ != wire.MsgLookupResp || id != 5 {
		t.Fatalf("traced lookup answered (%v, id %d, %v), want MsgLookupResp under id 5", typ, id, err)
	}
	var got store.Entry
	if found, err := wire.DecodeLookupRespInto(&got, body); err != nil || !found || got.GUID != e.GUID || got.Version != e.Version {
		t.Fatalf("traced lookup found %t: %+v, %v; want %+v", found, got, err, e)
	}
}

// TestSilentPeerIsClosed: a peer that connects and sends nothing, and
// one that sends half a frame header, are closed by the node within the
// handshake bound, having held no pooled buffer — while a client that
// does say hello is served beside them.
func TestSilentPeerIsClosed(t *testing.T) {
	for i := 0; i < 8; i++ {
		serverBufs.Put(make([]byte, 0, 512))
	}
	idle := serverBufs.Idle()
	n, addr := startNode(t)

	silent, half := dial(t, addr), dial(t, addr)
	if _, err := half.Write([]byte{0, 0}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "both peers accepted", func() bool { return gauge(n, "server.conns") == 2 })
	if got := serverBufs.Idle(); got != idle {
		t.Errorf("peers that have not said hello hold %d pooled buffer(s)", idle-got)
	}

	healthy := dialConn(t, addr)
	if typ, _ := exchange(t, healthy, wire.MsgPing, nil); typ != wire.MsgPong {
		t.Fatalf("healthy client beside the silent peers: ping answered %v", typ)
	}

	start := time.Now()
	for _, conn := range []net.Conn{silent, half} {
		_ = conn.SetReadDeadline(start.Add(helloTimeout + 2*time.Second))
		if _, err := conn.Read(make([]byte, 1)); err == nil {
			t.Fatal("the node answered a peer that never said hello")
		} else if ne, ok := err.(net.Error); ok && ne.Timeout() {
			t.Fatalf("peer still connected %v after dialing, bound is %v", time.Since(start), helloTimeout)
		}
	}
	// The bound is the handshake's alone: the healthy connection has now
	// idled through it and is still served.
	if typ, _ := exchange(t, healthy, wire.MsgPing, nil); typ != wire.MsgPong {
		t.Fatalf("idle connection after the handshake bound: ping answered %v", typ)
	}
	healthy.Close()
	waitFor(t, "server.conns back at 0", func() bool { return gauge(n, "server.conns") == 0 })
	if got := serverBufs.Idle(); got < idle {
		t.Errorf("%d pooled buffer(s) not returned", idle-got)
	}
}

// FuzzServerFirstFrame feeds serveConn arbitrary first bytes. Unless
// they open with a well-formed hello for version ≥ 2, no handler may
// run, at most one frame — a MsgError — may come back, and the
// connection must be closed; never a panic.
func FuzzServerFirstFrame(f *testing.F) {
	frame := func(t wire.MsgType, payload []byte) []byte {
		var b bytes.Buffer
		if err := wire.WriteFrame(&b, t, payload); err != nil {
			f.Fatal(err)
		}
		return b.Bytes()
	}
	f.Add(frame(wire.MsgLookup, wire.AppendGUID(nil, guid.New("v1")))) // a pre-hello client's request
	f.Add(frame(wire.MsgHello, wire.AppendHello(nil, wire.Version2)))
	f.Add(frame(wire.MsgHello, append(wire.AppendHello(nil, wire.Version2), 1<<1))) // a feature byte, ignored
	f.Add(frame(wire.MsgHello, wire.AppendHello(nil, 1)))
	f.Add(frame(wire.MsgHello, []byte{'D', 'M', 'a', 'X', 2}))   // bad magic
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, byte(wire.MsgHello)})   // oversized length
	f.Add(frame(wire.MsgHello, wire.AppendHello(nil, 2))[:7])    // cut inside the payload
	f.Add(append(frame(wire.MsgHello, wire.AppendHello(nil, 2)), // hello, then a ping
		0, 0, 0, 8, byte(wire.MsgPing), 0, 0, 0, 0, 0, 0, 0, 1))

	f.Fuzz(func(t *testing.T, data []byte) {
		// What the node must make of data: complete means a whole first
		// frame is there to be answered, granted that it is a good hello.
		complete, granted := false, false
		if len(data) >= wire.FrameHeaderLen {
			typ, size := wire.MsgType(data[4]), binary.BigEndian.Uint32(data)
			if size <= uint32(wire.MaxPayload(typ)) && uint32(len(data)-wire.FrameHeaderLen) >= size {
				complete = true
				if typ == wire.MsgHello {
					v, err := wire.DecodeHello(data[wire.FrameHeaderLen : wire.FrameHeaderLen+int(size)])
					granted = err == nil && v >= wire.Version2
				}
			}
		}

		n := NewWithOptions(nil, Options{})
		srv, cli := net.Pipe()
		done := make(chan struct{})
		go func() {
			defer close(done)
			n.serveConn(srv)
		}()
		go func() {
			_, _ = cli.Write(data)
			if !complete {
				cli.Close() // the node is waiting for the rest of a frame
			}
		}()
		_ = cli.SetReadDeadline(time.Now().Add(10 * time.Second))
		typ, body, err := wire.ReadFrame(cli)
		switch {
		case !complete:
			if err == nil {
				t.Fatalf("an incomplete first frame was answered with %v", typ)
			}
		case granted:
			if err != nil || typ != wire.MsgHelloAck {
				t.Fatalf("hello answered (%v, %v), want MsgHelloAck", typ, err)
			}
		default:
			if err != nil || typ != wire.MsgError {
				t.Fatalf("first frame answered (%v, %v), want MsgError", typ, err)
			}
			if kind, _, err := wire.DecodeErrorKind(body); err != nil || kind != wire.ErrKindBadRequest {
				t.Fatalf("refusal kind = (%v, %v), want bad request", kind, err)
			}
			if typ, _, err := wire.ReadFrame(cli); err == nil {
				t.Fatalf("a second frame (%v) followed the refusal", typ)
			}
		}
		cli.Close()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Fatal("serveConn did not return")
		}
		if !granted {
			want := Stats{}
			if complete {
				want.BadRequests = 1
			}
			if st := n.Stats(); st != want || n.v2Frames.Value() != 0 || n.admit.inflight() != 0 {
				t.Fatalf("no hello, yet stats = %+v, frames = %d, inflight = %d", st, n.v2Frames.Value(), n.admit.inflight())
			}
		}
	})
}
