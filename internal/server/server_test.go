package server

import (
	"context"
	"net"
	"testing"
	"time"

	"dmap/internal/guid"
	"dmap/internal/netaddr"
	"dmap/internal/store"
	"dmap/internal/wire"
)

func startNode(t *testing.T) (*Node, string) {
	t.Helper()
	n := NewWithOptions(nil, Options{})
	addr, err := n.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { n.Close() })
	return n, addr
}

func dial(t *testing.T, addr string) net.Conn {
	t.Helper()
	conn, err := net.DialTimeout("tcp", addr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	return conn
}

// dialConn opens a connection to addr through the handshake: the
// connection the client, the sweeper and the prober use. Tests that write
// frames by hand dial and call hello.
func dialConn(t *testing.T, addr string) *wire.Conn {
	t.Helper()
	conn, err := wire.Dial(context.Background(), addr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	return conn
}

// hello performs the handshake on a raw connection, leaving it ready for
// identified frames written by hand.
func hello(t *testing.T, conn net.Conn) {
	t.Helper()
	if err := wire.Handshake(conn, time.Second); err != nil {
		t.Fatal(err)
	}
}

// exchange is one round trip that must not fail at the connection level.
func exchange(t *testing.T, conn *wire.Conn, typ wire.MsgType, payload []byte) (wire.MsgType, []byte) {
	t.Helper()
	rt, body, err := conn.RoundTrip(typ, payload, time.Second)
	if err != nil {
		t.Fatalf("%v round trip: %v", typ, err)
	}
	return rt, body
}

func testEntry() store.Entry {
	return store.Entry{
		GUID:    guid.New("raw"),
		NAs:     []store.NA{{AS: 1, Addr: netaddr.AddrFromOctets(192, 0, 2, 9)}},
		Version: 3,
	}
}

func TestRawProtocolRoundTrip(t *testing.T) {
	n, addr := startNode(t)
	conn := dialConn(t, addr)

	// Insert.
	payload, err := wire.AppendEntry(nil, testEntry())
	if err != nil {
		t.Fatal(err)
	}
	if typ, _ := exchange(t, conn, wire.MsgInsert, payload); typ != wire.MsgInsertAck {
		t.Fatalf("insert reply = %v", typ)
	}
	if n.Store().Len() != 1 {
		t.Fatalf("store len = %d", n.Store().Len())
	}

	// Lookup hit.
	typ, body := exchange(t, conn, wire.MsgLookup, wire.AppendGUID(nil, testEntry().GUID))
	if typ != wire.MsgLookupResp {
		t.Fatalf("lookup reply = %v", typ)
	}
	var e store.Entry
	found, err := wire.DecodeLookupRespInto(&e, body)
	if err != nil || !found || e.Version != 3 {
		t.Fatalf("lookup resp = (%t %+v, %v)", found, e, err)
	}

	// Lookup miss.
	_, body = exchange(t, conn, wire.MsgLookup, wire.AppendGUID(nil, guid.New("missing")))
	if found, err := wire.DecodeLookupRespInto(&e, body); err != nil || found {
		t.Fatalf("miss resp = (%t, %v)", found, err)
	}

	// Delete.
	typ, body = exchange(t, conn, wire.MsgDelete, wire.AppendGUID(nil, testEntry().GUID))
	if typ != wire.MsgDeleteAck || len(body) != 1 || body[0] != 1 {
		t.Fatalf("delete reply = (%v, %v)", typ, body)
	}

	// Ping.
	if typ, _ := exchange(t, conn, wire.MsgPing, nil); typ != wire.MsgPong {
		t.Fatalf("ping reply = %v", typ)
	}

	st := n.Stats()
	if st.Inserts != 1 || st.Lookups != 2 || st.Hits != 1 || st.Deletes != 1 {
		t.Errorf("stats = %+v", st)
	}
}

// TestMalformedFrameKeepsConnection: an insert frame with a garbage
// payload must not crash the node; the peer gets a MsgError under the
// request's own ID saying why, the bad request is counted, and — the
// framing being intact — the connection goes on serving.
func TestMalformedFrameKeepsConnection(t *testing.T) {
	n, addr := startNode(t)
	conn := dialConn(t, addr)

	typ, body := exchange(t, conn, wire.MsgInsert, []byte{1, 2, 3})
	if typ != wire.MsgError {
		t.Fatalf("want MsgError reply, got %v", typ)
	}
	if kind, reason, err := wire.DecodeErrorKind(body); err != nil || kind != wire.ErrKindBadRequest || reason == "" {
		t.Fatalf("error = (%v, %q, %v), want a bad request with a reason", kind, reason, err)
	}
	if typ, _ := exchange(t, conn, wire.MsgPing, nil); typ != wire.MsgPong {
		t.Fatalf("connection unusable after a malformed frame: ping answered %v", typ)
	}
	if n.Stats().BadRequests == 0 {
		t.Error("malformed frame should be counted")
	}
}

// TestUnknownFrameType: a frame type the node does not know is refused
// under its ID and the connection stays usable.
func TestUnknownFrameType(t *testing.T) {
	_, addr := startNode(t)
	conn := dialConn(t, addr)
	typ, body := exchange(t, conn, wire.MsgType(200), nil)
	if typ != wire.MsgError {
		t.Fatalf("want MsgError reply, got %v", typ)
	}
	if kind, _, err := wire.DecodeErrorKind(body); err != nil || kind != wire.ErrKindBadRequest {
		t.Fatalf("error kind = (%v, %v), want bad request", kind, err)
	}
	if typ, _ := exchange(t, conn, wire.MsgPing, nil); typ != wire.MsgPong {
		t.Fatalf("connection unusable after an unknown frame: ping answered %v", typ)
	}
}

func TestDrainRejectsWritesServesReads(t *testing.T) {
	n, addr := startNode(t)
	conn := dialConn(t, addr)

	// Seed one entry while healthy.
	payload, err := wire.AppendEntry(nil, testEntry())
	if err != nil {
		t.Fatal(err)
	}
	if typ, _ := exchange(t, conn, wire.MsgInsert, payload); typ != wire.MsgInsertAck {
		t.Fatalf("healthy insert: %v", typ)
	}

	n.Drain()
	if !n.Draining() {
		t.Fatal("Draining() false after Drain()")
	}

	// Writes are rejected with MsgError on a live connection — no hang,
	// no disconnect.
	typ, body := exchange(t, conn, wire.MsgInsert, payload)
	if typ != wire.MsgError {
		t.Fatalf("draining insert: %v, want MsgError", typ)
	}
	if _, reason, _ := wire.DecodeErrorKind(body); reason == "" {
		t.Error("empty drain reason")
	}
	if typ, _ := exchange(t, conn, wire.MsgDelete, wire.AppendGUID(nil, testEntry().GUID)); typ != wire.MsgError {
		t.Fatalf("draining delete: %v, want MsgError", typ)
	}

	// Reads still served on the same connection.
	typ, body = exchange(t, conn, wire.MsgLookup, wire.AppendGUID(nil, testEntry().GUID))
	if typ != wire.MsgLookupResp {
		t.Fatalf("draining lookup: %v", typ)
	}
	found, err := wire.DecodeLookupRespInto(new(store.Entry), body)
	if err != nil || !found {
		t.Fatalf("draining lookup lost the entry: (%t, %v)", found, err)
	}

	if st := n.Stats(); st.Rejects != 2 {
		t.Errorf("rejects = %d, want 2", st.Rejects)
	}

	// Resume restores writes.
	n.Resume()
	if typ, _ := exchange(t, conn, wire.MsgInsert, payload); typ != wire.MsgInsertAck {
		t.Fatalf("post-resume insert: %v", typ)
	}
}

func TestOversizedFrameRejected(t *testing.T) {
	_, addr := startNode(t)
	conn := dial(t, addr)
	// Claim a payload beyond MaxFrame; the server must drop the
	// connection without allocating it.
	hostile := []byte{0xFF, 0xFF, 0xFF, 0xFF, byte(wire.MsgInsert)}
	if _, err := conn.Write(hostile); err != nil {
		t.Fatal(err)
	}
	_ = conn.SetReadDeadline(time.Now().Add(time.Second))
	if _, _, err := wire.ReadFrame(conn); err == nil {
		t.Fatal("expected closed connection")
	}
}

func TestCloseIsIdempotentAndStopsAccepting(t *testing.T) {
	n, addr := startNode(t)
	if err := n.Close(); err != nil {
		t.Fatal(err)
	}
	if err := n.Close(); err != nil {
		t.Fatal("second close should be a no-op")
	}
	// A dial may succeed briefly on some platforms via the backlog; the
	// handshake behind it must not.
	if conn, err := wire.Dial(context.Background(), addr, 300*time.Millisecond); err == nil {
		conn.Close()
		t.Fatal("closed node completed a handshake")
	}
}

func TestStartAfterCloseFails(t *testing.T) {
	n := NewWithOptions(nil, Options{})
	if err := n.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := n.Start("127.0.0.1:0"); err == nil {
		t.Fatal("start after close should fail")
	}
}

func TestStartBadAddress(t *testing.T) {
	n := NewWithOptions(nil, Options{})
	defer n.Close()
	if _, err := n.Start("256.256.256.256:99999"); err == nil {
		t.Fatal("bad address should fail")
	}
}

func TestVersionConflictOverWire(t *testing.T) {
	n, addr := startNode(t)
	conn := dialConn(t, addr)
	put := func(version uint64, as int) {
		t.Helper()
		e := testEntry()
		e.Version = version
		e.NAs[0].AS = as
		payload, err := wire.AppendEntry(nil, e)
		if err != nil {
			t.Fatal(err)
		}
		if typ, _ := exchange(t, conn, wire.MsgInsert, payload); typ != wire.MsgInsertAck {
			t.Fatalf("put reply = %v", typ)
		}
	}
	put(5, 1)
	put(4, 2) // stale: acked but ignored
	e, ok := n.Store().Get(testEntry().GUID)
	if !ok || e.Version != 5 || e.NAs[0].AS != 1 {
		t.Errorf("stale write applied: %+v", e)
	}
}
