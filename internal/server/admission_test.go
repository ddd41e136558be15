package server

import (
	"testing"
	"time"

	"dmap/internal/guid"
	"dmap/internal/netaddr"
	"dmap/internal/store"
	"dmap/internal/trace"
	"dmap/internal/wire"
)

func startNodeOpts(t *testing.T, opts Options) (*Node, string) {
	t.Helper()
	n := NewWithOptions(nil, opts)
	addr, err := n.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { n.Close() })
	return n, addr
}

func TestLimiterEdgeCases(t *testing.T) {
	// max 0 and negative mean unbounded: never refuse, still count.
	for _, max := range []int64{0, -1} {
		l := &limiter{max: max}
		for i := 0; i < 1000; i++ {
			if !l.tryAcquire() {
				t.Fatalf("max=%d: refused at %d in flight", max, i)
			}
		}
		if got := l.inflight(); got != 1000 {
			t.Fatalf("max=%d: inflight = %d, want 1000", max, got)
		}
	}

	// A cap refuses exactly at the limit and recovers on release.
	l := &limiter{max: 2}
	if !l.tryAcquire() || !l.tryAcquire() {
		t.Fatal("limiter refused under its cap")
	}
	if l.tryAcquire() {
		t.Fatal("limiter admitted beyond its cap")
	}
	if got := l.inflight(); got != 2 {
		t.Fatalf("refused acquire leaked a claim: inflight = %d, want 2", got)
	}
	l.release()
	if !l.tryAcquire() {
		t.Fatal("limiter did not recover after release")
	}

	// Forced acquire (the ping path) ignores the cap but is counted.
	l.acquire()
	if got := l.inflight(); got != 3 {
		t.Fatalf("inflight after forced acquire = %d, want 3", got)
	}
}

func TestTryAdmitReleasesPerConnOnGlobalRefusal(t *testing.T) {
	n := NewWithOptions(nil, Options{MaxInflight: 1, MaxConnInflight: 8})
	ca := &limiter{max: n.maxConnInflight}
	n.admit.acquire() // saturate the global limit
	ok, global := n.tryAdmit(ca, wire.MsgLookup)
	if ok || !global {
		t.Fatalf("tryAdmit over global limit = (ok=%t, global=%t), want (false, true)", ok, global)
	}
	if got := ca.inflight(); got != 0 {
		t.Fatalf("per-conn claim leaked on global refusal: %d", got)
	}
	n.admit.release()
	if ok, _ := n.tryAdmit(ca, wire.MsgLookup); !ok {
		t.Fatal("tryAdmit refused under both limits")
	}
	n.admitRelease(ca)
	if ca.inflight() != 0 || n.admit.inflight() != 0 {
		t.Fatalf("admitRelease left claims: conn=%d global=%d", ca.inflight(), n.admit.inflight())
	}
}

// TestAdmissionZeroAlloc proves the admission check adds no allocations
// to the hot path: admit, release and the shed bookkeeping are all
// atomics over pre-built state.
func TestAdmissionZeroAlloc(t *testing.T) {
	n := NewWithOptions(nil, Options{MaxInflight: 64, MaxConnInflight: 32})
	ca := &limiter{max: n.maxConnInflight}
	if allocs := testing.AllocsPerRun(200, func() {
		if ok, _ := n.tryAdmit(ca, wire.MsgLookup); ok {
			n.admitRelease(ca)
		}
	}); allocs != 0 {
		t.Errorf("admit/release allocates %.1f/op, want 0", allocs)
	}
	// The refusal path too: a node being overloaded is exactly when an
	// allocating shed reply would hurt most.
	sat := NewWithOptions(nil, Options{MaxInflight: 1})
	sat.admit.acquire()
	if allocs := testing.AllocsPerRun(200, func() {
		ok, global := sat.tryAdmit(ca, wire.MsgLookup)
		if ok {
			t.Fatal("saturated node admitted")
		}
		sat.countShed(global)
		_ = shedBody(global)
	}); allocs != 0 {
		t.Errorf("shed path allocates %.1f/op, want 0", allocs)
	}
}

// TestServedOpsZeroAlloc: with records packed in the store, a served
// insert decodes into the handler's stack and Put keeps nothing of it,
// and a served lookup reads into the handler's stack and encodes from
// there — neither allocates, on a memory-only node or a durable one, at
// any NA count, with the hot-key tracker on as `serve` has it.
func TestServedOpsZeroAlloc(t *testing.T) {
	durable, err := Open(Options{DataDir: t.TempDir(), HotKeys: trace.NewHotKeys(32)})
	if err != nil {
		t.Fatal(err)
	}
	defer durable.Close()
	for name, n := range map[string]*Node{"memory": NewWithOptions(nil, Options{HotKeys: trace.NewHotKeys(32)}), "durable": durable} {
		e := burstEntry(1)
		for j := 1; j < store.MaxNAs; j++ {
			e.NAs = append(e.NAs, store.NA{AS: j, Addr: netaddr.AddrFromOctets(10, 2, 0, byte(j))})
		}
		nas, dst := e.NAs, make([]byte, 0, 256)
		var payload []byte
		if allocs := testing.AllocsPerRun(200, func() {
			e.Version++
			e.NAs = nas[:1+e.Version%store.MaxNAs]
			payload, _ = wire.AppendEntry(payload[:0], e)
			if typ, _ := n.handle(wire.MsgInsert, payload, nil, nil, dst, time.Now()); typ != wire.MsgInsertAck {
				t.Fatalf("insert answered %v", typ)
			}
		}); allocs != 0 {
			t.Errorf("%s: a served insert allocates %.1f/op, want 0", name, allocs)
		}
		req := wire.AppendGUID(nil, e.GUID)
		if allocs := testing.AllocsPerRun(200, func() {
			if typ, out := n.handle(wire.MsgLookup, req, nil, nil, dst, time.Now()); typ != wire.MsgLookupResp || len(out) < 2 {
				t.Fatalf("lookup answered %v, %d bytes", typ, len(out))
			}
		}); allocs != 0 {
			t.Errorf("%s: a served lookup allocates %.1f/op, want 0", name, allocs)
		}
	}
}

// TestMalformedBatchInsertKeepsLeadingEntries pins what putBatch's
// decode-and-store-as-you-go leaves behind when a MsgBatchInsert body is
// bad part-way: the frame is answered MsgError{BadRequest}, the entries
// decoded before the fault are stored, nothing after it is.
func TestMalformedBatchInsertKeepsLeadingEntries(t *testing.T) {
	entries := []store.Entry{burstEntry(0), burstEntry(1), burstEntry(2)}
	body, err := wire.AppendBatchInsert(nil, entries)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name   string
		body   []byte
		stored int
	}{
		{"cut inside entry 2", body[:len(body)-3], 2},
		{"cut inside entry 0", body[:10], 0},
		{"trailing byte", append(append([]byte(nil), body...), 0), 3},
	} {
		n := NewWithOptions(nil, Options{})
		typ, out := n.handle(wire.MsgBatchInsert, c.body, nil, nil, nil, time.Now())
		if kind, _, err := wire.DecodeErrorKind(out); typ != wire.MsgError || err != nil || kind != wire.ErrKindBadRequest {
			t.Errorf("%s: answered %v kind %v (%v), want MsgError BadRequest", c.name, typ, kind, err)
		}
		if got := n.Store().Len(); got != c.stored {
			t.Errorf("%s: %d entries stored, want %d", c.name, got, c.stored)
		}
		for i, e := range entries {
			if _, ok := n.Store().Get(e.GUID); ok != (i < c.stored) {
				t.Errorf("%s: entry %d stored = %v", c.name, i, ok)
			}
		}
	}
}

// TestShedDistinctFromDrainOverWire drives both refusal flavors through
// real TCP conns and checks a client can tell them apart by kind: a
// draining node answers ErrKindDraining, an overloaded node answers
// ErrKindShed, for the same request bytes.
func TestShedDistinctFromDrainOverWire(t *testing.T) {
	insert, err := wire.AppendEntry(nil, testEntry())
	if err != nil {
		t.Fatal(err)
	}

	refusal := func(n *Node, addr string) wire.ErrKind {
		t.Helper()
		typ, body := exchange(t, dialConn(t, addr, 0), wire.MsgInsert, insert)
		if typ != wire.MsgError {
			t.Fatalf("reply = %v, want MsgError", typ)
		}
		kind, _, err := wire.DecodeErrorKind(body)
		if err != nil {
			t.Fatal(err)
		}
		return kind
	}

	drainNode, drainAddr := startNode(t)
	drainNode.Drain()
	shedNode, shedAddr := startNodeOpts(t, Options{MaxInflight: 1})
	shedNode.admit.acquire() // node saturated: every request refused
	defer shedNode.admit.release()

	dk := refusal(drainNode, drainAddr)
	sk := refusal(shedNode, shedAddr)
	if dk != wire.ErrKindDraining {
		t.Errorf("draining refusal kind = %v, want ErrKindDraining", dk)
	}
	if sk != wire.ErrKindShed {
		t.Errorf("overload refusal kind = %v, want ErrKindShed", sk)
	}
	if dk == sk {
		t.Error("drain and shed refusals are indistinguishable on the wire")
	}
	if sheds := shedNode.Stats().Sheds; sheds != 1 {
		t.Errorf("shed node Stats().Sheds = %d, want 1", sheds)
	}
	if sheds := drainNode.Stats().Sheds; sheds != 0 {
		t.Errorf("drain node Stats().Sheds = %d, want 0", sheds)
	}
}

// TestPingNeverShed: an overloaded node still answers liveness probes —
// shedding pings would make saturation look like death and trigger the
// failover stampede admission control exists to prevent.
func TestPingNeverShed(t *testing.T) {
	n, addr := startNodeOpts(t, Options{MaxInflight: 1})
	n.admit.acquire()
	defer n.admit.release()
	if typ, _ := exchange(t, dialConn(t, addr, 0), wire.MsgPing, nil); typ != wire.MsgPong {
		t.Fatalf("ping on saturated node = %v, want MsgPong", typ)
	}
}

// TestShedPipelinedV2 saturates a node and pipelines a burst of
// identified frames at it: every frame must be answered under its own
// request ID with an ErrKindShed error, the connection must survive,
// and service must resume once the node has capacity again.
func TestShedPipelinedV2(t *testing.T) {
	n, addr := startNodeOpts(t, Options{MaxInflight: 1})
	conn := dial(t, addr)
	hello(t, conn)

	n.admit.acquire() // saturate
	const burst = 64
	g := guid.New("shed-target")
	var reqs []byte
	for id := uint64(1); id <= burst; id++ {
		var err error
		reqs, err = wire.AppendFrameID(reqs, wire.MsgLookup, id, wire.AppendGUID(nil, g))
		if err != nil {
			t.Fatal(err)
		}
	}
	if _, err := conn.Write(reqs); err != nil {
		t.Fatal(err)
	}
	seen := make(map[uint64]bool)
	buf := make([]byte, 4096)
	for i := 0; i < burst; i++ {
		typ, id, body, err := wire.ReadFrameIDInto(conn, buf)
		if err != nil {
			t.Fatalf("reply %d: %v", i, err)
		}
		if typ != wire.MsgError {
			t.Fatalf("reply id %d = %v, want MsgError", id, typ)
		}
		kind, _, err := wire.DecodeErrorKind(body)
		if err != nil || kind != wire.ErrKindShed {
			t.Fatalf("reply id %d kind = (%v, %v), want ErrKindShed", id, kind, err)
		}
		if seen[id] || id < 1 || id > burst {
			t.Fatalf("reply id %d duplicated or out of range", id)
		}
		seen[id] = true
	}
	if got := n.Stats().Sheds; got != burst {
		t.Errorf("Sheds = %d, want %d", got, burst)
	}

	// Capacity back: the same connection serves again.
	n.admit.release()
	probe, err := wire.AppendFrameID(nil, wire.MsgLookup, 999, wire.AppendGUID(nil, g))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write(probe); err != nil {
		t.Fatal(err)
	}
	typ, id, _, err := wire.ReadFrameIDInto(conn, buf)
	if err != nil || typ != wire.MsgLookupResp || id != 999 {
		t.Fatalf("post-recovery reply = (%v, id=%d, %v), want MsgLookupResp id 999", typ, id, err)
	}
}

// TestLimiterReleaseOnConnDeath kills a v2 connection with admitted
// frames in flight and verifies the global limiter drains back to zero:
// worker completion releases claims, so a dying conn cannot leak node
// capacity.
func TestLimiterReleaseOnConnDeath(t *testing.T) {
	n, addr := startNodeOpts(t, Options{MaxInflight: 16, MaxConnInflight: 8})
	conn := dial(t, addr)
	hello(t, conn)

	var reqs []byte
	for id := uint64(1); id <= 200; id++ {
		var err error
		reqs, err = wire.AppendFrameID(reqs, wire.MsgLookup, id, wire.AppendGUID(nil, guid.New("die")))
		if err != nil {
			t.Fatal(err)
		}
	}
	if _, err := conn.Write(reqs); err != nil {
		t.Fatal(err)
	}
	conn.Close() // die mid-burst, replies unread

	deadline := time.Now().Add(5 * time.Second)
	for n.admit.inflight() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("global inflight stuck at %d after conn death", n.admit.inflight())
		}
		time.Sleep(time.Millisecond)
	}

	// The freed capacity is usable by a new connection.
	if typ, _ := exchange(t, dialConn(t, addr, 0), wire.MsgLookup, wire.AppendGUID(nil, guid.New("alive"))); typ != wire.MsgLookupResp {
		t.Fatalf("post-death lookup = %v, want MsgLookupResp", typ)
	}
}

// TestPerConnVsGlobalAttribution: refusals at the per-conn limit and at
// the global limit land on their own counters.
func TestPerConnVsGlobalAttribution(t *testing.T) {
	n := NewWithOptions(nil, Options{MaxInflight: 100, MaxConnInflight: 1})
	ca := &limiter{max: n.maxConnInflight}
	ca.acquire() // conn at its limit
	if ok, global := n.tryAdmit(ca, wire.MsgLookup); ok || global {
		t.Fatalf("per-conn refusal = (ok=%t, global=%t), want (false, false)", ok, global)
	}
	n.countShed(false)
	if n.shedsConn.Value() != 1 || n.shedsGlobal.Value() != 0 {
		t.Errorf("after conn shed: conn=%d global=%d", n.shedsConn.Value(), n.shedsGlobal.Value())
	}
	ca.release()
	for i := 0; i < 100; i++ {
		n.admit.acquire() // node at its limit
	}
	if ok, global := n.tryAdmit(ca, wire.MsgLookup); ok || !global {
		t.Fatalf("global refusal = (ok=%t, global=%t), want (false, true)", ok, global)
	}
	n.countShed(true)
	if n.shedsConn.Value() != 1 || n.shedsGlobal.Value() != 1 {
		t.Errorf("after global shed: conn=%d global=%d", n.shedsConn.Value(), n.shedsGlobal.Value())
	}
	if got := n.Stats().Sheds; got != 2 {
		t.Errorf("Stats().Sheds = %d, want 2", got)
	}
}
