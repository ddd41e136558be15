package server

import (
	"bytes"
	"io"
	"slices"
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
	var corked int64  // the connection's count
	n.admit.acquire() // saturate the global limit
	ok, global := n.tryAdmit(&corked, wire.MsgLookup)
	if ok || !global {
		t.Fatalf("tryAdmit over global limit = (ok=%t, global=%t), want (false, true)", ok, global)
	}
	if corked != 0 {
		t.Fatalf("per-conn claim leaked on global refusal: %d", corked)
	}
	n.admit.release()
	if ok, _ := n.tryAdmit(&corked, wire.MsgLookup); !ok {
		t.Fatal("tryAdmit refused under both limits")
	}
	n.admitRelease(&corked)
	if corked != 0 || n.admit.inflight() != 0 {
		t.Fatalf("admitRelease left claims: conn=%d global=%d", corked, n.admit.inflight())
	}
}

// TestAdmissionZeroAlloc proves the admission check adds no allocations
// to the hot path: admit, release and the shed bookkeeping are all
// atomics over pre-built state.
func TestAdmissionZeroAlloc(t *testing.T) {
	n := NewWithOptions(nil, Options{MaxInflight: 64, MaxConnInflight: 32})
	var corked int64
	if allocs := testing.AllocsPerRun(200, func() {
		if ok, _ := n.tryAdmit(&corked, wire.MsgLookup); ok {
			n.admitRelease(&corked)
		}
	}); allocs != 0 {
		t.Errorf("admit/release allocates %.1f/op, want 0", allocs)
	}
	// The refusal path too: a node being overloaded is exactly when an
	// allocating shed reply would hurt most.
	sat := NewWithOptions(nil, Options{MaxInflight: 1})
	sat.admit.acquire()
	if allocs := testing.AllocsPerRun(200, func() {
		ok, global := sat.tryAdmit(&corked, wire.MsgLookup)
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
// insert is staged into the connection's run and committed from there
// with nothing of it kept by the store, and a served lookup reads into
// the handler's stack and encodes from there — neither allocates, on a
// memory-only node or a durable one, at any NA count, with the hot-key
// tracker on as `serve` has it.
func TestServedOpsZeroAlloc(t *testing.T) {
	durable := durableNode(t, store.Options{Dir: t.TempDir()}, Options{HotKeys: trace.NewHotKeys(32)})
	for name, n := range map[string]*Node{"memory": NewWithOptions(nil, Options{HotKeys: trace.NewHotKeys(32)}), "durable": durable} {
		e := burstEntry(1)
		for j := 1; j < store.MaxNAs; j++ {
			e.NAs = append(e.NAs, store.NA{AS: j, Addr: netaddr.AddrFromOctets(10, 2, 0, byte(j))})
		}
		nas, dst, ins := e.NAs, make([]byte, 0, 256), make([]byte, 0, 256)
		// The read loop's path: serveFrameV2 stages the frame, the flush
		// commits the run and writes the ack (to a peer that discards it).
		peer, conn := tcpPair(t)
		go io.Copy(io.Discard, peer)
		t.Cleanup(func() { peer.Close(); conn.Close() })
		w := wire.NewWriter(conn, nil)
		var run insertRun
		if allocs := testing.AllocsPerRun(200, func() {
			e.Version++
			e.NAs = nas[:1+e.Version%store.MaxNAs]
			payload, _ := wire.AppendEntry(ins[:0], e)
			n.serveFrameV2(conn.RemoteAddr(), w, &run, wire.MsgInsert, e.Version, payload, dst[:0])
			n.commitInserts(&run, w, dst[:0])
			if err := w.Flush(); err != nil {
				t.Fatal(err)
			}
		}); allocs != 0 {
			t.Errorf("%s: a served insert allocates %.1f/op, want 0", name, allocs)
		}
		if st := n.Stats(); st.Inserts != 201 || st.Errors != 0 || st.BadRequests != 0 {
			t.Errorf("%s: %+v after 201 inserts", name, st)
		}
		if got, ok := n.store.Get(e.GUID); !ok || got.Version != e.Version {
			t.Errorf("%s: stored %+v, %v; want version %d", name, got, ok, e.Version)
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

// batchFrames returns a MsgBatchInsert body of burstEntry(0..n-1), every
// fifth one multi-homed, and the MsgBatchLookup body for the same GUIDs.
func batchFrames(t *testing.T, n int) (entries []store.Entry, insert, lookup []byte) {
	t.Helper()
	gs := make([]guid.GUID, n)
	for i := range gs {
		e := burstEntry(i)
		if i%5 == 0 {
			e.NAs = append(e.NAs, store.NA{AS: 7, Addr: netaddr.AddrFromOctets(10, 2, 0, byte(i))})
		}
		entries, gs[i] = append(entries, e), e.GUID
	}
	insert, err := wire.AppendBatchInsert(nil, entries)
	if err != nil {
		t.Fatal(err)
	}
	if lookup, err = wire.AppendBatchLookup(nil, gs); err != nil {
		t.Fatal(err)
	}
	return entries, insert, lookup
}

// TestServedBatchAllocBudget: a served 64-GUID batch frame allocates what
// it did before the node walked a frame twice — the decoded []GUID of a
// lookup, the []bool of an insert's acks — so the stack arrays of
// putBatch's first walk and of store.Warm provably stay on the stack.
func TestServedBatchAllocBudget(t *testing.T) {
	n := NewWithOptions(nil, Options{HotKeys: trace.NewHotKeys(32)})
	_, insert, lookup := batchFrames(t, 64)
	dst := make([]byte, 0, 8<<10)
	for _, c := range []struct {
		name string
		typ  wire.MsgType
		body []byte
		want wire.MsgType
	}{
		{"insert", wire.MsgBatchInsert, insert, wire.MsgBatchInsertAck},
		{"lookup", wire.MsgBatchLookup, lookup, wire.MsgBatchLookupResp},
	} {
		if allocs := testing.AllocsPerRun(100, func() {
			if typ, _ := n.handle(c.typ, c.body, nil, nil, dst, time.Now()); typ != c.want {
				t.Fatalf("batch %s answered %v", c.name, typ)
			}
		}); allocs > 1 {
			t.Errorf("a served 64-GUID batch %s allocates %.1f/op, want ≤ 1", c.name, allocs)
		}
	}
}

// TestFullBatchFrameSpansWarmChunks: a MaxBatch-entry frame — eight of
// putBatch's 64-GUID warm chunks, two of store.Warm's 256 — stores and
// acks every entry, counts the frame once and tells the tracker of each
// GUID once; and the tracker decides nothing: the replies of a node with
// -hotkeys 32 and of one with -hotkeys 0 are the same bytes.
func TestFullBatchFrameSpansWarmChunks(t *testing.T) {
	entries, insert, lookup := batchFrames(t, wire.MaxBatch)
	tracked := NewWithOptions(nil, Options{HotKeys: trace.NewHotKeys(32)})
	plain := NewWithOptions(nil, Options{})
	for _, c := range []struct {
		name string
		typ  wire.MsgType
		body []byte
	}{{"insert", wire.MsgBatchInsert, insert}, {"lookup", wire.MsgBatchLookup, lookup}} {
		typ, out := tracked.handle(c.typ, c.body, nil, nil, nil, time.Now())
		ptyp, pout := plain.handle(c.typ, c.body, nil, nil, nil, time.Now())
		if typ != ptyp || !bytes.Equal(out, pout) {
			t.Fatalf("batch %s: reply %v (%d bytes) with the tracker on, %v (%d bytes) with it off", c.name, typ, len(out), ptyp, len(pout))
		}
		switch c.typ {
		case wire.MsgBatchInsert:
			acked, err := wire.DecodeBatchInsertAck(out)
			if err != nil || len(acked) != len(entries) || slices.Contains(acked, false) {
				t.Fatalf("batch insert: acks %v (%v), want %d of true", acked, err, len(entries))
			}
		case wire.MsgBatchLookup:
			resps, err := wire.DecodeBatchLookupResp(out)
			if err != nil || len(resps) != len(entries) {
				t.Fatalf("batch lookup: %d responses (%v), want %d", len(resps), err, len(entries))
			}
			for i, r := range resps {
				if !r.Found || r.Entry.GUID != entries[i].GUID || !slices.Equal(r.Entry.NAs, entries[i].NAs) {
					t.Fatalf("batch lookup: response %d = %+v, want %+v", i, r, entries[i])
				}
			}
		}
	}
	const want = wire.MaxBatch
	if st := tracked.Stats(); tracked.Store().Len() != want || st.Inserts != want || st.Lookups != want || st.Hits != want {
		t.Errorf("Len = %d, Stats = %+v; want %d stored, inserted, looked up and hit", tracked.Store().Len(), st, want)
	}
	if l, i := tracked.HotKeys().Totals(); l != want || i != want {
		t.Errorf("tracker totals = %d lookups, %d inserts; want %d each", l, i, want)
	}
}

// TestMalformedBatchInsertStoresNothing: a refused frame has no effect.
// putBatch's first walk sees the whole body before anything is stored,
// so a MsgBatchInsert bad anywhere — part-way, or only past its last
// entry — is answered MsgError{BadRequest} with the store, its dump and
// the tracker's totals exactly as they were.
func TestMalformedBatchInsertStoresNothing(t *testing.T) {
	entries := []store.Entry{burstEntry(0), burstEntry(1), burstEntry(2)}
	body, err := wire.AppendBatchInsert(nil, entries)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		body []byte
	}{
		{"cut inside entry 2", body[:len(body)-3]},
		{"cut inside entry 0", body[:10]},
		{"trailing byte", append(append([]byte(nil), body...), 0)},
	} {
		n := NewWithOptions(nil, Options{HotKeys: trace.NewHotKeys(32)})
		dump := n.Store().AppendDump(nil)
		typ, out := n.handle(wire.MsgBatchInsert, c.body, nil, nil, nil, time.Now())
		if kind, _, err := wire.DecodeErrorKind(out); typ != wire.MsgError || err != nil || kind != wire.ErrKindBadRequest {
			t.Errorf("%s: answered %v kind %v (%v), want MsgError BadRequest", c.name, typ, kind, err)
		}
		if got := n.Store().Len(); got != 0 || !bytes.Equal(n.Store().AppendDump(nil), dump) {
			t.Errorf("%s: %d entries stored by a refused frame", c.name, got)
		}
		if _, ins := n.HotKeys().Totals(); ins != 0 || n.Stats().Inserts != 0 {
			t.Errorf("%s: a refused frame counted %d tracker inserts, %d inserts", c.name, ins, n.Stats().Inserts)
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
		typ, body := exchange(t, dialConn(t, addr), wire.MsgInsert, insert)
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
	if typ, _ := exchange(t, dialConn(t, addr), wire.MsgPing, nil); typ != wire.MsgPong {
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
// the read loop's flush on the way out releases its burst's claims, so a
// dying conn cannot leak node capacity.
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
	if typ, _ := exchange(t, dialConn(t, addr), wire.MsgLookup, wire.AppendGUID(nil, guid.New("alive"))); typ != wire.MsgLookupResp {
		t.Fatalf("post-death lookup = %v, want MsgLookupResp", typ)
	}
}

// TestPerConnVsGlobalAttribution: refusals at the per-conn limit and at
// the global limit land on their own counters.
func TestPerConnVsGlobalAttribution(t *testing.T) {
	n := NewWithOptions(nil, Options{MaxInflight: 100, MaxConnInflight: 1})
	corked := int64(1) // conn at its limit
	if ok, global := n.tryAdmit(&corked, wire.MsgLookup); ok || global {
		t.Fatalf("per-conn refusal = (ok=%t, global=%t), want (false, false)", ok, global)
	}
	n.countShed(false)
	if n.shedsConn.Value() != 1 || n.shedsGlobal.Value() != 0 {
		t.Errorf("after conn shed: conn=%d global=%d", n.shedsConn.Value(), n.shedsGlobal.Value())
	}
	corked = 0
	for i := 0; i < 100; i++ {
		n.admit.acquire() // node at its limit
	}
	if ok, global := n.tryAdmit(&corked, wire.MsgLookup); ok || !global {
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
