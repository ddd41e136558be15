package server

import (
	"bytes"
	"errors"
	"fmt"
	"log/slog"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dmap/internal/guid"
	"dmap/internal/netaddr"
	"dmap/internal/store"
	"dmap/internal/trace"
	"dmap/internal/wire"
)

// countedConn counts the Read and Write calls the server makes on its
// end of a connection: each is one read(2)/write(2) on a TCP socket. A
// Read counts when it returns, so the one a connection idles in belongs
// to the burst that ends it.
type countedConn struct {
	net.Conn
	reads, writes atomic.Int64
	maxWrite      atomic.Int64 // the largest single Write, in bytes
}

func (c *countedConn) Read(b []byte) (int, error) {
	defer c.reads.Add(1)
	return c.Conn.Read(b)
}

func (c *countedConn) Write(b []byte) (int, error) {
	c.writes.Add(1)
	if n := int64(len(b)); n > c.maxWrite.Load() {
		c.maxWrite.Store(n) // one flusher at a time: no race to lose
	}
	return c.Conn.Write(b)
}

// tcpPair returns the two ends of a loopback TCP connection, the
// accepted one wrapped in a countedConn.
func tcpPair(t *testing.T) (net.Conn, *countedConn) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	accepted, err := ln.Accept()
	if err != nil {
		conn.Close()
		t.Fatal(err)
	}
	return conn, &countedConn{Conn: accepted}
}

// serveOn runs serve on its own goroutine and, at cleanup, closes conn
// and waits for it to return. The dialed end gets a 10 s deadline.
func serveOn(t *testing.T, conn net.Conn, serve func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		serve()
	}()
	t.Cleanup(func() {
		conn.Close()
		<-done
	})
}

// serveCounted runs n.serveConn on the accepted end of a loopback TCP
// pair, wrapped in a countedConn, and returns the dialed end with the
// handshake done.
func serveCounted(t *testing.T, n *Node) (net.Conn, *countedConn) {
	t.Helper()
	conn, cc := tcpPair(t)
	serveOn(t, conn, func() { n.serveConn(cc) })
	if err := wire.Handshake(conn, time.Second); err != nil {
		t.Fatalf("handshake: %v", err)
	}
	_ = conn.SetDeadline(time.Now().Add(10 * time.Second)) // after the handshake, which clears the deadline
	return conn, cc
}

// atProcs runs f at GOMAXPROCS 1 and 4: the flush policy the syscall
// counts rest on is scheduler-dependent, and one P is both the
// benchmark's configuration and the case without overlap between
// appenders and an in-flight Write.
func atProcs(t *testing.T, f func(t *testing.T)) {
	for _, procs := range []int{1, 4} {
		t.Run(fmt.Sprintf("procs=%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			f(t)
		})
	}
}

// freshBuf is a wire.Reader payload source that supplies new storage
// for every payload, so none is a view and each can be kept.
func freshBuf(_ wire.MsgType, n int) []byte { return make([]byte, 0, n) }

func burstEntry(i int) store.Entry {
	return store.Entry{
		GUID:    guid.New(fmt.Sprintf("burst-%d", i)),
		NAs:     []store.NA{{AS: i + 1, Addr: netaddr.AddrFromOctets(10, 1, byte(i>>8), byte(i))}},
		Version: uint64(i + 1),
	}
}

// TestPipelinedBurstSharesSyscalls pipelines 64 lookups in one write and
// checks every reply, then the cost: the read loop answers the burst it
// read into the corked Writer and flushes once per drained buffer, so the
// burst costs a handful of Reads and no more Writes than Reads — at any
// number of Ps, since no second goroutine is involved.
func TestPipelinedBurstSharesSyscalls(t *testing.T) {
	atProcs(t, func(t *testing.T) {
		const burst = 64
		n := NewWithOptions(nil, Options{})
		for i := 0; i < burst; i += 2 { // odd GUIDs stay misses
			if _, err := n.store.Put(burstEntry(i)); err != nil {
				t.Fatal(err)
			}
		}
		conn, cc := serveCounted(t, n)
		var reqs []byte
		for i := 0; i < burst; i++ {
			var err error
			if reqs, err = wire.AppendFrameID(reqs, wire.MsgLookup, uint64(1000+i), wire.AppendGUID(nil, burstEntry(i).GUID)); err != nil {
				t.Fatal(err)
			}
		}
		reads, writes := cc.reads.Load(), cc.writes.Load()
		if _, err := conn.Write(reqs); err != nil {
			t.Fatal(err)
		}
		rd := wire.NewReader(conn)
		seen := make(map[uint64]bool)
		for len(seen) < burst {
			typ, id, body, err := rd.Next(freshBuf)
			if err != nil {
				t.Fatalf("after %d replies: %v", len(seen), err)
			}
			i := int(id) - 1000
			if typ != wire.MsgLookupResp || i < 0 || i >= burst || seen[id] {
				t.Fatalf("reply (%v, id %d) unexpected or repeated", typ, id)
			}
			seen[id] = true
			var e store.Entry
			found, err := wire.DecodeLookupRespInto(&e, body)
			if err != nil {
				t.Fatal(err)
			}
			if want := burstEntry(i); found != (i%2 == 0) || (found && (e.GUID != want.GUID || e.Version != want.Version || e.NAs[0] != want.NAs[0])) {
				t.Fatalf("reply %d = %t %+v, want found=%t %+v", id, found, e, i%2 == 0, want)
			}
		}
		reads, writes = cc.reads.Load()-reads, cc.writes.Load()-writes
		t.Logf("%d pipelined lookups: %d server Reads, %d server Writes", burst, reads, writes)
		if reads > 16 {
			t.Fatalf("%d lookups cost %d Reads on the server, want <= 16", burst, reads)
		}
		if writes > reads || writes > 16 {
			t.Fatalf("%d lookups cost %d Writes on the server for %d Reads, want one flush per drained buffer and <= 16", burst, writes, reads)
		}
		if got := n.v2Frames.Value(); got != burst {
			t.Fatalf("v2_frames = %d, want %d", got, burst)
		}
	})
}

// TestInlineBurstTakesNothingFromPool: the read loop serves lookups,
// inserts and pings from views into the reader's buffer and answers them
// from its own scratch, so a burst of them neither draws from serverBufs
// nor gives it anything back. The free list is emptied first: a Get
// would then make, and the Put after it would leave a buffer idle. A
// second burst mixes 64-GUID batch lookups and batch inserts in, served
// from views too, their replies encoded into pooled buffers: with the
// free list holding a few buffers large enough for any reply, exactly
// those are idle once the burst is answered. Every reply is checked byte
// for byte — a view read after the next Next holds the frames that came
// after it — and so is what the inserts stored.
func TestInlineBurstTakesNothingFromPool(t *testing.T) {
	atProcs(t, func(t *testing.T) {
		const lookups, every, batchEvery = 64, 4, 16 // an insert and a ping after every fourth lookup
		n := NewWithOptions(nil, Options{})
		for i := 0; i < lookups; i += 2 { // odd GUIDs stay misses
			if _, err := n.store.Put(burstEntry(i)); err != nil {
				t.Fatal(err)
			}
		}
		conn, _ := serveCounted(t, n)
		rd := wire.NewReader(conn)
		// The answers for GUIDs 0..lookups-1, which no burst writes.
		rs, gs := make([]wire.LookupResp, lookups), make([]guid.GUID, lookups)
		for i := range rs {
			if gs[i] = burstEntry(i).GUID; i%2 == 0 {
				rs[i] = wire.LookupResp{Found: true, Entry: burstEntry(i)}
			}
		}
		burst := func(batches bool) {
			t.Helper()
			var reqs []byte
			want := make(map[uint64][]byte) // request ID → the reply frame
			add := func(typ wire.MsgType, id uint64, body []byte, rtyp wire.MsgType, rbody []byte, err error) {
				if err != nil {
					t.Fatal(err)
				}
				reqs = appendFrame(t, reqs, typ, id, body)
				want[id] = appendFrame(t, nil, rtyp, id, rbody)
			}
			for i := 0; i < lookups; i++ {
				rbody, err := wire.AppendLookupResp(nil, rs[i])
				add(wire.MsgLookup, uint64(1000+i), wire.AppendGUID(nil, gs[i]), wire.MsgLookupResp, rbody, err)
				if i%every == 0 {
					body, err := wire.AppendEntry(nil, burstEntry(lookups+i))
					add(wire.MsgInsert, uint64(2000+i), body, wire.MsgInsertAck, nil, err)
					add(wire.MsgPing, uint64(3000+i), nil, wire.MsgPong, nil, nil)
				}
				if batches && i%batchEvery == 0 {
					body, err := wire.AppendBatchLookup(nil, gs)
					rbody, rerr := wire.AppendBatchLookupResp(nil, rs)
					add(wire.MsgBatchLookup, uint64(4000+i), body, wire.MsgBatchLookupResp, rbody, errors.Join(err, rerr))
					entries := make([]store.Entry, 64)
					for j := range entries {
						entries[j] = burstEntry(10_000 + i*64 + j)
					}
					body, err = wire.AppendBatchInsert(nil, entries)
					acks := make([]bool, len(entries))
					for j := range acks {
						acks[j] = true
					}
					rbody, rerr = wire.AppendBatchInsertAck(nil, acks)
					add(wire.MsgBatchInsert, uint64(5000+i), body, wire.MsgBatchInsertAck, rbody, errors.Join(err, rerr))
				}
			}
			if _, err := conn.Write(reqs); err != nil {
				t.Fatal(err)
			}
			for got, all := 0, len(want); got < all; got++ {
				typ, id, body, err := rd.Next(freshBuf)
				if err != nil {
					t.Fatalf("after %d of %d replies: %v", got, all, err)
				}
				if frame := appendFrame(t, nil, typ, id, body); !bytes.Equal(frame, want[id]) {
					t.Fatalf("reply to %d = (%v, % x), want % x", id, typ, body, want[id])
				}
				delete(want, id) // a repeated reply finds nothing to match
			}
			for i := 0; i < lookups; i += every {
				e := burstEntry(lookups + i)
				if got, ok := n.store.Get(e.GUID); !ok || got.Version != e.Version || got.NAs[0] != e.NAs[0] {
					t.Fatalf("insert %d stored %+v, %v; want %+v", i, got, ok, e)
				}
			}
		}
		for serverBufs.Idle() > 0 {
			serverBufs.Get(0)
		}
		burst(false)
		if idle := serverBufs.Idle(); idle != 0 {
			t.Fatalf("the burst left %d buffer(s) in serverBufs, want 0: the read loop made pool trips", idle)
		}
		const held = 4
		for range held {
			serverBufs.Put(make([]byte, 0, wire.MaxBatchFrame))
		}
		burst(true)
		if idle := serverBufs.Idle(); idle != held {
			t.Fatalf("after a burst with batch frames serverBufs holds %d idle buffer(s), want the %d it held before", idle, held)
		}
		if got, ok := n.store.Get(burstEntry(10_000 + 48*64 + 63).GUID); !ok || got.Version != 10_000+48*64+64 {
			t.Fatalf("the last batch insert stored %+v, %v", got, ok)
		}
	})
}

// appendFrame appends an identified frame of type typ under id.
func appendFrame(t *testing.T, dst []byte, typ wire.MsgType, id uint64, body []byte) []byte {
	t.Helper()
	dst, err := wire.AppendFrameID(dst, typ, id, body)
	if err != nil {
		t.Fatal(err)
	}
	return dst
}

// TestBufferFillingLookupIsRefused: a MsgLookup whose payload fills the
// reader's whole 16 KiB buffer is still served as a view, refused
// BadRequest under its own ID — a lookup is one GUID — and the
// connection goes on serving the frames behind it.
func TestBufferFillingLookupIsRefused(t *testing.T) {
	n := NewWithOptions(nil, Options{})
	if _, err := n.store.Put(burstEntry(0)); err != nil {
		t.Fatal(err)
	}
	conn, _ := serveCounted(t, n)
	reqs, err := wire.AppendFrameID(nil, wire.MsgLookup, 7, patternedGUIDs(wire.MaxFrame))
	if err != nil {
		t.Fatal(err)
	}
	reqs = lookupFrame(t, reqs, 8, 0)
	if reqs, err = wire.AppendFrameID(reqs, wire.MsgPing, 9, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write(reqs); err != nil {
		t.Fatal(err)
	}
	rd := wire.NewReader(conn)
	for range 3 {
		typ, id, body, err := rd.Next(freshBuf)
		if err != nil {
			t.Fatal(err)
		}
		switch id {
		case 7:
			if kind, _, derr := wire.DecodeErrorKind(body); typ != wire.MsgError || derr != nil || kind != wire.ErrKindBadRequest {
				t.Fatalf("buffer-filling lookup answered (%v, kind %v, %v), want BadRequest", typ, kind, derr)
			}
		case 8:
			var e store.Entry
			if found, derr := wire.DecodeLookupRespInto(&e, body); typ != wire.MsgLookupResp || derr != nil || !found || e.Version != burstEntry(0).Version {
				t.Fatalf("lookup behind it answered (%v, %+v, %v)", typ, e, derr)
			}
		case 9:
			if typ != wire.MsgPong {
				t.Fatalf("ping behind it answered %v", typ)
			}
		default:
			t.Fatalf("reply under unknown ID %d", id)
		}
	}
	if st := n.Stats(); st.BadRequests != 1 {
		t.Fatalf("%d bad requests counted, want 1", st.BadRequests)
	}
}

// patternedGUIDs is n bytes of GUIDs back to back: its first GUID alone
// would be a well-formed lookup.
func patternedGUIDs(n int) []byte {
	var b []byte
	for i := 0; len(b) < n; i++ {
		b = wire.AppendGUID(b, burstEntry(i).GUID)
	}
	return b[:n]
}

// insertFrame appends a MsgInsert of e under request id.
func insertFrame(t *testing.T, dst []byte, id uint64, e store.Entry) []byte {
	t.Helper()
	body, err := wire.AppendEntry(nil, e)
	if err == nil {
		dst, err = wire.AppendFrameID(dst, wire.MsgInsert, id, body)
	}
	if err != nil {
		t.Fatal(err)
	}
	return dst
}

// readReplies reads count replies and returns them by request ID.
func readReplies(t *testing.T, conn net.Conn, count int) map[uint64]wire.MsgType {
	t.Helper()
	rd := wire.NewReader(conn)
	got := make(map[uint64]wire.MsgType)
	for len(got) < count {
		typ, id, _, err := rd.Next(freshBuf)
		if err != nil {
			t.Fatalf("after %d of %d replies: %v", len(got), count, err)
		}
		got[id] = typ
	}
	return got
}

// TestPipelinedInsertsOneBurstFreshestWins: two versions of one GUID in
// one write are one staged burst, stored by one run — in either order
// both are acked and the newer is what the node holds, on a memory-only
// node and on a durable one, where the run checks the second against the
// first before either is in the table.
func TestPipelinedInsertsOneBurstFreshestWins(t *testing.T) {
	for _, durable := range []bool{false, true} {
		for _, versions := range [][2]uint64{{5, 6}, {6, 5}} {
			n := NewWithOptions(nil, Options{})
			if durable {
				n = durableNode(t, store.Options{Dir: t.TempDir()}, Options{})
			}
			conn, _ := serveCounted(t, n)
			e := burstEntry(0)
			var reqs []byte
			for i, v := range versions {
				e.Version, e.NAs = v, []store.NA{{AS: int(v), Addr: netaddr.AddrFromOctets(10, 0, 0, byte(v))}}
				reqs = insertFrame(t, reqs, uint64(1+i), e)
			}
			if _, err := conn.Write(reqs); err != nil {
				t.Fatal(err)
			}
			if got := readReplies(t, conn, 2); got[1] != wire.MsgInsertAck || got[2] != wire.MsgInsertAck {
				t.Fatalf("durable=%t, versions %v: replies %v, want two acks", durable, versions, got)
			}
			if got, ok := n.Store().Get(e.GUID); !ok || got.Version != 6 || got.NAs[0].AS != 6 {
				t.Fatalf("durable=%t, versions %v: stored %+v, %v; want version 6", durable, versions, got, ok)
			}
			conn.Close()
			n.Close()
		}
	}
}

// TestInsertBurstOneLogWritePerShard: a burst of pipelined inserts costs
// the durable node at most one log write(2) per shard per read — the
// records per write that store.wal_writes and store.wal_records expose.
func TestInsertBurstOneLogWritePerShard(t *testing.T) {
	n := durableNode(t, store.Options{Dir: t.TempDir(), Shards: 8}, Options{})
	conn, cc := serveCounted(t, n)
	const burst = 64
	var reqs []byte
	for i := 0; i < burst; i++ {
		reqs = insertFrame(t, reqs, uint64(1+i), burstEntry(i))
	}
	reads := cc.reads.Load()
	if _, err := conn.Write(reqs); err != nil {
		t.Fatal(err)
	}
	for id, typ := range readReplies(t, conn, burst) {
		if typ != wire.MsgInsertAck {
			t.Fatalf("reply %d = %v, want an ack", id, typ)
		}
	}
	reads = cc.reads.Load() - reads
	c := n.Metrics().Snapshot().Counters
	writes, records := c["store.wal_writes"], c["store.wal_records"]
	t.Logf("%d inserts: %d server reads, %d log writes of %d records", burst, reads, writes, records)
	if records != burst || n.Store().Len() != burst {
		t.Fatalf("store.wal_records = %d, %d stored; want %d", records, n.Store().Len(), burst)
	}
	if writes > 8*reads {
		t.Fatalf("%d log writes for %d reads of a burst over 8 shards, want at most one per shard per read", writes, reads)
	}
}

// lookupFrame appends a MsgLookup for burstEntry(i) under request id.
func lookupFrame(t *testing.T, dst []byte, id uint64, i int) []byte {
	t.Helper()
	dst, err := wire.AppendFrameID(dst, wire.MsgLookup, id, wire.AppendGUID(nil, burstEntry(i).GUID))
	if err != nil {
		t.Fatal(err)
	}
	return dst
}

// batchFrame appends a MsgBatchInsert of burstEntry(from .. from+count)
// under request id.
func batchFrame(t *testing.T, dst []byte, id uint64, from, count int) []byte {
	t.Helper()
	entries := make([]store.Entry, count)
	for i := range entries {
		entries[i] = burstEntry(from + i)
	}
	body, err := wire.AppendBatchInsert(nil, entries)
	if err == nil {
		dst, err = wire.AppendFrameID(dst, wire.MsgBatchInsert, id, body)
	}
	if err != nil {
		t.Fatal(err)
	}
	return dst
}

// TestMixedBurstNothingStranded puts heavy frames (batch inserts, one
// larger than the read buffer) and light ones (pings or lookups) in a
// single write. Every frame must be answered under its own request ID, in
// the order the frames were sent — one goroutine serves them all — and no
// reply may sit corked in the Writer's pending buffer once the burst is
// read.
func TestMixedBurstNothingStranded(t *testing.T) {
	const light = 32
	cases := []struct {
		name      string
		lightType wire.MsgType
		heavy     int // batch-insert frames,
		perBatch  int // of this many entries each
	}{
		{"batch-then-pings", wire.MsgPing, 1, wire.MaxBatch},
		{"batch-then-lookups", wire.MsgLookup, 1, wire.MaxBatch},
		// Forty small heavy frames in one read buffer, light frames before,
		// between and after them.
		{"more-batches-than-workers", wire.MsgLookup, 40, 2},
	}
	atProcs(t, func(t *testing.T) {
		for _, tc := range cases {
			t.Run(tc.name, func(t *testing.T) {
				n := NewWithOptions(nil, Options{})
				conn, _ := serveCounted(t, n)
				var order []uint64 // request IDs as sent
				addLight := func(reqs []byte, i int) []byte {
					order = append(order, uint64(1000+i))
					if tc.lightType == wire.MsgLookup {
						return lookupFrame(t, reqs, uint64(1000+i), i)
					}
					reqs, err := wire.AppendFrameID(reqs, wire.MsgPing, uint64(1000+i), nil)
					if err != nil {
						t.Fatal(err)
					}
					return reqs
				}
				var reqs []byte
				sent := 0
				if tc.heavy > 1 {
					for ; sent < light/4; sent++ {
						reqs = addLight(reqs, sent)
					}
				}
				for h := 0; h < tc.heavy; h++ {
					order = append(order, uint64(1+h))
					reqs = batchFrame(t, reqs, uint64(1+h), h*tc.perBatch, tc.perBatch)
					if tc.heavy > 1 && h%8 == 7 && sent < light/2 {
						reqs = addLight(reqs, sent)
						sent++
					}
				}
				for ; sent < light; sent++ {
					reqs = addLight(reqs, sent)
				}
				if _, err := conn.Write(reqs); err != nil {
					t.Fatal(err)
				}
				rd := wire.NewReader(conn)
				seen := make(map[uint64]bool)
				for len(seen) < light+tc.heavy {
					typ, id, body, err := rd.Next(freshBuf)
					if err != nil {
						t.Fatalf("after %d of %d replies: %v (a reply is stranded)", len(seen), light+tc.heavy, err)
					}
					if seen[id] {
						t.Fatalf("reply id %d repeated", id)
					}
					if want := order[len(seen)]; id != want {
						t.Fatalf("reply %d answers id %d, want %d: replies leave in the order their frames were sent", len(seen), id, want)
					}
					seen[id] = true
					switch {
					case id >= 1 && id <= uint64(tc.heavy):
						acked, err := wire.DecodeBatchInsertAck(body)
						if typ != wire.MsgBatchInsertAck || err != nil || len(acked) != tc.perBatch {
							t.Fatalf("batch reply = (%v, %d acks, %v)", typ, len(acked), err)
						}
						for i, ok := range acked {
							if !ok {
								t.Fatalf("batch %d: entry %d not acked", id, i)
							}
						}
					case id >= 1000 && id < 1000+light:
						if tc.lightType == wire.MsgPing {
							if typ != wire.MsgPong || len(body) != 0 {
								t.Fatalf("reply id %d = (%v, %d bytes), want an empty MsgPong", id, typ, len(body))
							}
						} else if _, err := wire.DecodeLookupRespInto(new(store.Entry), body); typ != wire.MsgLookupResp || err != nil {
							t.Fatalf("reply id %d = (%v, %v), want a MsgLookupResp", id, typ, err)
						}
					default:
						t.Fatalf("reply under unknown id %d", id)
					}
				}
				if got := n.store.Len(); got != tc.heavy*tc.perBatch {
					t.Fatalf("store holds %d entries, want %d", got, tc.heavy*tc.perBatch)
				}
			})
		}
	})
}

// TestHalfFrameDoesNotCorkReplies sends three whole lookups and the first
// half of a fourth in one write. The read loop must not go into the read
// that completes the fourth with three replies enqueued and unflushed:
// they arrive before the second half is sent.
func TestHalfFrameDoesNotCorkReplies(t *testing.T) {
	atProcs(t, func(t *testing.T) {
		conn, _ := serveCounted(t, NewWithOptions(nil, Options{}))
		var reqs []byte
		for i := 0; i < 4; i++ {
			reqs = lookupFrame(t, reqs, uint64(1+i), i)
		}
		cut := len(reqs) - (wire.FrameIDHeaderLen+guid.Size)/2
		if _, err := conn.Write(reqs[:cut]); err != nil {
			t.Fatal(err)
		}
		rd := wire.NewReader(conn)
		next := func(want uint64) {
			t.Helper()
			_ = conn.SetReadDeadline(time.Now().Add(2 * time.Second))
			if typ, id, _, err := rd.Next(freshBuf); err != nil || typ != wire.MsgLookupResp || id != want {
				t.Fatalf("reply = (%v, id %d, %v), want MsgLookupResp id %d", typ, id, err, want)
			}
		}
		for id := uint64(1); id <= 3; id++ {
			next(id) // fails on the deadline if the replies wait for the fourth frame
		}
		if _, err := conn.Write(reqs[cut:]); err != nil {
			t.Fatal(err)
		}
		next(4)
	})
}

// TestRefusedHeaderDoesNotStrandReplies: a header the Reader refuses
// reads as buffered, so the loop reaches it with the replies to the
// frames before it still corked; they go out before the connection ends.
func TestRefusedHeaderDoesNotStrandReplies(t *testing.T) {
	conn, _ := serveCounted(t, NewWithOptions(nil, Options{}))
	var reqs []byte
	for i := 0; i < 3; i++ {
		reqs = lookupFrame(t, reqs, uint64(1+i), i)
	}
	reqs = append(reqs, 0xff, 0xff, 0xff, 0xff, byte(wire.MsgLookup), 0, 0, 0, 0, 0, 0, 0, 4) // 4 GiB claimed
	if _, err := conn.Write(reqs); err != nil {
		t.Fatal(err)
	}
	rd := wire.NewReader(conn)
	for want := uint64(1); want <= 3; want++ {
		if typ, id, _, err := rd.Next(freshBuf); err != nil || typ != wire.MsgLookupResp || id != want {
			t.Fatalf("reply = (%v, id %d, %v), want MsgLookupResp id %d", typ, id, err, want)
		}
	}
	if _, _, _, err := rd.Next(freshBuf); err == nil {
		t.Fatal("connection still open after a refused header")
	}
}

// gate is a log sink whose Write blocks until the gate opens: a handler
// that logs (a malformed batch insert does, at warn) stays busy for as
// long as the test likes.
type gate struct {
	entered chan struct{} // one token per Write that arrived
	open    chan struct{}
}

func newGate() *gate {
	return &gate{entered: make(chan struct{}, 256), open: make(chan struct{})}
}

func (g *gate) Write(b []byte) (int, error) {
	g.entered <- struct{}{}
	<-g.open
	return len(b), nil
}

// TestOneGoroutinePerConnection: one goroutine serves a connection,
// whatever its peer pipelines. 64 malformed batch inserts — each logs at
// warn, and the first blocks in the shut gate — then a delete and a
// repair digest go in one write: while the gate is shut the node runs no
// goroutine beyond the connection's one, and once it opens every frame is
// answered under its own ID, in the order sent.
func TestOneGoroutinePerConnection(t *testing.T) {
	atProcs(t, func(t *testing.T) {
		g := newGate()
		var once sync.Once
		release := func() { once.Do(func() { close(g.open) }) }
		n := NewWithOptions(nil, Options{Logger: slog.New(slog.NewTextHandler(g, &slog.HandlerOptions{Level: slog.LevelWarn}))})
		base := runtime.NumGoroutine()
		conn, _ := serveCounted(t, n)
		t.Cleanup(release) // registered last, runs first: the loop must finish for serveConn to return
		const heavy = 64
		var reqs []byte
		for id := uint64(1); id <= heavy; id++ {
			reqs = appendFrame(t, reqs, wire.MsgBatchInsert, id, []byte("not an entry"))
		}
		digest, err := wire.AppendRepairDigest(nil, guid.GUID{}, guid.Max(), nil)
		if err != nil {
			t.Fatal(err)
		}
		reqs = appendFrame(t, reqs, wire.MsgDelete, heavy+1, wire.AppendGUID(nil, burstEntry(0).GUID))
		reqs = appendFrame(t, reqs, wire.MsgRepairDigest, heavy+2, digest)
		if _, err := conn.Write(reqs); err != nil {
			t.Fatal(err)
		}
		<-g.entered
		// A frame handed to a second goroutine would be started by now.
		peak := 0
		for deadline := time.Now().Add(200 * time.Millisecond); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
			peak = max(peak, runtime.NumGoroutine()-base)
		}
		if peak > 1 {
			t.Fatalf("with its read loop blocked in a handler, the connection ran %d goroutines, want 1", peak)
		}
		release()
		rd := wire.NewReader(conn)
		for want := uint64(1); want <= heavy+2; want++ {
			typ, id, _, err := rd.Next(freshBuf)
			wantType := wire.MsgError
			switch want {
			case heavy + 1:
				wantType = wire.MsgDeleteAck
			case heavy + 2:
				wantType = wire.MsgRepairDiff
			}
			if err != nil || id != want || typ != wantType {
				t.Fatalf("reply = (%v, id %d, %v), want %v id %d", typ, id, err, wantType, want)
			}
		}
	})
}

// TestCorkedBytesBounded pipelines far more lookups, and then batch
// lookups, than one read buffer holds. However the bytes arrive, no flush
// may carry more than the replies to one 16 KiB read buffer of requests.
func TestCorkedBytesBounded(t *testing.T) {
	atProcs(t, func(t *testing.T) {
		n := NewWithOptions(nil, Options{})
		_, insert, lookup := batchFrames(t, 64)
		if typ, _ := n.handle(wire.MsgBatchInsert, insert, nil, nil, nil, time.Now()); typ != wire.MsgBatchInsertAck {
			t.Fatalf("batch insert answered %v", typ)
		}
		for _, c := range []struct {
			name  string
			one   []byte
			burst int
		}{
			{"lookups", lookupFrame(t, nil, 1, 0), 4096}, // one hit, asked 4096 times under one ID
			{"batch lookups", appendFrame(t, nil, wire.MsgBatchLookup, 1, lookup), 256},
		} {
			conn, cc := serveCounted(t, n)
			reqs := bytes.Repeat(c.one, c.burst)
			werr := make(chan error, 1)
			go func() {
				_, err := conn.Write(reqs)
				werr <- err
			}()
			rd := wire.NewReader(conn)
			replyLen := 0
			for i := 0; i < c.burst; i++ {
				typ, _, body, err := rd.Next(freshBuf)
				if err != nil || (typ != wire.MsgLookupResp && typ != wire.MsgBatchLookupResp) {
					t.Fatalf("%s: reply %d = (%v, %v)", c.name, i, typ, err)
				}
				replyLen = wire.FrameIDHeaderLen + len(body)
			}
			if err := <-werr; err != nil {
				t.Fatal(err)
			}
			bound := int64((16*1024/len(c.one) + 1) * replyLen)
			t.Logf("%d %s: %d Writes, largest %d bytes (bound %d)", c.burst, c.name, cc.writes.Load(), cc.maxWrite.Load(), bound)
			if got := cc.maxWrite.Load(); got > bound {
				t.Fatalf("%s: a flush carried %d bytes, more than the %d that answer one read buffer", c.name, got, bound)
			}
		}
	})
}

// TestInlineLookupShed: a lookup passes admission where it is read.
// Refused by the connection's limit or by the node's it gets that limit's
// pre-encoded shed reply and ticks that limit's counter, and it is served
// once there is room.
func TestInlineLookupShed(t *testing.T) {
	n := NewWithOptions(nil, Options{MaxInflight: 1, MaxConnInflight: 1})
	conn, cc := tcpPair(t)
	serveOn(t, conn, func() { defer cc.Close(); n.serveConnV2(cc) })
	_ = conn.SetDeadline(time.Now().Add(10 * time.Second))
	// ask sends a lookup, after a ping in the same write when ping is set,
	// and returns the lookup's reply.
	ask := func(id uint64, ping bool) (wire.MsgType, []byte) {
		t.Helper()
		var reqs []byte
		if ping {
			reqs = appendFrame(t, nil, wire.MsgPing, 99, nil)
		}
		if _, err := conn.Write(lookupFrame(t, reqs, id, 0)); err != nil {
			t.Fatal(err)
		}
		if ping {
			if typ, got, _, err := wire.ReadFrameIDInto(conn, nil); err != nil || typ != wire.MsgPong || got != 99 {
				t.Fatalf("ping reply = (%v, id %d, %v), want MsgPong id 99", typ, got, err)
			}
		}
		typ, got, body, err := wire.ReadFrameIDInto(conn, nil)
		if err != nil || got != id {
			t.Fatalf("reply = (id %d, %v), want id %d", got, err, id)
		}
		return typ, body
	}

	// The connection at its limit: a ping, never shed, takes its one slot,
	// and the lookup read in the same burst is over it.
	if typ, body := ask(1, true); typ != wire.MsgError || !bytes.Equal(body, shedConnBody) {
		t.Fatalf("over the connection limit: (%v, %q), want the pre-encoded connection shed", typ, body)
	}
	n.admit.acquire() // the node at its limit
	if typ, body := ask(2, false); typ != wire.MsgError || !bytes.Equal(body, shedGlobalBody) {
		t.Fatalf("over the node limit: (%v, %q), want the pre-encoded node shed", typ, body)
	}
	n.admit.release()
	if typ, _ := ask(3, false); typ != wire.MsgLookupResp {
		t.Fatalf("with room again: %v, want MsgLookupResp", typ)
	}
	if c, g := n.shedsConn.Value(), n.shedsGlobal.Value(); c != 1 || g != 1 {
		t.Fatalf("sheds_conn = %d, sheds_global = %d; want 1, 1", c, g)
	}
	if all, served := n.v2Frames.Value(), n.lookups.Value(); all != 4 || served != 1 {
		t.Fatalf("v2_frames = %d, lookups = %d; want 4, 1 (a shed frame is not served)", all, served)
	}
	// A frame stays in flight until its burst's flush, so a limit bounds a
	// pipelined burst of lookups: of 64 in one write at most one per read
	// is served.
	const burst = 64
	var reqs []byte
	for i := 0; i < burst; i++ {
		reqs = lookupFrame(t, reqs, uint64(100+i), i)
	}
	if _, err := conn.Write(reqs); err != nil {
		t.Fatal(err)
	}
	rd := wire.NewReader(conn)
	served := 0
	for i := 0; i < burst; i++ {
		typ, _, body, err := rd.Next(freshBuf)
		if err != nil || (typ != wire.MsgLookupResp && !bytes.Equal(body, shedConnBody)) {
			t.Fatalf("burst reply %d = (%v, %q, %v), want a lookup reply or the connection shed", i, typ, body, err)
		}
		if typ == wire.MsgLookupResp {
			served++
		}
	}
	if served == 0 || served > 16 || n.shedsConn.Value() != int64(1+burst-served) {
		t.Fatalf("burst of %d over a connection limit of 1: %d served, sheds_conn = %d; want one served per read and the rest shed", burst, served, n.shedsConn.Value())
	}
	// The loop releases a burst's claims after the flush that sent them;
	// every frame the connection counts holds a node slot.
	waitNoClaims(t, n)
}

// waitNoClaims waits for the node's in-flight count to drain to zero.
func waitNoClaims(t *testing.T, n *Node) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); n.admit.inflight() != 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("claims left behind: node=%d", n.admit.inflight())
		}
	}
}

// TestStagedInsertsHoldSlotsToFlush: a staged insert is in flight from
// its read to the flush that carries its ack, so a connection limit of 2
// lets at most two inserts of a read into the run and sheds the rest
// where they were read; every claim is back once the burst is answered.
func TestStagedInsertsHoldSlotsToFlush(t *testing.T) {
	n := NewWithOptions(nil, Options{MaxConnInflight: 2})
	conn, cc := tcpPair(t)
	serveOn(t, conn, func() { defer cc.Close(); n.serveConnV2(cc) })
	_ = conn.SetDeadline(time.Now().Add(10 * time.Second))
	const burst = 16
	var reqs []byte
	for i := 0; i < burst; i++ {
		reqs = insertFrame(t, reqs, uint64(1+i), burstEntry(i))
	}
	reads := cc.reads.Load()
	if _, err := conn.Write(reqs); err != nil {
		t.Fatal(err)
	}
	acked := 0
	for id, typ := range readReplies(t, conn, burst) {
		if typ == wire.MsgInsertAck {
			acked++
		} else if typ != wire.MsgError {
			t.Fatalf("reply %d = %v, want an ack or a shed", id, typ)
		}
	}
	reads = cc.reads.Load() - reads
	if acked == 0 || acked > 2*int(reads) || n.store.Len() != acked || n.shedsConn.Value() != int64(burst-acked) {
		t.Fatalf("%d inserts over a connection limit of 2 in %d reads: %d acked, %d stored, sheds_conn %d; want at most 2 a read, the rest shed", burst, reads, acked, n.store.Len(), n.shedsConn.Value())
	}
	waitNoClaims(t, n)
}

// TestInlineFramesObservedLikeWorkerFrames: every frame is served by one
// serveFrameV2 on the read loop, so a traced lookup, and a traced insert
// staged there and committed by the flush, are joined into server spans
// with their store children, captured as slow ops, profiled as hot keys
// and timed, beside batch, repair and delete frames served the same way.
func TestInlineFramesObservedLikeWorkerFrames(t *testing.T) {
	tr := trace.New(trace.Config{SlowOp: time.Nanosecond})
	n := NewWithOptions(nil, Options{Tracer: tr, HotKeys: trace.NewHotKeys(4)})
	conn, _ := serveCounted(t, n)
	e := burstEntry(0)
	entry, err := wire.AppendEntry(nil, e)
	if err != nil {
		t.Fatal(err)
	}
	key := wire.AppendGUID(nil, e.GUID)
	batchL, err := wire.AppendBatchLookup(nil, []guid.GUID{e.GUID})
	if err != nil {
		t.Fatal(err)
	}
	digest, err := wire.AppendRepairDigest(nil, guid.GUID{}, guid.Max(), nil)
	if err != nil {
		t.Fatal(err)
	}
	tc := trace.Context{Trace: 7, Span: 9, Sampled: true}
	var frames [][]byte
	for id, f := range []struct {
		t    wire.MsgType
		body []byte
	}{
		{wire.MsgInsert, entry}, {wire.MsgLookup, key}, {wire.MsgPing, nil}, // traced
		{wire.MsgBatchLookup, batchL}, {wire.MsgRepairDigest, digest}, {wire.MsgDelete, key},
	} {
		var frame []byte
		if id < 3 {
			frame, err = wire.AppendFrameIDTrace(nil, f.t, uint64(id), tc, f.body)
		} else {
			frame, err = wire.AppendFrameID(nil, f.t, uint64(id), f.body)
		}
		if err != nil {
			t.Fatal(err)
		}
		frames = append(frames, frame)
	}
	frames = append(frames, batchFrame(t, nil, 6, 1, 2))
	// One frame per write and reply: the insert lands before the lookup.
	rd := wire.NewReader(conn)
	for _, frame := range frames {
		if _, err := conn.Write(frame); err != nil {
			t.Fatal(err)
		}
		if typ, id, _, err := rd.Next(freshBuf); err != nil || typ == wire.MsgError {
			t.Fatalf("reply id %d = (%v, %v)", id, typ, err)
		}
	}
	if got := n.v2Frames.Value(); got != int64(len(frames)) {
		t.Fatalf("v2_frames = %d, want %d", got, len(frames))
	}
	spans := make(map[string]bool)
	for _, v := range tr.Traces() {
		for _, sp := range v.Spans {
			spans[sp.Name] = true
		}
	}
	slow := make(map[string]bool)
	for _, so := range tr.SlowOps() {
		slow[so.Op] = true
	}
	for _, op := range []string{"server.insert", "server.lookup"} {
		if !spans[op] || !slow[op] {
			t.Errorf("%s: span recorded = %t, slow op captured = %t; want both", op, spans[op], slow[op])
		}
	}
	if !spans["store.put"] || !spans["store.get"] {
		t.Errorf("store child spans missing: %v", spans)
	}
	if l, i := n.hot.Totals(); l != 2 || i != 3 { // lookup + batch lookup; insert + 2 batched
		t.Errorf("hot-key totals = %d lookups, %d inserts; want 2, 3", l, i)
	}
	if hs := n.Metrics().Snapshot().Histograms; hs["server.op.lookup_us"].Count != 1 || hs["server.op.insert_us"].Count != 1 {
		t.Errorf("op histograms: lookup count %d, insert count %d; want 1, 1", hs["server.op.lookup_us"].Count, hs["server.op.insert_us"].Count)
	}
}

// failingConn fails every Write and counts Closes.
type failingConn struct {
	net.Conn
	closes atomic.Int64
}

var errWrite = errors.New("injected write failure")

func (c *failingConn) Write([]byte) (int, error) { return 0, errWrite }
func (c *failingConn) Close() error              { c.closes.Add(1); return c.Conn.Close() }

// TestFailedFlushKillsConnection: the read loop's flush failing — the
// Writer reports it once, the connection is closed, the loop's next read
// fails and it returns with every claim released.
func TestFailedFlushKillsConnection(t *testing.T) {
	n := NewWithOptions(nil, Options{})
	conn, cc := tcpPair(t)
	fc := &failingConn{Conn: cc}
	done := make(chan struct{})
	go func() {
		defer close(done)
		n.serveConnV2(fc)
	}()
	defer conn.Close()
	var reqs []byte
	for i := 0; i < 8; i++ {
		reqs = lookupFrame(t, reqs, uint64(1+i), i)
	}
	if _, err := conn.Write(reqs); err != nil {
		t.Fatal(err)
	}
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("read loop still running after its flush failed")
	}
	if got := fc.closes.Load(); got != 1 {
		t.Fatalf("connection closed %d times by the failed flush, want once", got)
	}
	if n.admit.inflight() != 0 {
		t.Fatalf("claims left behind: node=%d", n.admit.inflight())
	}
}

// TestIdleV2ConnHoldsNoPooledBuffer: a connection blocked waiting for its
// next frame must have taken nothing from serverBufs — no payload
// buffer drawn ahead of the read, nothing kept from the handshake or
// from the frame it served last: a ping, a batch insert larger than the
// read buffer (its payload is pooled) or a MaxBatch-GUID batch lookup
// (its reply is). The pool is pre-filled so every Get is served from it
// and a buffer not given back shows as a lower idle count.
func TestIdleV2ConnHoldsNoPooledBuffer(t *testing.T) {
	for i := 0; i < 8; i++ {
		serverBufs.Put(make([]byte, 0, 512))
	}
	idle := serverBufs.Idle()
	conn, _ := serveCounted(t, NewWithOptions(nil, Options{}))
	_, insert, lookup := batchFrames(t, wire.MaxBatch)
	if len(insert) <= wire.MaxFrame {
		t.Fatalf("a %d-byte batch insert fits the read buffer", len(insert))
	}
	for _, c := range []struct {
		typ, want wire.MsgType
		body      []byte
	}{
		{wire.MsgPing, wire.MsgPong, nil},
		{wire.MsgBatchInsert, wire.MsgBatchInsertAck, insert},
		{wire.MsgBatchLookup, wire.MsgBatchLookupResp, lookup},
	} {
		if _, err := conn.Write(appendFrame(t, nil, c.typ, 1, c.body)); err != nil {
			t.Fatal(err)
		}
		if typ, _, _, err := wire.ReadFrameIDInto(conn, nil); err != nil || typ != c.want {
			t.Fatalf("%v reply = (%v, %v), want %v", c.typ, typ, err, c.want)
		}
		deadline := time.Now().Add(5 * time.Second)
		for serverBufs.Idle() != idle {
			if time.Now().After(deadline) {
				t.Fatalf("after a %v, the idle v2 connection holds %d pooled buffer(s)", c.typ, idle-serverBufs.Idle())
			}
			time.Sleep(time.Millisecond)
		}
	}
}

// TestDeleteWithTrailingBytesIsRefused: a delete is one GUID and an
// insert one entry. A payload with bytes after it is refused BadRequest
// under its own ID, changes nothing in the store, and the connection
// goes on serving.
func TestDeleteWithTrailingBytesIsRefused(t *testing.T) {
	held, fresh := burstEntry(0), burstEntry(1)
	insert, err := wire.AppendEntry(nil, fresh)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		typ  wire.MsgType
		body []byte
	}{
		{"delete", wire.MsgDelete, wire.AppendGUID(nil, held.GUID)},
		{"insert", wire.MsgInsert, insert},
	} {
		n := NewWithOptions(nil, Options{})
		if _, err := n.store.Put(held); err != nil {
			t.Fatal(err)
		}
		conn, _ := serveCounted(t, n)
		reqs := appendFrame(t, nil, c.typ, 7, append(c.body, "junk"...))
		if _, err := conn.Write(appendFrame(t, reqs, wire.MsgPing, 8, nil)); err != nil {
			t.Fatal(err)
		}
		if typ, id, body, err := wire.ReadFrameIDInto(conn, nil); err != nil || id != 7 || typ != wire.MsgError {
			t.Fatalf("%s with trailing bytes answered (%v, id %d, %v), want MsgError id 7", c.name, typ, id, err)
		} else if kind, _, derr := wire.DecodeErrorKind(body); derr != nil || kind != wire.ErrKindBadRequest {
			t.Fatalf("%s: refusal kind %v (%v), want BadRequest", c.name, kind, derr)
		}
		if typ, id, _, err := wire.ReadFrameIDInto(conn, nil); err != nil || id != 8 || typ != wire.MsgPong {
			t.Fatalf("%s: ping behind it answered (%v, id %d, %v)", c.name, typ, id, err)
		}
		if _, ok := n.store.Get(held.GUID); !ok {
			t.Fatalf("a refused %s deleted the entry", c.name)
		}
		if _, ok := n.store.Get(fresh.GUID); ok {
			t.Fatalf("a refused %s stored the entry", c.name)
		}
		if st := n.Stats(); st.BadRequests != 1 || st.Deletes != 0 || st.Inserts != 0 {
			t.Fatalf("%s: %+v; want 1 bad request, no delete, no insert", c.name, st)
		}
	}
}

// TestBatchLookupBytesMatchStagedEncoder pins the batch-lookup reply to
// the bytes the old path produced — stage a []LookupResp from store.Get,
// then wire.AppendBatchLookupResp — now that handle encodes each entry
// under store.View straight into the response.
func TestBatchLookupBytesMatchStagedEncoder(t *testing.T) {
	n := NewWithOptions(nil, Options{})
	var gs []guid.GUID
	for i := 0; i < 200; i++ {
		e := burstEntry(i)
		for j := 1; j < 1+i%store.MaxNAs; j++ { // 1..MaxNAs locators
			e.NAs = append(e.NAs, store.NA{AS: j, Addr: netaddr.AddrFromOctets(10, 2, byte(j), byte(i))})
		}
		if i%3 != 0 { // every third GUID is a miss
			if _, err := n.store.Put(e); err != nil {
				t.Fatal(err)
			}
		}
		gs = append(gs, e.GUID)
	}
	for _, count := range []int{1, 2, 64, len(gs)} {
		req, err := wire.AppendBatchLookup(nil, gs[:count])
		if err != nil {
			t.Fatal(err)
		}
		rs := make([]wire.LookupResp, count)
		for i, g := range gs[:count] {
			e, ok := n.store.Get(g)
			rs[i] = wire.LookupResp{Found: ok, Entry: e}
		}
		want, err := wire.AppendBatchLookupResp(nil, rs)
		if err != nil {
			t.Fatal(err)
		}
		// A too-small dst: the reply must survive growing out of it.
		typ, got := n.handle(wire.MsgBatchLookup, req, nil, nil, make([]byte, 0, 16), time.Now())
		if typ != wire.MsgBatchLookupResp {
			t.Fatalf("%d GUIDs: reply %v", count, typ)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%d GUIDs: reply differs from the staged encoder's bytes (%d vs %d bytes)", count, len(got), len(want))
		}
	}
}
