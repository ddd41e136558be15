package server

import (
	"bytes"
	"fmt"
	"net"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"dmap/internal/guid"
	"dmap/internal/netaddr"
	"dmap/internal/store"
	"dmap/internal/wire"
)

// countedConn counts the Read and Write calls the server makes on its
// end of a connection: each is one read(2)/write(2) on a TCP socket.
type countedConn struct {
	net.Conn
	reads, writes atomic.Int64
}

func (c *countedConn) Read(b []byte) (int, error) {
	c.reads.Add(1)
	return c.Conn.Read(b)
}

func (c *countedConn) Write(b []byte) (int, error) {
	c.writes.Add(1)
	return c.Conn.Write(b)
}

// serveCounted runs n.serveConn on the accepted end of a loopback TCP
// pair, wrapped in a countedConn, and returns the dialed end with the
// handshake done.
func serveCounted(t *testing.T, n *Node) (net.Conn, *countedConn) {
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
	cc := &countedConn{Conn: accepted}
	done := make(chan struct{})
	go func() {
		defer close(done)
		n.serveConn(cc)
	}()
	t.Cleanup(func() {
		conn.Close()
		<-done
	})
	hello(t, conn)
	_ = conn.SetDeadline(time.Now().Add(10 * time.Second)) // after hello, which clears the deadline
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

// freshBuf is a wire.Reader payload source that supplies nothing, so
// every payload lands in storage of its own.
func freshBuf(int) []byte { return nil }

func burstEntry(i int) store.Entry {
	return store.Entry{
		GUID:    guid.New(fmt.Sprintf("burst-%d", i)),
		NAs:     []store.NA{{AS: i + 1, Addr: netaddr.AddrFromOctets(10, 1, byte(i>>8), byte(i))}},
		Version: uint64(i + 1),
	}
}

// TestPipelinedBurstSharesSyscalls pipelines 64 lookups in one write and
// checks every reply, then the cost: the burst must be read and — on one
// P, where nothing used to coalesce — answered in a handful of syscalls,
// not two reads and one write per frame.
func TestPipelinedBurstSharesSyscalls(t *testing.T) {
	atProcs(t, func(t *testing.T) {
		const burst = 64
		n := New(nil, nil)
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
			resp, err := wire.DecodeLookupResp(body)
			if err != nil {
				t.Fatal(err)
			}
			if want := burstEntry(i); resp.Found != (i%2 == 0) || (resp.Found && (resp.Entry.GUID != want.GUID || resp.Entry.Version != want.Version || resp.Entry.NAs[0] != want.NAs[0])) {
				t.Fatalf("reply %d = %+v, want found=%t %+v", id, resp, i%2 == 0, want)
			}
		}
		reads, writes = cc.reads.Load()-reads, cc.writes.Load()-writes
		t.Logf("%d pipelined lookups: %d server Reads, %d server Writes", burst, reads, writes)
		if reads > 16 {
			t.Fatalf("%d lookups cost %d Reads on the server, want <= 16", burst, reads)
		}
		// The write bound holds where the yield decides alone. With idle Ps
		// the yielding flusher is picked up by one of them at once and
		// coalesces what workers finish during its Writes, as it always
		// did — anywhere from 1 to ~40 Writes for this burst.
		if runtime.GOMAXPROCS(0) == 1 && writes > 16 {
			t.Fatalf("%d lookups cost %d Writes on the server at GOMAXPROCS=1, want <= 16", burst, writes)
		}
	})
}

// TestMixedBurstNothingStranded puts one 512-entry batch insert ahead of
// 32 pings in a single write. Every frame must be answered under its own
// request ID: in particular no pong may sit in the Writer's pending
// buffer waiting for a flush that the batch's worker already did.
func TestMixedBurstNothingStranded(t *testing.T) {
	atProcs(t, func(t *testing.T) {
		const pings = 32
		n := New(nil, nil)
		conn, _ := serveCounted(t, n)
		entries := make([]store.Entry, wire.MaxBatch)
		for i := range entries {
			entries[i] = burstEntry(i)
		}
		body, err := wire.AppendBatchInsert(nil, entries)
		if err != nil {
			t.Fatal(err)
		}
		reqs, err := wire.AppendFrameID(nil, wire.MsgBatchInsert, 1, body)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < pings; i++ {
			if reqs, err = wire.AppendFrameID(reqs, wire.MsgPing, uint64(100+i), nil); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := conn.Write(reqs); err != nil {
			t.Fatal(err)
		}
		rd := wire.NewReader(conn)
		seen := make(map[uint64]bool)
		for len(seen) < pings+1 {
			typ, id, body, err := rd.Next(freshBuf)
			if err != nil {
				t.Fatalf("after %d of %d replies: %v (a reply is stranded)", len(seen), pings+1, err)
			}
			if seen[id] {
				t.Fatalf("reply id %d repeated", id)
			}
			seen[id] = true
			switch {
			case id == 1:
				acked, err := wire.DecodeBatchInsertAck(body)
				if typ != wire.MsgBatchInsertAck || err != nil || len(acked) != wire.MaxBatch {
					t.Fatalf("batch reply = (%v, %d acks, %v)", typ, len(acked), err)
				}
				for i, ok := range acked {
					if !ok {
						t.Fatalf("entry %d not acked", i)
					}
				}
			case id >= 100 && id < 100+pings:
				if typ != wire.MsgPong || len(body) != 0 {
					t.Fatalf("reply id %d = (%v, %d bytes), want an empty MsgPong", id, typ, len(body))
				}
			default:
				t.Fatalf("reply under unknown id %d", id)
			}
		}
		if got := n.store.Len(); got != wire.MaxBatch {
			t.Fatalf("store holds %d entries, want %d", got, wire.MaxBatch)
		}
	})
}

// TestIdleV2ConnHoldsNoPooledBuffer: a connection blocked waiting for its
// next frame must have taken nothing from serverBufs — no payload
// buffer drawn ahead of the read, nothing kept from the handshake. The
// pool is pre-filled so every Get is served from it and a buffer not
// given back shows as a lower idle count.
func TestIdleV2ConnHoldsNoPooledBuffer(t *testing.T) {
	for i := 0; i < 8; i++ {
		serverBufs.Put(make([]byte, 0, 512))
	}
	idle := serverBufs.Idle()
	conn, _ := serveCounted(t, New(nil, nil))
	// One round trip proves the v2 loop is up; afterwards the connection
	// is idle again and the worker has released its buffers.
	ping, err := wire.AppendFrameID(nil, wire.MsgPing, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write(ping); err != nil {
		t.Fatal(err)
	}
	if typ, _, _, err := wire.ReadFrameID(conn); err != nil || typ != wire.MsgPong {
		t.Fatalf("ping reply = (%v, %v)", typ, err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for serverBufs.Idle() != idle {
		if time.Now().After(deadline) {
			t.Fatalf("idle v2 connection holds %d pooled buffer(s)", idle-serverBufs.Idle())
		}
		time.Sleep(time.Millisecond)
	}
}

// TestBatchLookupBytesMatchStagedEncoder pins the batch-lookup reply to
// the bytes the old path produced — stage a []LookupResp from store.Get,
// then wire.AppendBatchLookupResp — now that handle encodes each entry
// under store.View straight into the response.
func TestBatchLookupBytesMatchStagedEncoder(t *testing.T) {
	n := New(nil, nil)
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
		typ, got := n.handle(wire.MsgBatchLookup, req, nil, nil, make([]byte, 0, 16))
		if typ != wire.MsgBatchLookupResp {
			t.Fatalf("%d GUIDs: reply %v", count, typ)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%d GUIDs: reply differs from the staged encoder's bytes (%d vs %d bytes)", count, len(got), len(want))
		}
	}
}
