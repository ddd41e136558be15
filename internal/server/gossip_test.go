package server

import (
	"fmt"
	"net"
	"runtime"
	"testing"
	"time"

	"dmap/internal/guid"
	"dmap/internal/netaddr"
	"dmap/internal/store"
	"dmap/internal/wire"
)

func gossipEntry(name string, version uint64) store.Entry {
	return store.Entry{
		GUID:    guid.New(name),
		NAs:     []store.NA{{AS: 4, Addr: netaddr.AddrFromOctets(10, 1, 0, 4)}},
		Version: version,
	}
}

func putAll(t *testing.T, st *store.Store, entries ...store.Entry) {
	t.Helper()
	for _, e := range entries {
		if _, err := st.Put(e); err != nil {
			t.Fatal(err)
		}
	}
}

// waitFor polls cond until it holds or the deadline expires.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestGossipConvergesTwoNodes proves one sweeper reconciles both
// directions: the sweeper pulls the peer's fresher and missing entries
// and pushes back its own fresher ones — without the peer ever
// sweeping.
func TestGossipConvergesTwoNodes(t *testing.T) {
	peer := NewWithOptions(nil, Options{})
	peerAddr, err := peer.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { peer.Close() })

	sweeper := NewWithOptions(nil, Options{
		Gossip: GossipOptions{Peers: []string{peerAddr}, Interval: 10 * time.Millisecond},
	})
	// Divergence in every direction before the sweeper starts:
	putAll(t, sweeper.Store(),
		gossipEntry("shared-sweeper-fresh", 5), // push: sweeper is ahead
		gossipEntry("shared-peer-fresh", 1),    // pull: peer is ahead
		gossipEntry("only-sweeper", 2),         // push: peer never saw it
	)
	putAll(t, peer.Store(),
		gossipEntry("shared-sweeper-fresh", 3),
		gossipEntry("shared-peer-fresh", 7),
		gossipEntry("only-peer", 4), // pull: sweeper never saw it
	)
	if _, err := sweeper.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sweeper.Close() })

	version := func(st *store.Store, name string) uint64 {
		v, _ := st.Version(guid.New(name))
		return v
	}
	waitFor(t, "replica convergence", func() bool {
		return version(sweeper.Store(), "shared-peer-fresh") == 7 &&
			version(sweeper.Store(), "only-peer") == 4 &&
			version(peer.Store(), "shared-sweeper-fresh") == 5 &&
			version(peer.Store(), "only-sweeper") == 2
	})
	// The peer applies a push before it acks, and the sweeper counts the
	// push only once the ack is back: wait for the sweep that converged
	// the stores to end. The gossip loop sweeps one peer at a time and
	// counts a sweep as it starts, so the next one starting is that end.
	sweeps := sweeper.repairSweeps.Value()
	waitFor(t, "the next sweep", func() bool { return sweeper.repairSweeps.Value() > sweeps })

	if sweeper.repairSweeps.Value() == 0 || sweeper.repairDigestsSent.Value() == 0 {
		t.Fatalf("sweeper counters: sweeps=%d digests=%d",
			sweeper.repairSweeps.Value(), sweeper.repairDigestsSent.Value())
	}
	if sweeper.repairEntriesPulled.Value() < 2 {
		t.Fatalf("entries_pulled = %d, want >= 2", sweeper.repairEntriesPulled.Value())
	}
	if sweeper.repairEntriesPushed.Value() < 2 {
		t.Fatalf("entries_pushed = %d, want >= 2", sweeper.repairEntriesPushed.Value())
	}
	if peer.repairDigestsRecv.Value() == 0 {
		t.Fatal("peer answered no digest pages")
	}
}

// TestGossipRepairsEmptyRestartedNode is the restart-recovery shape: a
// node that lost everything sweeps a populated peer; empty digest pages
// elicit pushes of the full keyspace, paged via the covered cursor.
// With 4,500 entries over 8 shards some shard holds more than the
// wire.MaxBatch pushes one answer carries, so the sweep must resume
// inside it: more pages than shards.
func TestGossipRepairsEmptyRestartedNode(t *testing.T) {
	peer := NewWithOptions(nil, Options{})
	const n = 4500
	for i := 0; i < n; i++ {
		putAll(t, peer.Store(), gossipEntry(fmt.Sprintf("bulk-%d", i), uint64(1+i%3)))
	}
	peerAddr, err := peer.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { peer.Close() })

	restarted := NewWithOptions(nil, Options{
		Gossip: GossipOptions{Peers: []string{peerAddr}, Interval: 5 * time.Millisecond},
	})
	if _, err := restarted.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { restarted.Close() })

	waitFor(t, "restarted node refill", func() bool {
		return restarted.Store().Len() == n
	})
	if restarted.repairEntriesPulled.Value() != int64(n) {
		t.Fatalf("entries_pulled = %d, want %d", restarted.repairEntriesPulled.Value(), n)
	}
	if sent, shards := restarted.repairDigestsSent.Value(), restarted.Store().ShardCount(); sent <= int64(shards) {
		t.Fatalf("digests_sent = %d over %d shards: no page was resumed at the covered cursor", sent, shards)
	}
}

// TestRepairFrameOnPlainConnection: a node answers a repair digest on
// any connection past the hello, one that asked for no feature included,
// with a real diff.
func TestRepairFrameOnPlainConnection(t *testing.T) {
	n, addr := startNode(t)
	putAll(t, n.Store(), gossipEntry("held", 2))

	digest, err := wire.AppendRepairDigest(nil, guid.GUID{}, guid.Max(), nil)
	if err != nil {
		t.Fatal(err)
	}
	rt, rbody := exchange(t, dialConn(t, addr), wire.MsgRepairDigest, digest)
	if rt != wire.MsgRepairDiff {
		t.Fatalf("repair digest answered with %v", rt)
	}
	covered, newer, _, err := wire.DecodeRepairDiff(rbody)
	if err != nil {
		t.Fatal(err)
	}
	if covered != guid.Max() || len(newer) != 1 {
		t.Fatalf("diff = covered %s, %d newer; want full cover, 1 newer", covered, len(newer))
	}
}

// TestDrainingPeerStopsWanting verifies the handoff posture: a draining
// node still answers digests with its fresher copies but asks for
// nothing, and a draining sweeper stops sweeping.
func TestDrainingPeerStopsWanting(t *testing.T) {
	n, addr := startNode(t)
	putAll(t, n.Store(), gossipEntry("theirs", 9))
	n.Drain()

	gc := dialConn(t, addr)

	// The peer lacks "ours" (v3) and holds "theirs" (v9, we claim v1):
	// an eager peer would want "ours" and the fresher "theirs"; a
	// draining one must want neither, yet still export "theirs".
	page := []store.Digest{
		{GUID: guid.New("ours"), Version: 3},
		{GUID: guid.New("theirs"), Version: 1},
	}
	if guid.Compare(page[0].GUID, page[1].GUID) > 0 {
		page[0], page[1] = page[1], page[0]
	}
	covered, newer, want, err := exchangeDigest(gc, gossipExchangeWait, guid.GUID{}, guid.Max(), page)
	if err != nil {
		t.Fatal(err)
	}
	if covered != guid.Max() {
		t.Fatalf("covered = %s", covered)
	}
	if len(want) != 0 {
		t.Fatalf("draining peer wants %d entries, should acquire nothing", len(want))
	}
	if len(newer) != 1 || newer[0].Version != 9 {
		t.Fatalf("draining peer stopped exporting: newer = %+v", newer)
	}
}

// TestGossipReplyBufferReused: the sweeper hands every reply body back
// to wire.Replies once it is decoded, so a repair connection's exchanges
// run on recycled buffers, and what an earlier exchange decoded is
// untouched by the next: decoders copy (under DMAP_POISON_BUFS=1 a
// released body is scribbled over).
func TestGossipReplyBufferReused(t *testing.T) {
	n, addr := startNode(t)
	putAll(t, n.Store(), gossipEntry("theirs-a", 5), gossipEntry("theirs-b", 6))
	gc := dialConn(t, addr)
	for i := 0; i < 8; i++ {
		wire.Replies.Put(make([]byte, 0, 4096))
	}
	idle := wire.Replies.Idle()

	var first []store.Entry
	for i := 0; i < 4; i++ {
		// An empty page over the whole keyspace: the peer exports everything.
		_, newer, _, err := exchangeDigest(gc, gossipExchangeWait, guid.GUID{}, guid.Max(), nil)
		if err != nil || len(newer) != 2 {
			t.Fatalf("exchange %d: %d newer, %v", i+1, len(newer), err)
		}
		if got := wire.Replies.Idle(); got != idle {
			t.Fatalf("exchange %d: %d idle reply buffers, %d before: the reply was not handed back", i+1, got, idle)
		}
		if i == 0 {
			first = newer
		}
	}
	want := map[guid.GUID]store.Entry{}
	for _, e := range []store.Entry{gossipEntry("theirs-a", 5), gossipEntry("theirs-b", 6)} {
		want[e.GUID] = e
	}
	for _, e := range first {
		if w, ok := want[e.GUID]; !ok || e.Version != w.Version || len(e.NAs) != len(w.NAs) || e.NAs[0] != w.NAs[0] {
			t.Fatalf("entry decoded from the first reply changed under later exchanges: %+v", e)
		}
	}
}

// TestCloseDoesNotWaitForSilentGossipPeer: a peer that goes silent — with
// the sweeper's hello unanswered, or its first digest page — holds a
// sweep for gossipDialTimeout or gossipExchangeWait, seconds both; Close
// must end the sweep's connection, not wait the timeout out. The aborted
// sweep is counted once at most, and the connection's reader goroutine is
// gone with it.
func TestCloseDoesNotWaitForSilentGossipPeer(t *testing.T) {
	for _, tc := range []struct {
		name     string
		ackHello bool
	}{
		{"hello unanswered", false},
		{"digest unanswered", true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer ln.Close()
			waiting := make(chan struct{}) // closed once the sweeper waits for an answer
			peerDone := make(chan struct{})
			base := runtime.NumGoroutine()
			go func() {
				defer close(peerDone)
				conn, err := ln.Accept()
				if err != nil {
					return
				}
				defer conn.Close()
				if typ, _, err := wire.ReadFrame(conn); err != nil || typ != wire.MsgHello {
					return
				}
				if tc.ackHello {
					if err := wire.WriteFrame(conn, wire.MsgHelloAck, wire.AppendHelloAck(nil, wire.Version2)); err != nil {
						return
					}
					if typ, _, _, err := wire.ReadFrameIDInto(conn, nil); err != nil || typ != wire.MsgRepairDigest {
						return
					}
				}
				close(waiting)
				_, _, _ = wire.ReadFrame(conn) // until the sweeper hangs up
			}()

			n := NewWithOptions(nil, Options{
				Gossip: GossipOptions{Peers: []string{ln.Addr().String()}, Interval: 5 * time.Millisecond},
			})
			if _, err := n.Start("127.0.0.1:0"); err != nil {
				t.Fatal(err)
			}
			select {
			case <-waiting:
			case <-time.After(5 * time.Second):
				n.Close()
				t.Fatal("the sweeper never reached the peer")
			}
			time.Sleep(20 * time.Millisecond) // a tick queues up behind the sweep: Close must beat it
			start := time.Now()
			if err := n.Close(); err != nil {
				t.Fatal(err)
			}
			if elapsed := time.Since(start); elapsed > 500*time.Millisecond {
				t.Errorf("Close took %v with a sweep waiting on a silent peer", elapsed)
			}
			if sweeps, failed := n.repairSweeps.Value(), n.repairPeerErrs.Value()+n.repairBackoffs.Value(); sweeps != 1 || failed > 1 {
				t.Errorf("sweeps = %d, peer errors + backoffs = %d; want one sweep, counted once at most", sweeps, failed)
			}
			<-peerDone // the peer reads until the sweeper hangs up
			for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > base; time.Sleep(time.Millisecond) {
				if time.Now().After(deadline) {
					t.Fatalf("%d goroutines after Close, %d before the node started", runtime.NumGoroutine(), base)
				}
			}
		})
	}
}
