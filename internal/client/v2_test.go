// Tests for the v2 multiplexed transport, the batch cluster APIs and
// the PR's client bugfixes (redial double-backoff, insert error
// surfacing, stale reads after partial updates).
package client

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dmap/internal/core"
	"dmap/internal/guid"
	"dmap/internal/prefixtable"
	"dmap/internal/server"
	"dmap/internal/store"
	"dmap/internal/trace"
	"dmap/internal/wire"
)

// TestStaleRedialSkipsBackoffAndRetryCount is the regression test for
// the double-backoff bug: a stale-conn redial on attempt ≥ 2 used to
// re-enter the backoff branch, sleeping the same backoff twice and
// double-counting retries for one logical retry. The transport seam
// scripts the sequence that is impractical to stage over a real socket:
// attempt 1 fails, the retry hits a stale conn, the redial succeeds.
func TestStaleRedialSkipsBackoffAndRetryCount(t *testing.T) {
	tbl, err := prefixtable.Generate(prefixtable.GenConfig{
		NumAS: 4, NumPrefixes: 48, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	resolver, err := core.NewResolver(guid.MustHasher(1, 0), tbl, 0)
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewWithConfig(resolver, map[int]string{0: "unused:0"}, Config{
		Timeout:    time.Second,
		OpDeadline: 5 * time.Second,
		Retry:      RetryPolicy{MaxAttempts: 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)

	var calls int32
	c.net = synchronous(func(addr string, mt wire.MsgType, tc trace.Context, payload []byte, timeout time.Duration) (wire.MsgType, []byte, error) {
		switch atomic.AddInt32(&calls, 1) {
		case 1:
			return 0, nil, errors.New("connection reset")
		case 2:
			return 0, nil, errStaleConn
		default:
			return wire.MsgPong, nil, nil
		}
	})
	rt, err := askAS0(c, wire.MsgPing, nil)
	if err != nil || rt != wire.MsgPong {
		t.Fatalf("ping = %v, %v; want pong", rt, err)
	}
	if got := atomic.LoadInt32(&calls); got != 3 {
		t.Errorf("transport invoked %d times, want 3", got)
	}
	s := c.Stats()
	if s.Retries != 1 {
		t.Errorf("retries = %d, want 1 (one logical retry; the redial must not double-count)", s.Retries)
	}
	if s.Redials != 1 {
		t.Errorf("redials = %d, want 1", s.Redials)
	}
}

// TestInsertSurfacesRejection: when every replica answers with a drain
// rejection, the error must say so — "no replica reachable" is the
// wrong diagnosis when every replica was reachable and said no.
func TestInsertSurfacesRejection(t *testing.T) {
	c, nodes := testCluster(t, 8, 2)
	for _, n := range nodes {
		n.Drain()
	}
	_, err := c.Insert(clusterEntry("refused-everywhere", 1))
	if err == nil {
		t.Fatal("insert into a fully draining cluster should fail")
	}
	if !errors.Is(err, ErrRejected) {
		t.Errorf("err = %v, want errors.Is(_, ErrRejected)", err)
	}
	if !strings.Contains(err.Error(), "rejected") {
		t.Errorf("err = %q, want the rejection surfaced, not a reachability claim", err)
	}
	if strings.Contains(err.Error(), "no replica reachable") {
		t.Errorf("err = %q misreports reachable-but-rejecting replicas as unreachable", err)
	}
}

// TestMuxHammer drives one address from many goroutines through the
// shared multiplexed connection (run under -race by scripts/check.sh).
// Exactly one dial must serve all of it — pool drops and per-caller
// dials are impossible by construction on the v2 path.
func TestMuxHammer(t *testing.T) {
	c, _ := testCluster(t, 1, 1) // single-AS world: every GUID lands on one node
	const (
		goroutines = 32
		perG       = 25
	)
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				e := clusterEntry(fmt.Sprintf("hammer-%d-%d", g, i), uint64(i+1))
				if _, err := c.Insert(e); err != nil {
					errs <- fmt.Errorf("insert %d/%d: %w", g, i, err)
					return
				}
				got, err := c.Lookup(e.GUID)
				if err != nil {
					errs <- fmt.Errorf("lookup %d/%d: %w", g, i, err)
					return
				}
				if got.GUID != e.GUID {
					errs <- fmt.Errorf("lookup %d/%d returned wrong entry", g, i)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if s := c.Stats(); s.Dials != 1 {
		t.Errorf("dials = %d, want 1 (one shared conn for %d goroutines)", s.Dials, goroutines)
	}
}

// twoNodeCluster wires a K=2 client over a two-AS world to the given
// node addresses, one try per replica so a failed try is a failover.
func twoNodeCluster(t *testing.T, addrs map[int]string) *Cluster {
	t.Helper()
	tbl, err := prefixtable.Generate(prefixtable.GenConfig{
		NumAS: 2, NumPrefixes: 24, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	resolver, err := core.NewResolver(guid.MustHasher(2, 0), tbl, 0)
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewWithConfig(resolver, addrs, Config{
		Timeout:    time.Second,
		OpDeadline: 5 * time.Second,
		Retry:      RetryPolicy{MaxAttempts: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c
}

// guidsPlaced returns n GUIDs whose two replicas sit on ASs first and
// second, in that order.
func guidsPlaced(t *testing.T, c *Cluster, n, first, second int) []guid.GUID {
	t.Helper()
	var gs []guid.GUID
	for i := 0; len(gs) < n; i++ {
		if i == 10000 {
			t.Fatalf("no %d GUIDs placed on AS %d then AS %d", n, first, second)
		}
		g := guid.New(fmt.Sprintf("placed-%d-%d-%d", first, second, i))
		p, err := c.resolver.Place(g)
		if err != nil {
			t.Fatal(err)
		}
		if p[0].AS == first && p[1].AS == second {
			gs = append(gs, g)
		}
	}
	return gs
}

// TestRefusedHelloFailsOverAndIsNotRemembered: a node that answers the
// hello with MsgError is a failed try like a refused dial — the lookup
// fails over to the next replica — and nothing about the address is
// remembered: once the node at that same address grants the hello, the
// next lookup reaches it.
func TestRefusedHelloFailsOverAndIsNotRemembered(t *testing.T) {
	found := func(int64, wire.MsgType, []byte) (wire.MsgType, []byte) {
		return wire.MsgLookupResp, lookupRespBody(t, true)
	}
	var upgraded, backup atomic.Int64
	addrs := map[int]string{
		// Refuses its first connection's hello, grants every later one.
		0: scriptedNode(t, func(conn int64) bool { return conn > 1 }, func(req int64, typ wire.MsgType, payload []byte) (wire.MsgType, []byte) {
			upgraded.Add(1)
			return found(req, typ, payload)
		}),
		1: scriptedServer(t, func(req int64, typ wire.MsgType, payload []byte) (wire.MsgType, []byte) {
			backup.Add(1)
			return found(req, typ, payload)
		}),
	}
	c := twoNodeCluster(t, addrs)
	g := guidsPlaced(t, c, 1, 0, 1)[0]

	if _, err := c.Lookup(g); err != nil {
		t.Fatalf("lookup past a node that refused the hello: %v", err)
	}
	if s := c.Stats(); s.Failovers != 1 || upgraded.Load() != 0 || backup.Load() != 1 {
		t.Fatalf("first lookup: failovers = %d, requests served = %d and %d; want 1 failover to the second replica", s.Failovers, upgraded.Load(), backup.Load())
	}
	if _, err := c.Lookup(g); err != nil {
		t.Fatal(err)
	}
	if s := c.Stats(); s.Failovers != 1 || upgraded.Load() != 1 || backup.Load() != 1 {
		t.Errorf("second lookup: failovers = %d, requests served = %d and %d; want the first replica reached on a new dial", s.Failovers, upgraded.Load(), backup.Load())
	}
}

// TestRejectedBatchFrameFailsOverWhole: a node that answers a batch
// frame "unknown frame type" has rejected that chunk, which fails over
// to its next replica round like any rejection; the items are not
// re-sent one by one.
func TestRejectedBatchFrameFailsOverWhole(t *testing.T) {
	var singles atomic.Int64
	addrs := map[int]string{
		0: scriptedServer(t, func(_ int64, typ wire.MsgType, _ []byte) (wire.MsgType, []byte) {
			if typ != wire.MsgBatchLookup && typ != wire.MsgBatchInsert {
				singles.Add(1)
			}
			return wire.MsgError, wire.AppendErrorKind(nil, wire.ErrKindBadRequest, "unknown frame type")
		}),
	}
	node := server.NewWithOptions(nil, server.Options{})
	addr, err := node.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { node.Close() })
	addrs[1] = addr
	c := twoNodeCluster(t, addrs)

	gs := guidsPlaced(t, c, 5, 0, 1)
	entries := make([]store.Entry, len(gs))
	for i, g := range gs {
		entries[i] = clusterEntry("rejected-batch", 1)
		entries[i].GUID = g
	}
	acks, err := c.InsertBatch(entries)
	if err != nil {
		t.Fatal(err)
	}
	for i, n := range acks {
		if n != 1 {
			t.Errorf("entry %d acked by %d replicas, want 1 (the node that knows the frame)", i, n)
		}
	}
	_, hits, err := c.LookupBatch(gs)
	if err != nil {
		t.Fatal(err)
	}
	for i, ok := range hits {
		if !ok {
			t.Errorf("GUID %d not found at the second replica", i)
		}
	}
	if s := c.Stats(); s.Failovers != int64(len(gs)) {
		t.Errorf("failovers = %d, want %d (the rejected chunk's GUIDs, once)", s.Failovers, len(gs))
	}
	if n := singles.Load(); n != 0 {
		t.Errorf("the rejecting node was sent %d single-op frames", n)
	}
}

func startNodes(t *testing.T, numAS int) ([]*server.Node, map[int]string) {
	t.Helper()
	nodes := make([]*server.Node, numAS)
	addrs := make(map[int]string, numAS)
	for as := 0; as < numAS; as++ {
		n := server.NewWithOptions(nil, server.Options{})
		addr, err := n.Start("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		nodes[as] = n
		addrs[as] = addr
		t.Cleanup(func() { n.Close() })
	}
	return nodes, addrs
}

// TestInsertBatchLookupBatch exercises the batched fan-out end to end:
// per-replica grouping, per-entry ack counts, round-based lookup with
// misses rolling to later replicas.
func TestInsertBatchLookupBatch(t *testing.T) {
	c, nodes := testCluster(t, 24, 5)
	const n = 40
	entries := make([]store.Entry, n)
	for i := range entries {
		entries[i] = clusterEntry(fmt.Sprintf("batch-%d", i), uint64(i+1))
	}
	acks, err := c.InsertBatch(entries)
	if err != nil {
		t.Fatal(err)
	}
	if len(acks) != n {
		t.Fatalf("acks for %d entries, want %d", len(acks), n)
	}
	for i, a := range acks {
		if a < 1 || a > 5 {
			t.Errorf("entry %d acked by %d replicas, want 1..5", i, a)
		}
	}
	// Every entry is really on some node.
	for i := range entries {
		held := 0
		for _, nd := range nodes {
			if got, ok := nd.Store().Get(entries[i].GUID); ok && got.Version == entries[i].Version {
				held++
			}
		}
		if held == 0 {
			t.Errorf("entry %d not held by any node", i)
		}
	}

	gs := make([]guid.GUID, 0, n+5)
	for i := range entries {
		gs = append(gs, entries[i].GUID)
	}
	for i := 0; i < 5; i++ {
		gs = append(gs, guid.New(fmt.Sprintf("nobody-%d", i)))
	}
	got, found, err := c.LookupBatch(gs)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if !found[i] {
			t.Errorf("GUID %d not found", i)
			continue
		}
		if got[i].GUID != gs[i] || got[i].Version != entries[i].Version {
			t.Errorf("GUID %d resolved to %+v", i, got[i])
		}
	}
	for i := n; i < n+5; i++ {
		if found[i] {
			t.Errorf("unknown GUID %d reported found", i)
		}
	}
}

// TestBatchChunking pushes one replica past wire.MaxBatch so the chunker
// must split the fan-out into multiple frames.
func TestBatchChunking(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	c, nodes := testCluster(t, 1, 1)
	n := wire.MaxBatch + 88
	entries := make([]store.Entry, n)
	for i := range entries {
		entries[i] = clusterEntry(fmt.Sprintf("chunk-%d", i), 1)
	}
	acks, err := c.InsertBatch(entries)
	if err != nil {
		t.Fatal(err)
	}
	for i, a := range acks {
		if a != 1 {
			t.Fatalf("entry %d acked %d times, want 1", i, a)
		}
	}
	if got := nodes[0].Stats().Inserts; got != int64(n) {
		t.Errorf("node served %d inserts, want %d", got, n)
	}
	gs := make([]guid.GUID, n)
	for i := range gs {
		gs[i] = entries[i].GUID
	}
	_, found, err := c.LookupBatch(gs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range found {
		if !found[i] {
			t.Fatalf("GUID %d missing after chunked insert", i)
		}
	}
}
