// Package client's tests double as the integration suite for the
// networked stack: real TCP nodes (internal/server), real placements
// (internal/core over a generated DFZ), real wire frames.
package client

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"dmap/internal/core"
	"dmap/internal/guid"
	"dmap/internal/netaddr"
	"dmap/internal/prefixtable"
	"dmap/internal/server"
	"dmap/internal/store"
)

// testCluster spins up one TCP node per AS of a small generated world and
// returns a connected client. Nodes are shut down via t.Cleanup.
func testCluster(t *testing.T, numAS, k int) (*Cluster, []*server.Node) {
	t.Helper()
	return testClusterOpts(t, numAS, k, server.Options{})
}

// testClusterOpts is testCluster with every node built from opts.
func testClusterOpts(t *testing.T, numAS, k int, opts server.Options) (*Cluster, []*server.Node) {
	t.Helper()
	tbl, err := prefixtable.Generate(prefixtable.GenConfig{
		NumAS:       numAS,
		NumPrefixes: numAS * 12,
		Seed:        5,
	})
	if err != nil {
		t.Fatal(err)
	}
	resolver, err := core.NewResolver(guid.MustHasher(k, 0), tbl, 0)
	if err != nil {
		t.Fatal(err)
	}
	nodes := make([]*server.Node, numAS)
	addrs := make(map[int]string, numAS)
	for as := 0; as < numAS; as++ {
		n := server.NewWithOptions(nil, opts)
		addr, err := n.Start("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		nodes[as] = n
		addrs[as] = addr
		t.Cleanup(func() { n.Close() })
	}
	c, err := NewWithConfig(resolver, addrs, Config{Timeout: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c, nodes
}

func clusterEntry(name string, version uint64) store.Entry {
	return store.Entry{
		GUID:    guid.New(name),
		NAs:     []store.NA{{AS: 3, Addr: netaddr.AddrFromOctets(192, 0, 2, 1)}},
		Version: version,
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := NewWithConfig(nil, nil, Config{}); err == nil {
		t.Error("nil resolver should fail")
	}
}

func TestInsertLookupDeleteOverTCP(t *testing.T) {
	c, nodes := testCluster(t, 24, 5)
	e := clusterEntry("laptop", 1)

	acks, err := c.Insert(e)
	if err != nil {
		t.Fatal(err)
	}
	if acks != 5 {
		t.Errorf("acks = %d, want 5", acks)
	}
	// The replicas really hold it.
	holding := 0
	for _, n := range nodes {
		if _, ok := n.Store().Get(e.GUID); ok {
			holding++
		}
	}
	if holding == 0 || holding > 5 {
		t.Errorf("%d nodes hold the entry", holding)
	}

	got, err := c.Lookup(e.GUID)
	if err != nil {
		t.Fatal(err)
	}
	if got.GUID != e.GUID || got.NAs[0].AS != 3 {
		t.Errorf("lookup = %+v", got)
	}

	removed, err := c.Delete(e.GUID)
	if err != nil {
		t.Fatal(err)
	}
	if removed != holding {
		t.Errorf("removed %d, want %d", removed, holding)
	}
	if _, err := c.Lookup(e.GUID); !errors.Is(err, ErrNotFound) {
		t.Errorf("post-delete lookup err = %v", err)
	}
}

// TestLookupUnknownGUID: every replica AS answers "missing", so the walk
// asks each once and the first once more (§III-D1), then gives up.
func TestLookupUnknownGUID(t *testing.T) {
	c, nodes := testCluster(t, 12, 3)
	g := guid.New("ghost")
	if _, err := c.Lookup(g); !errors.Is(err, ErrNotFound) {
		t.Errorf("err = %v, want ErrNotFound", err)
	}
	placements, err := cResolver(c).Place(g)
	if err != nil {
		t.Fatal(err)
	}
	distinct := map[int]bool{}
	for _, p := range placements {
		distinct[p.AS] = true
	}
	var asked int64
	for _, n := range nodes {
		asked += n.Stats().Lookups
	}
	if want := int64(len(distinct) + 1); asked != want {
		t.Errorf("%d lookups served, want %d: each replica AS of %v once, the first again", asked, want, placements)
	}
}

func TestLookupInto(t *testing.T) {
	c, _ := testCluster(t, 12, 3)
	e := clusterEntry("laptop", 7)
	if _, err := c.Insert(e); err != nil {
		t.Fatal(err)
	}
	var got store.Entry
	got.NAs = make([]store.NA, 0, store.MaxNAs)
	if err := c.LookupInto(e.GUID, &got); err != nil {
		t.Fatal(err)
	}
	if got.GUID != e.GUID || got.Version != 7 || got.NAs[0].AS != 3 {
		t.Fatalf("LookupInto = %+v", got)
	}
	if err := c.LookupInto(guid.New("ghost"), &got); !errors.Is(err, ErrNotFound) {
		t.Fatalf("miss err = %v, want ErrNotFound", err)
	}
}

// LookupInto with a reused entry buffer is the ROADMAP's "last alloc"
// kill: the full TCP round trip must not touch the heap.
func TestLookupIntoZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; the alloc budget is asserted in non-race builds")
	}
	c, _ := testCluster(t, 4, 1)
	e := clusterEntry("hot", 1)
	if _, err := c.Insert(e); err != nil {
		t.Fatal(err)
	}
	var got store.Entry
	got.NAs = make([]store.NA, 0, store.MaxNAs)
	// Warm the connection, pools and reply slots.
	for i := 0; i < 16; i++ {
		if err := c.LookupInto(e.GUID, &got); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(200, func() {
		if err := c.LookupInto(e.GUID, &got); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("LookupInto allocs/op = %v, want 0", allocs)
	}
	// The other half of the law: plain Lookup pays for the NAs it
	// returns and nothing else.
	if allocs := testing.AllocsPerRun(200, func() {
		if _, err := c.Lookup(e.GUID); err != nil {
			t.Fatal(err)
		}
	}); allocs > 1 {
		t.Fatalf("Lookup allocs/op = %v, want ≤ 1", allocs)
	}
}

func TestUpdateMovesMapping(t *testing.T) {
	c, _ := testCluster(t, 16, 3)
	if _, err := c.Insert(clusterEntry("phone", 1)); err != nil {
		t.Fatal(err)
	}
	e2 := clusterEntry("phone", 2)
	e2.NAs[0].AS = 9
	if _, err := c.Update(e2); err != nil {
		t.Fatal(err)
	}
	got, err := c.Lookup(e2.GUID)
	if err != nil {
		t.Fatal(err)
	}
	if got.Version != 2 || got.NAs[0].AS != 9 {
		t.Errorf("after update: %+v", got)
	}
	// Stale update is ignored by every node.
	stale := clusterEntry("phone", 1)
	if _, err := c.Update(stale); err != nil {
		t.Fatal(err)
	}
	got, _ = c.Lookup(e2.GUID)
	if got.Version != 2 {
		t.Errorf("stale update rolled back to %d", got.Version)
	}
}

func TestReplicaFailureFallback(t *testing.T) {
	c, nodes := testCluster(t, 20, 5)
	e := clusterEntry("resilient", 1)
	if _, err := c.Insert(e); err != nil {
		t.Fatal(err)
	}
	// Kill the first three replica nodes; lookups must still succeed via
	// the survivors (§III-D3).
	placements, err := cResolver(c).Place(e.GUID)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range placements[:3] {
		nodes[p.AS].Close()
	}
	got, err := c.Lookup(e.GUID)
	if err != nil {
		t.Fatalf("lookup with 3 dead replicas: %v", err)
	}
	if got.GUID != e.GUID {
		t.Error("wrong entry")
	}
}

// cResolver exposes the resolver for test introspection.
func cResolver(c *Cluster) *core.Resolver { return c.resolver }

func TestInsertAllNodesDown(t *testing.T) {
	c, nodes := testCluster(t, 8, 2)
	for _, n := range nodes {
		n.Close()
	}
	if _, err := c.Insert(clusterEntry("doomed", 1)); err == nil {
		t.Error("insert with all nodes down should fail")
	}
}

func TestConcurrentClients(t *testing.T) {
	c, _ := testCluster(t, 24, 3)
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for w := 0; w < 8; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				name := fmt.Sprintf("obj-%d-%d", w, i)
				e := clusterEntry(name, 1)
				if _, err := c.Insert(e); err != nil {
					errs <- err
					return
				}
				got, err := c.Lookup(e.GUID)
				if err != nil {
					errs <- err
					return
				}
				if got.GUID != e.GUID {
					errs <- fmt.Errorf("wrong entry for %s", name)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func TestPooledConnectionReuse(t *testing.T) {
	c, nodes := testCluster(t, 2, 1)
	e := clusterEntry("pooled", 1)
	if _, err := c.Insert(e); err != nil {
		t.Fatal(err)
	}
	// Repeated lookups reuse the pooled connection.
	for i := 0; i < 10; i++ {
		if _, err := c.Lookup(e.GUID); err != nil {
			t.Fatal(err)
		}
	}
	st := nodes[0].Stats()
	st2 := nodes[1].Stats()
	if st.Lookups+st2.Lookups != 10 {
		t.Errorf("lookups served = %d, want 10", st.Lookups+st2.Lookups)
	}
}

func TestServerStats(t *testing.T) {
	c, nodes := testCluster(t, 2, 2)
	e := clusterEntry("counted", 1)
	if acks, err := c.Insert(e); err != nil || acks != 2 {
		t.Fatalf("Insert = %d, %v; want K=2 acks", acks, err)
	}
	if _, err := c.Lookup(e.GUID); err != nil {
		t.Fatal(err)
	}
	var total server.Stats
	for _, n := range nodes {
		s := n.Stats()
		total.Inserts += s.Inserts
		total.Lookups += s.Lookups
		total.Hits += s.Hits
	}
	// One write per distinct replica AS: placements that share an AS
	// share its frame, and the client still acks once per placement.
	placements, err := cResolver(c).Place(e.GUID)
	if err != nil {
		t.Fatal(err)
	}
	distinct := map[int]bool{}
	for _, p := range placements {
		distinct[p.AS] = true
	}
	if total.Inserts != int64(len(distinct)) {
		t.Errorf("inserts = %d, want %d (one per distinct replica AS of %v)", total.Inserts, len(distinct), placements)
	}
	if total.Hits < 1 {
		t.Errorf("hits = %d", total.Hits)
	}
}

func TestBackoffDeterministicAndBounded(t *testing.T) {
	p := RetryPolicy{MaxAttempts: 5, JitterSeed: 99}.withDefaults()
	if p.Backoff(3, 1) != 0 {
		t.Error("first attempt must not pause")
	}
	for attempt := 2; attempt <= 8; attempt++ {
		a := p.Backoff(3, attempt)
		b := p.Backoff(3, attempt)
		if a != b {
			t.Fatalf("attempt %d: jitter not deterministic (%v vs %v)", attempt, a, b)
		}
		grown := DefaultBaseBackoff << (attempt - 2)
		if grown <= 0 || grown > DefaultMaxBackoff {
			grown = DefaultMaxBackoff
		}
		if a < grown/2 || a > grown {
			t.Errorf("attempt %d: backoff %v outside [%v, %v]", attempt, a, grown/2, grown)
		}
	}
	// Different seeds decorrelate.
	q := p
	q.JitterSeed = 100
	same := 0
	for attempt := 2; attempt <= 10; attempt++ {
		if p.Backoff(1, attempt) == q.Backoff(1, attempt) {
			same++
		}
	}
	if same > 4 {
		t.Errorf("seeds 99 and 100 agreed on %d/9 backoffs", same)
	}
}

func TestStaleRedialIsObservableAndRecovers(t *testing.T) {
	c, nodes := testCluster(t, 2, 1)
	e := clusterEntry("stale", 1)
	if _, err := c.Insert(e); err != nil {
		t.Fatal(err)
	}
	// Find the replica node and its address, then bounce it: the pooled
	// connection dies but a fresh node accepts on the same address.
	placements, err := cResolver(c).Place(e.GUID)
	if err != nil {
		t.Fatal(err)
	}
	as := placements[0].AS
	old := nodes[as]
	st := old.Store()
	addr := c.addrs[as]
	if err := old.Close(); err != nil {
		t.Fatal(err)
	}
	fresh := server.NewWithOptions(st, server.Options{})
	if _, err := fresh.Start(addr); err != nil {
		t.Skipf("could not rebind %s: %v", addr, err)
	}
	t.Cleanup(func() { fresh.Close() })

	got, err := c.Lookup(e.GUID)
	if err != nil {
		t.Fatalf("lookup across node bounce: %v", err)
	}
	if got.GUID != e.GUID {
		t.Error("wrong entry")
	}
	if s := c.Stats(); s.Redials != 1 {
		t.Errorf("redials = %d, want 1 (stale pooled conn replaced, observably)", s.Redials)
	}
}

func TestRetryPolicyCountsRetries(t *testing.T) {
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
	// No node listening anywhere: every attempt is refused instantly.
	addrs := map[int]string{}
	for as := 0; as < 4; as++ {
		addrs[as] = "127.0.0.1:1" // reserved port, connection refused
	}
	c, err := NewWithConfig(resolver, addrs, Config{
		Timeout:    200 * time.Millisecond,
		OpDeadline: 2 * time.Second,
		Retry:      RetryPolicy{MaxAttempts: 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	if _, err := c.Lookup(guid.New("nobody-home")); err == nil {
		t.Fatal("lookup against dead cluster should fail")
	}
	if s := c.Stats(); s.Retries != 2 {
		t.Errorf("retries = %d, want MaxAttempts-1 = 2", s.Retries)
	}
}

func TestDrainingNodeRejectsAndClientFailsOver(t *testing.T) {
	c, nodes := testCluster(t, 20, 3)
	e := clusterEntry("drained", 1)
	placements, err := cResolver(c).Place(e.GUID)
	if err != nil {
		t.Fatal(err)
	}
	// Drain the first replica: inserts there are refused with MsgError,
	// the other two replicas still ack.
	nodes[placements[0].AS].Drain()
	acks, err := c.Insert(e)
	if err != nil {
		t.Fatal(err)
	}
	// Replicas can collide on an AS; the drained AS may host several.
	if acks == 0 || acks >= 3 {
		t.Errorf("acks = %d, want in [1, 2]", acks)
	}
	if s := c.Stats(); s.Rejects == 0 {
		t.Error("drain rejection not counted")
	}
	// Reads are unaffected; the entry resolves via the live replicas.
	if _, err := c.Lookup(e.GUID); err != nil {
		t.Fatalf("lookup with drained replica: %v", err)
	}
	// After resuming, writes reach the first replica again.
	nodes[placements[0].AS].Resume()
	if _, err := c.Update(clusterEntry("drained", 2)); err != nil {
		t.Fatal(err)
	}
	if _, ok := nodes[placements[0].AS].Store().Get(e.GUID); !ok {
		t.Error("resumed node missed the update")
	}
}

func TestOperationDeadline(t *testing.T) {
	c, _ := testCluster(t, 8, 3)
	// An already-expired budget: the first call aborts before any
	// network attempt.
	c.cfg.OpDeadline = -time.Second
	_, err := c.Lookup(guid.New("no-time"))
	if !errors.Is(err, ErrDeadline) {
		t.Fatalf("err = %v, want ErrDeadline", err)
	}
	if s := c.Stats(); s.Deadlines == 0 {
		t.Error("deadline abort not counted")
	}
}
