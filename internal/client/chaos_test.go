package client

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"dmap/internal/core"
	"dmap/internal/guid"
	"dmap/internal/prefixtable"
	"dmap/internal/server"
	"dmap/internal/store"
)

// Chaos test: concurrent Insert/Lookup/Delete traffic through a live
// cluster while a killer goroutine crashes and revives nodes. Stores
// persist across restarts (a revived node keeps its data, like a real
// DMap node rejoining), so the invariant under test is §III-D3's: no
// deadlocks, and no acknowledged write is ever lost. Run under -race via
// scripts/check.sh.

// chaosCluster is a testCluster variant whose per-AS stores outlive node
// restarts.
type chaosCluster struct {
	c      *Cluster
	stores []*store.Store
	addrs  map[int]string

	mu    sync.Mutex
	nodes []*server.Node
}

func newChaosCluster(t *testing.T, numAS, k int) *chaosCluster {
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
	cc := &chaosCluster{
		stores: make([]*store.Store, numAS),
		nodes:  make([]*server.Node, numAS),
	}
	addrs := make(map[int]string, numAS)
	cc.addrs = addrs
	for as := 0; as < numAS; as++ {
		cc.stores[as] = store.New()
		n := server.NewWithOptions(cc.stores[as], server.Options{})
		addr, err := n.Start("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		cc.nodes[as] = n
		addrs[as] = addr
	}
	t.Cleanup(func() {
		cc.mu.Lock()
		defer cc.mu.Unlock()
		for _, n := range cc.nodes {
			n.Close()
		}
	})
	cc.c, err = NewWithConfig(resolver, addrs, Config{
		Timeout:    300 * time.Millisecond,
		OpDeadline: 3 * time.Second,
		Retry:      RetryPolicy{MaxAttempts: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cc.c.Close)
	return cc
}

// kill crashes the node for as; in-flight and future requests to it fail
// until revive.
func (cc *chaosCluster) kill(as int) {
	cc.mu.Lock()
	defer cc.mu.Unlock()
	cc.nodes[as].Close()
}

// revive restarts as's node on the address it had, with the surviving
// store, as a restarted process would come back.
func (cc *chaosCluster) revive(t *testing.T, as int) {
	cc.mu.Lock()
	defer cc.mu.Unlock()
	n := server.NewWithOptions(cc.stores[as], server.Options{})
	if _, err := n.Start(cc.addrs[as]); err != nil {
		t.Errorf("revive AS %d: %v", as, err)
		return
	}
	cc.nodes[as] = n
}

func TestChaosNoLostAcknowledgedWrites(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos test is slow")
	}
	const (
		numAS    = 16
		k        = 3
		writers  = 3
		readers  = 2
		deleters = 1
		duration = 2 * time.Second
	)
	cc := newChaosCluster(t, numAS, k)

	type acked struct {
		name    string
		version uint64
	}
	var (
		ackedMu  sync.Mutex
		survived []acked // acked inserts never targeted by a delete
	)
	stop := make(chan struct{})
	var wg sync.WaitGroup

	// Writers: disjoint keyspaces (prefix w<id>-), record every
	// acknowledged insert.
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				name := fmt.Sprintf("w%d-%d", id, i)
				e := clusterEntry(name, uint64(i)+1)
				e.GUID = guid.New(name)
				if acks, err := cc.c.Insert(e); err == nil && acks > 0 {
					ackedMu.Lock()
					survived = append(survived, acked{name, e.Version})
					ackedMu.Unlock()
				}
			}
		}(w)
	}

	// Deleters: their own keyspace (d<id>-); insert then delete, so
	// deletes never race the writers' records.
	for d := 0; d < deleters; d++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				name := fmt.Sprintf("d%d-%d", id, i)
				e := clusterEntry(name, 1)
				e.GUID = guid.New(name)
				if acks, err := cc.c.Insert(e); err == nil && acks > 0 {
					_, _ = cc.c.Delete(e.GUID)
				}
			}
		}(d)
	}

	// Readers: hammer lookups of recent acked keys; during chaos a
	// lookup may fail, but it must never hang past the op deadline.
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(1000 + id)))
			for {
				select {
				case <-stop:
					return
				default:
				}
				ackedMu.Lock()
				var name string
				if len(survived) > 0 {
					name = survived[rng.Intn(len(survived))].name
				}
				ackedMu.Unlock()
				if name == "" {
					time.Sleep(time.Millisecond)
					continue
				}
				start := time.Now()
				_, err := cc.c.Lookup(guid.New(name))
				if el := time.Since(start); el > 5*time.Second {
					t.Errorf("lookup blocked %v (err=%v)", el, err)
				}
			}
		}(r)
	}

	// The killer: crash a random node, let traffic fail over, revive it.
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(2))
		for {
			select {
			case <-stop:
				return
			case <-time.After(50 * time.Millisecond):
			}
			as := rng.Intn(numAS)
			cc.kill(as)
			time.Sleep(30 * time.Millisecond)
			cc.revive(t, as)
		}
	}()

	time.Sleep(duration)
	close(stop)
	wg.Wait()

	// Heal: every node alive at its current address.
	// (revive already repointed the client; nothing else to do.)

	// No acknowledged write may be lost: with persistent stores, an ack
	// means at least one replica durably holds the entry, and the healed
	// cluster must serve it.
	ackedMu.Lock()
	checks := append([]acked(nil), survived...)
	ackedMu.Unlock()
	if len(checks) == 0 {
		t.Fatal("chaos produced no acknowledged writes; cluster was never available")
	}
	lost := 0
	for _, a := range checks {
		e, err := cc.c.Lookup(guid.New(a.name))
		if err != nil {
			if errors.Is(err, ErrNotFound) {
				lost++
				t.Errorf("acknowledged write %q lost", a.name)
				continue
			}
			t.Fatalf("healed-cluster lookup %q: %v", a.name, err)
		}
		if e.Version < a.version {
			t.Errorf("%q regressed to version %d < %d", a.name, e.Version, a.version)
		}
	}
	t.Logf("chaos: %d acknowledged writes, %d lost, client stats %+v",
		len(checks), lost, cc.c.Stats())
}
