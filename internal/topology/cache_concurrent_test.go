package topology

import (
	"sync"
	"testing"
)

// TestDistCacheConcurrent hammers the sharded cache from many goroutines
// and then checks every returned RTT against a directly computed
// distance vector. Run under -race it exercises shard locking, the
// compute-outside-lock fill path and the raced-filler re-check.
func TestDistCacheConcurrent(t *testing.T) {
	g := testGraph(t, 300, 9)
	// Tight capacity forces concurrent eviction alongside the hits.
	c, err := NewDistCache(g, 8)
	if err != nil {
		t.Fatal(err)
	}

	const goroutines = 8
	const queries = 300
	got := make([][]Micros, goroutines)
	var wg sync.WaitGroup
	for gr := 0; gr < goroutines; gr++ {
		gr := gr
		got[gr] = make([]Micros, queries)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < queries; i++ {
				// Sources overlap across goroutines; destinations stay
				// disjoint from sources because same-AS queries answer
				// from Intra without touching the cache.
				src := (gr*7 + i) % 20
				dst := 20 + (i*13)%(g.NumAS()-20)
				got[gr][i] = c.RTT(src, dst)
			}
		}()
	}
	wg.Wait()

	// RTTs are pure functions of the graph: whatever the interleaving,
	// eviction and refill did, every answer must equal the direct one.
	dist := make([]Micros, g.NumAS())
	for gr := 0; gr < goroutines; gr++ {
		for i := 0; i < queries; i++ {
			src := (gr*7 + i) % 20
			dst := 20 + (i*13)%(g.NumAS()-20)
			g.Dijkstra(src, dist)
			if want := g.RTT(src, dst, dist); got[gr][i] != want {
				t.Fatalf("RTT(%d,%d) = %v under concurrency, want %v", src, dst, got[gr][i], want)
			}
		}
	}

	for i := range c.shards {
		if sh := &c.shards[i]; sh.lru.Len() > sh.cap || len(sh.m) != sh.lru.Len() {
			t.Errorf("shard %d holds %d vectors (%d indexed), capacity %d", i, sh.lru.Len(), len(sh.m), sh.cap)
		}
	}
}

// TestDistCacheShardCapacity checks the exact capacity split across
// shards: total slots must equal the requested capacity even when it
// does not divide evenly.
func TestDistCacheShardCapacity(t *testing.T) {
	g := testGraph(t, 50, 1)
	for _, capacity := range []int{1, 2, 3, 15, 16, 17, 100} {
		c, err := NewDistCache(g, capacity)
		if err != nil {
			t.Fatal(err)
		}
		total := 0
		for i := range c.shards {
			if c.shards[i].cap <= 0 {
				t.Fatalf("capacity %d: shard %d has cap %d", capacity, i, c.shards[i].cap)
			}
			total += c.shards[i].cap
		}
		if total != capacity {
			t.Errorf("capacity %d split into %d total slots", capacity, total)
		}
	}
}
