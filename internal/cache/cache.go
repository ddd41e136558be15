// Package cache implements the in-network caching extension sketched in
// the paper's future work (§VII: "a feasible in-network caching method
// that builds on top of the basic DMap scheme").
//
// Each AS keeps a bounded LRU cache of recently resolved GUID→NA
// mappings with a TTL. A cache hit answers at intra-AS latency; the cost
// is bounded staleness: a mapping updated after it was cached is served
// stale until the TTL expires — the same freshness trade-off the paper
// rejects for DNS at long TTLs, which is why the TTL here is a tunable
// measured by the caching experiment.
//
// Time is the simulation's Micros clock, keeping the package free of
// wall-clock dependencies and bit-for-bit reproducible.
package cache

import (
	"container/list"
	"fmt"

	"dmap/internal/guid"
	"dmap/internal/store"
	"dmap/internal/topology"
)

// Cache is a single AS's query cache. It is not safe for concurrent use;
// the simulator drives each AS from one goroutine.
type Cache struct {
	capacity int
	ttl      topology.Micros
	lru      *list.List // front = most recently used
	m        map[guid.GUID]*list.Element
}

type item struct {
	g        guid.GUID
	e        store.Entry
	cachedAt topology.Micros
}

// New creates a cache holding up to capacity entries that expire ttl
// after insertion. Both must be positive.
func New(capacity int, ttl topology.Micros) (*Cache, error) {
	if capacity <= 0 {
		return nil, fmt.Errorf("cache: capacity must be positive, got %d", capacity)
	}
	if ttl <= 0 {
		return nil, fmt.Errorf("cache: ttl must be positive, got %d", ttl)
	}
	return &Cache{
		capacity: capacity,
		ttl:      ttl,
		lru:      list.New(),
		m:        make(map[guid.GUID]*list.Element, capacity),
	}, nil
}

// Len returns the number of live entries (including not-yet-collected
// expired ones).
func (c *Cache) Len() int { return c.lru.Len() }

// Get returns the cached mapping for g at the given time, along with the
// time it was cached (for staleness accounting). Expired entries are
// evicted on access.
func (c *Cache) Get(g guid.GUID, now topology.Micros) (store.Entry, topology.Micros, bool) {
	el, ok := c.m[g]
	if !ok {
		return store.Entry{}, 0, false
	}
	it := el.Value.(*item)
	if now-it.cachedAt > c.ttl {
		c.lru.Remove(el)
		delete(c.m, g)
		return store.Entry{}, 0, false
	}
	c.lru.MoveToFront(el)
	return it.e, it.cachedAt, true
}

// Put caches a freshly resolved mapping, evicting the LRU entry at
// capacity. Re-putting an existing GUID refreshes both value and TTL.
func (c *Cache) Put(g guid.GUID, e store.Entry, now topology.Micros) {
	if el, ok := c.m[g]; ok {
		it := el.Value.(*item)
		it.e = e
		it.cachedAt = now
		c.lru.MoveToFront(el)
		return
	}
	if c.lru.Len() >= c.capacity {
		oldest := c.lru.Back()
		c.lru.Remove(oldest)
		delete(c.m, oldest.Value.(*item).g)
	}
	c.m[g] = c.lru.PushFront(&item{g: g, e: e, cachedAt: now})
}
