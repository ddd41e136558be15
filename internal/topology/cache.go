package topology

import (
	"container/list"
	"fmt"
	"sync"
)

// DistCache memoizes Dijkstra distance vectors per source AS with LRU
// eviction, bounding memory while serving out-of-order latency queries
// from the event-driven simulator and the parallel evaluation engine.
//
// The cache is sharded by source AS: each shard has its own lock, LRU
// list and slice of the total capacity, so concurrent workers resolving
// different sources never contend on a single mutex (the old
// single-lock design was the hot-path contention point of every
// multi-hop baseline run). It is safe for concurrent use.
type DistCache struct {
	g      *Graph
	shards []distShard
}

// maxDistShards bounds the shard count; capacities smaller than this
// get one slot per shard.
const maxDistShards = 16

type distShard struct {
	mu  sync.Mutex
	cap int
	lru *list.List // of *cacheEntry, front = most recent
	m   map[int]*list.Element
}

type cacheEntry struct {
	src  int
	dist []Micros
}

// NewDistCache returns a cache holding up to capacity distance vectors
// (each NumAS × 8 bytes), split evenly across the shards. capacity must
// be positive.
func NewDistCache(g *Graph, capacity int) (*DistCache, error) {
	if capacity <= 0 {
		return nil, fmt.Errorf("topology: cache capacity must be positive, got %d", capacity)
	}
	numShards := maxDistShards
	if capacity < numShards {
		numShards = capacity
	}
	c := &DistCache{g: g, shards: make([]distShard, numShards)}
	for i := range c.shards {
		// Distribute the capacity exactly: the first capacity%numShards
		// shards take one extra slot.
		sc := capacity / numShards
		if i < capacity%numShards {
			sc++
		}
		c.shards[i] = distShard{
			cap: sc,
			lru: list.New(),
			m:   make(map[int]*list.Element, sc),
		}
	}
	return c, nil
}

// vector returns the Dijkstra vector from src, computing it on miss.
func (c *DistCache) vector(src int) []Micros {
	sh := &c.shards[src%len(c.shards)]
	sh.mu.Lock()
	if el, ok := sh.m[src]; ok {
		sh.lru.MoveToFront(el)
		dist := el.Value.(*cacheEntry).dist
		sh.mu.Unlock()
		return dist
	}
	sh.mu.Unlock()

	// Compute outside the lock; duplicate work on a race is harmless.
	dist := make([]Micros, c.g.NumAS())
	c.g.Dijkstra(src, dist)

	sh.mu.Lock()
	defer sh.mu.Unlock()
	if el, ok := sh.m[src]; ok { // raced with another filler
		return el.Value.(*cacheEntry).dist
	}
	if sh.lru.Len() >= sh.cap {
		oldest := sh.lru.Back()
		sh.lru.Remove(oldest)
		delete(sh.m, oldest.Value.(*cacheEntry).src)
	}
	sh.m[src] = sh.lru.PushFront(&cacheEntry{src: src, dist: dist})
	return dist
}

// OneWay returns the end-to-end one-way latency from AS s to AS t.
func (c *DistCache) OneWay(s, t int) Micros {
	if s == t {
		return c.g.Intra(s)
	}
	return c.g.OneWay(s, t, c.vector(s))
}

// RTT returns the round-trip latency between AS s and AS t.
func (c *DistCache) RTT(s, t int) Micros {
	ow := c.OneWay(s, t)
	if ow == InfMicros {
		return InfMicros
	}
	return 2 * ow
}
