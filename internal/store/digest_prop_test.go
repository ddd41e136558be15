package store

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"testing"

	"dmap/internal/guid"
)

// sortedShard returns shard i's digests in keyspace order by brute
// force: the reference every page is compared against.
func sortedShard(s *Store, i int) []Digest {
	var all []Digest
	rangeShard(&s.shards[i], func(e Entry) bool {
		all = append(all, Digest{GUID: e.GUID, Version: e.Version})
		return true
	})
	sort.Slice(all, func(a, b int) bool { return guid.Compare(all[a].GUID, all[b].GUID) < 0 })
	return all
}

// randomGUID draws from the whole keyspace, so every shard fills.
func randomGUID(rng *rand.Rand) guid.GUID {
	var g guid.GUID
	rng.Read(g[:])
	return g
}

// TestShardDigestsPagesTileTheShard: for seeded random shards, cursor
// positions and page sizes, every page is exactly the max smallest
// digests beyond the cursor, more says whether something lies beyond
// it, and successive pages tile the shard in keyspace order with
// nothing skipped or repeated. IntervalDigests over any (after,
// through] is the same reference cut at both ends.
func TestShardDigestsPagesTileTheShard(t *testing.T) {
	for seed := int64(1); seed <= 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		s, err := NewSharded(1 << uint(rng.Intn(4)))
		if err != nil {
			t.Fatal(err)
		}
		n := rng.Intn(1500)
		for k := 0; k < n; k++ {
			if _, err := s.Put(Entry{GUID: randomGUID(rng), NAs: []NA{{AS: 1}}, Version: uint64(rng.Intn(9) + 1)}); err != nil {
				t.Fatal(err)
			}
		}
		var whole []Digest
		for shard := 0; shard < s.ShardCount(); shard++ {
			ref := sortedShard(s, shard)
			whole = append(whole, ref...)
			for trial := 0; trial < 8; trial++ {
				max := 1 + rng.Intn(2*len(ref)+3)
				// Start at the shard's lower bound, at a stored GUID or at
				// an arbitrary point of the keyspace.
				after, _ := s.ShardRange(shard)
				switch {
				case trial%3 == 1 && len(ref) > 0:
					after = ref[rng.Intn(len(ref))].GUID
				case trial%3 == 2:
					after = randomGUID(rng)
				}
				rest := ref[sort.Search(len(ref), func(i int) bool { return guid.Compare(ref[i].GUID, after) > 0 }):]
				junk := Digest{GUID: guid.New("kept"), Version: 7}
				page := []Digest{junk} // what dst already holds stays put
				for len(rest) > 0 {
					var more bool
					page, more = s.ShardDigests(shard, after, max, page[:1])
					want := rest[:min(max, len(rest))]
					if page[0] != junk || fmt.Sprint(page[1:]) != fmt.Sprint(want) {
						t.Fatalf("seed %d shard %d max %d after %s: page %v, want %v", seed, shard, max, after.Short(), page[1:], want)
					}
					if more != (len(rest) > len(want)) {
						t.Fatalf("seed %d shard %d max %d: more = %v with %d of %d digests paged", seed, shard, max, more, len(want), len(rest))
					}
					rest, after = rest[len(want):], want[len(want)-1].GUID
				}
				if page, more := s.ShardDigests(shard, after, max, nil); len(page) != 0 || more {
					t.Fatalf("seed %d shard %d: past the end: %v, more=%v", seed, shard, page, more)
				}
			}
		}
		for trial := 0; trial < 20; trial++ {
			after, through := randomGUID(rng), randomGUID(rng)
			if trial == 0 {
				after, through = guid.GUID{}, guid.Max()
			}
			var want []Digest
			for _, d := range whole {
				if guid.Compare(d.GUID, after) > 0 && guid.Compare(d.GUID, through) <= 0 {
					want = append(want, d)
				}
			}
			if got := s.IntervalDigests(after, through, nil); fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("seed %d: IntervalDigests(%s, %s] = %d digests %v, want %d %v", seed, after.Short(), through.Short(), len(got), got, len(want), want)
			}
		}
	}
}

// TestShardDigestsPagesTileUnderConcurrentPut: with writers adding
// entries all over the keyspace during the walk, successive pages still
// come in strictly ascending keyspace order — nothing repeated — and every
// entry that was there from the start is paged exactly once.
func TestShardDigestsPagesTileUnderConcurrentPut(t *testing.T) {
	s, err := NewSharded(2)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(99))
	settled := make(map[guid.GUID]bool)
	for k := 0; k < 2000; k++ {
		g := randomGUID(rng)
		settled[g] = true
		if _, err := s.Put(Entry{GUID: g, NAs: []NA{{AS: 1}}, Version: 1}); err != nil {
			t.Fatal(err)
		}
	}
	// The writers are bounded: pages of a few dozen digests cannot outrun
	// writers that add entries beyond the cursor for ever.
	var writers sync.WaitGroup
	for w := 0; w < 2; w++ {
		writers.Add(1)
		go func(seed int64) {
			defer writers.Done()
			rng := rand.New(rand.NewSource(seed))
			for v := uint64(2); v < 3000; v++ {
				if _, err := s.Put(Entry{GUID: randomGUID(rng), NAs: []NA{{AS: 2}}, Version: v}); err != nil {
					t.Error(err)
					return
				}
			}
		}(int64(w))
	}
	for round := 0; round < 4; round++ {
		seen := 0
		for shard := 0; shard < s.ShardCount(); shard++ {
			after, _ := s.ShardRange(shard)
			page := make([]Digest, 0, 64)
			for more := true; more; {
				page, more = s.ShardDigests(shard, after, 1+rng.Intn(64), page[:0])
				for _, d := range page {
					if guid.Compare(d.GUID, after) <= 0 {
						t.Fatalf("shard %d: %s paged at or before the cursor %s", shard, d.GUID.Short(), after.Short())
					}
					after = d.GUID
					if settled[d.GUID] {
						seen++
					}
				}
			}
		}
		if seen != len(settled) {
			t.Fatalf("round %d: paged %d of the %d entries held throughout", round, seen, len(settled))
		}
	}
	writers.Wait()
}

// TestLessIsKeyspaceOrder: the pager's word-first comparison orders
// every pair as guid.Compare does, also where GUIDs agree on the first
// word, the first byte after it, or everywhere.
func TestLessIsKeyspaceOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 20000; i++ {
		a, b := randomGUID(rng), randomGUID(rng)
		copy(b[:rng.Intn(guid.Size+1)], a[:]) // a common prefix of every length
		want := guid.Compare(a, b)
		if less(&a, &b) != (want < 0) || less(&b, &a) != (want > 0) {
			t.Fatalf("less(%x, %x) disagrees with guid.Compare = %d", a, b, want)
		}
	}
}
