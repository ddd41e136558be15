package store

import (
	"fmt"
	"testing"

	"dmap/internal/guid"
	"dmap/internal/netaddr"
)

func digestEntry(name string, version uint64) Entry {
	return Entry{
		GUID:    guid.New(name),
		NAs:     []NA{{AS: 1, Addr: netaddr.AddrFromOctets(10, 0, 0, 1)}},
		Version: version,
	}
}

// pageThroughShard walks one shard with the bounded cursor and returns
// every digest in page order.
func pageThroughShard(t *testing.T, s *Store, shard, pageSize int) []Digest {
	t.Helper()
	var out []Digest
	after, _ := s.ShardRange(shard)
	page := make([]Digest, 0, pageSize)
	for {
		var more bool
		page, more = s.ShardDigests(shard, after, pageSize, page[:0])
		out = append(out, page...)
		if len(page) == 0 {
			if more {
				t.Fatal("empty page reported more")
			}
			return out
		}
		after = page[len(page)-1].GUID
		if !more {
			return out
		}
	}
}

func TestShardDigestsPagesInOrder(t *testing.T) {
	s, err := NewSharded(4)
	if err != nil {
		t.Fatal(err)
	}
	const n = 200
	want := make(map[guid.GUID]uint64, n)
	for i := 0; i < n; i++ {
		e := digestEntry(fmt.Sprintf("g%d", i), uint64(i+1))
		if _, err := s.Put(e); err != nil {
			t.Fatal(err)
		}
		want[e.GUID] = e.Version
	}
	for _, pageSize := range []int{1, 3, 7, 64, 1000} {
		got := make(map[guid.GUID]uint64)
		total := 0
		for shard := 0; shard < s.ShardCount(); shard++ {
			ds := pageThroughShard(t, s, shard, pageSize)
			for i, d := range ds {
				if i > 0 && guid.Compare(ds[i-1].GUID, d.GUID) >= 0 {
					t.Fatalf("pageSize %d shard %d: digests out of order at %d", pageSize, shard, i)
				}
				got[d.GUID] = d.Version
			}
			total += len(ds)
		}
		if total != n {
			t.Fatalf("pageSize %d: visited %d digests, want %d", pageSize, total, n)
		}
		for g, v := range want {
			if got[g] != v {
				t.Fatalf("pageSize %d: %s version %d, want %d", pageSize, g.Short(), got[g], v)
			}
		}
	}
}

func TestShardDigestsBoundedPage(t *testing.T) {
	s := New()
	for i := 0; i < 50; i++ {
		if _, err := s.Put(digestEntry(fmt.Sprintf("b%d", i), 1)); err != nil {
			t.Fatal(err)
		}
	}
	for shard := 0; shard < s.ShardCount(); shard++ {
		page, more := s.ShardDigests(shard, guid.GUID{}, 2, nil)
		if len(page) > 2 {
			t.Fatalf("shard %d: page size %d exceeds max 2", shard, len(page))
		}
		held, _ := s.ShardDigests(shard, guid.GUID{}, s.Len()+1, nil)
		if len(held) > 2 && !more {
			t.Fatalf("shard %d holds %d entries but a 2-digest page reported no more", shard, len(held))
		}
	}
}

func TestShardRangePartitionsKeyspace(t *testing.T) {
	for _, shards := range []int{1, 2, 8, 256} {
		s, err := NewSharded(shards)
		if err != nil {
			t.Fatal(err)
		}
		prevThrough := guid.GUID{}
		for i := 0; i < s.ShardCount(); i++ {
			after, through := s.ShardRange(i)
			if i == 0 && !after.IsZero() {
				t.Fatalf("%d shards: shard 0 after = %s, want zero", shards, after)
			}
			if i > 0 && after != prevThrough {
				t.Fatalf("%d shards: shard %d after %s != shard %d through %s", shards, i, after, i-1, prevThrough)
			}
			if guid.Compare(after, through) >= 0 {
				t.Fatalf("%d shards: shard %d empty range (%s, %s]", shards, i, after, through)
			}
			prevThrough = through
		}
		if prevThrough != guid.Max() {
			t.Fatalf("%d shards: last through = %s, want max", shards, prevThrough)
		}
		// Every stored GUID falls inside its own shard's range.
		for i := 0; i < 64; i++ {
			g := guid.New(fmt.Sprintf("r%d", i))
			idx := (uint32(g[0])<<8 | uint32(g[1])) >> s.shift
			after, through := s.ShardRange(int(idx))
			if guid.Compare(g, after) <= 0 || guid.Compare(g, through) > 0 {
				t.Fatalf("%d shards: %s outside its shard range (%s, %s]", shards, g, after, through)
			}
		}
	}
}

func TestVersion(t *testing.T) {
	s := New()
	var all []guid.GUID
	for i := 0; i < 30; i++ {
		e := digestEntry(fmt.Sprintf("v%d", i), uint64(10+i))
		if _, err := s.Put(e); err != nil {
			t.Fatal(err)
		}
		all = append(all, e.GUID)
	}
	if v, ok := s.Version(all[3]); !ok || v != 13 {
		t.Fatalf("Version = %d,%v want 13,true", v, ok)
	}
	if _, ok := s.Version(guid.New("absent")); ok {
		t.Fatal("Version found an absent GUID")
	}
}
