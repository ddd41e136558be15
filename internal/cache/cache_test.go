package cache

import (
	"testing"

	"dmap/internal/guid"
	"dmap/internal/netaddr"
	"dmap/internal/store"
	"dmap/internal/topology"
)

func entryAt(name string, as int) store.Entry {
	return store.Entry{
		GUID:    guid.New(name),
		NAs:     []store.NA{{AS: as, Addr: netaddr.AddrFromOctets(10, 0, 0, 1)}},
		Version: 1,
	}
}

const ms = topology.Micros(1000)

func TestNewValidation(t *testing.T) {
	if _, err := New(0, ms); err == nil {
		t.Error("capacity 0 should fail")
	}
	if _, err := New(1, 0); err == nil {
		t.Error("ttl 0 should fail")
	}
}

func TestPutGetWithinTTL(t *testing.T) {
	c, err := New(4, 100*ms)
	if err != nil {
		t.Fatal(err)
	}
	e := entryAt("a", 7)
	c.Put(e.GUID, e, 0)
	got, cachedAt, ok := c.Get(e.GUID, 50*ms)
	if !ok || got.NAs[0].AS != 7 || cachedAt != 0 {
		t.Fatalf("Get = (%+v, %v, %v)", got, cachedAt, ok)
	}
}

func TestTTLExpiry(t *testing.T) {
	c, _ := New(4, 100*ms)
	e := entryAt("a", 7)
	c.Put(e.GUID, e, 0)
	if _, _, ok := c.Get(e.GUID, 100*ms); !ok {
		t.Fatal("exactly at TTL should still hit")
	}
	if _, _, ok := c.Get(e.GUID, 101*ms); ok {
		t.Fatal("past TTL should miss")
	}
	if c.Len() != 0 {
		t.Errorf("Len = %d, expired entry should be evicted", c.Len())
	}
}

func TestLRUEviction(t *testing.T) {
	c, _ := New(2, 1000*ms)
	a, b, d := entryAt("a", 1), entryAt("b", 2), entryAt("d", 3)
	c.Put(a.GUID, a, 0)
	c.Put(b.GUID, b, 1)
	// Touch a so b becomes LRU.
	if _, _, ok := c.Get(a.GUID, 2); !ok {
		t.Fatal("a should hit")
	}
	c.Put(d.GUID, d, 3)
	if _, _, ok := c.Get(b.GUID, 4); ok {
		t.Error("b should have been evicted (LRU)")
	}
	if _, _, ok := c.Get(a.GUID, 4); !ok {
		t.Error("a should survive")
	}
	if c.Len() != 2 {
		t.Errorf("Len = %d", c.Len())
	}
}

func TestRefreshOnPut(t *testing.T) {
	c, _ := New(2, 100*ms)
	e := entryAt("a", 1)
	c.Put(e.GUID, e, 0)
	e2 := e
	e2.Version = 2
	c.Put(e.GUID, e2, 90*ms) // refresh near expiry
	got, cachedAt, ok := c.Get(e.GUID, 150*ms)
	if !ok {
		t.Fatal("refreshed entry should hit past the original TTL")
	}
	if got.Version != 2 || cachedAt != 90*ms {
		t.Errorf("got version %d cachedAt %v", got.Version, cachedAt)
	}
	if c.Len() != 1 {
		t.Errorf("refresh must not duplicate: Len = %d", c.Len())
	}
}

// TestStatsCounters: what Get returns tells a miss, a hit and an expired
// entry apart — the caching experiment counts its hits from it.
func TestStatsCounters(t *testing.T) {
	c, _ := New(2, 100*ms)
	e := entryAt("a", 1)
	if _, _, ok := c.Get(e.GUID, 0); ok {
		t.Fatal("Get of an uncached GUID hit")
	}
	c.Put(e.GUID, e, 0)
	if got, cachedAt, ok := c.Get(e.GUID, 1); !ok || got.Version != 1 || cachedAt != 0 {
		t.Fatalf("Get within the TTL = (%+v, %v, %v), want the entry cached at 0", got, cachedAt, ok)
	}
	if _, _, ok := c.Get(e.GUID, 200*ms); ok || c.Len() != 0 {
		t.Fatalf("Get past the TTL: hit %t, %d entries left; want a miss that evicts", ok, c.Len())
	}
}

func TestManyEntriesStayBounded(t *testing.T) {
	c, _ := New(32, 1000*ms)
	for i := 0; i < 1000; i++ {
		e := entryAt(string(rune('a'+i%64))+string(rune('A'+i/64)), i)
		c.Put(e.GUID, e, topology.Micros(i))
	}
	if c.Len() > 32 {
		t.Errorf("Len = %d exceeds capacity", c.Len())
	}
}
