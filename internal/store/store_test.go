package store

import (
	"slices"
	"sync"
	"testing"
	"unsafe"

	"dmap/internal/guid"
	"dmap/internal/metrics"
	"dmap/internal/netaddr"
)

func entry(name string, version uint64, ases ...int) Entry {
	nas := make([]NA, len(ases))
	for i, as := range ases {
		nas[i] = NA{AS: as, Addr: netaddr.AddrFromOctets(10, 0, 0, byte(i))}
	}
	return Entry{GUID: guid.New(name), NAs: nas, Version: version}
}

func TestPutGet(t *testing.T) {
	s := New()
	e := entry("laptop", 1, 7)
	applied, err := s.Put(e)
	if err != nil || !applied {
		t.Fatalf("Put = (%v, %v)", applied, err)
	}
	got, ok := s.Get(e.GUID)
	if !ok {
		t.Fatal("Get missed")
	}
	if got.NAs[0].AS != 7 || got.Version != 1 {
		t.Errorf("Get = %+v", got)
	}
	if _, ok := s.Get(guid.New("other")); ok {
		t.Error("Get(other) should miss")
	}
	if s.Len() != 1 {
		t.Errorf("Len = %d", s.Len())
	}
}

func TestPutValidation(t *testing.T) {
	s := New()
	cases := []Entry{
		{},                              // zero GUID
		{GUID: guid.New("g")},           // no NAs
		entry("g", 1, 1, 2, 3, 4, 5, 6), // too many NAs
		{GUID: guid.New("g"), NAs: []NA{{AS: -1}}}, // negative AS
	}
	for i, e := range cases {
		if _, err := s.Put(e); err == nil {
			t.Errorf("case %d: Put(%+v) should fail", i, e)
		}
	}
	if s.Len() != 0 {
		t.Errorf("failed puts must not store: Len = %d", s.Len())
	}
}

func TestPutVersioning(t *testing.T) {
	s := New()
	g := guid.New("phone")
	if _, err := s.Put(entry("phone", 5, 1)); err != nil {
		t.Fatal(err)
	}
	// Stale update (lower version) rejected.
	applied, err := s.Put(entry("phone", 4, 2))
	if err != nil || applied {
		t.Fatalf("stale Put = (%v, %v), want (false, nil)", applied, err)
	}
	// Equal version also rejected (idempotent redelivery).
	if applied, _ := s.Put(entry("phone", 5, 2)); applied {
		t.Fatal("equal-version Put should not apply")
	}
	got, _ := s.Get(g)
	if got.NAs[0].AS != 1 {
		t.Errorf("stale update overwrote entry: %+v", got)
	}
	// Newer version applies.
	if applied, _ := s.Put(entry("phone", 6, 3)); !applied {
		t.Fatal("newer Put should apply")
	}
	got, _ = s.Get(g)
	if got.NAs[0].AS != 3 || got.Version != 6 {
		t.Errorf("after update: %+v", got)
	}
}

func TestDelete(t *testing.T) {
	s := New()
	e := entry("x", 1, 1)
	if _, err := s.Put(e); err != nil {
		t.Fatal(err)
	}
	if !s.Delete(e.GUID) {
		t.Error("Delete should report true")
	}
	if s.Delete(e.GUID) {
		t.Error("second Delete should report false")
	}
	if s.Len() != 0 {
		t.Errorf("Len = %d", s.Len())
	}
}

func TestGetReturnsCopy(t *testing.T) {
	s := New()
	e := entry("y", 1, 1, 2)
	if _, err := s.Put(e); err != nil {
		t.Fatal(err)
	}
	got, _ := s.Get(e.GUID)
	got.NAs[0].AS = 999
	again, _ := s.Get(e.GUID)
	if again.NAs[0].AS == 999 {
		t.Error("Get must return a copy, not shared state")
	}
	// The caller's slice must not alias the store either.
	e.NAs[1].AS = 888
	again, _ = s.Get(e.GUID)
	if again.NAs[1].AS == 888 {
		t.Error("Put must copy the caller's NAs")
	}
}

func TestRead(t *testing.T) {
	s := New()
	e := entry("view", 3, 1, 2)
	if _, err := s.Put(e); err != nil {
		t.Fatal(err)
	}
	var buf [MaxNAs]NA
	seen, ok := s.Read(e.GUID, &buf)
	if !ok {
		t.Fatal("Read missed an existing entry")
	}
	if seen.GUID != e.GUID || seen.Version != 3 || !slices.Equal(seen.NAs, e.NAs) {
		t.Fatalf("Read observed %+v", seen)
	}
	if miss, ok := s.Read(guid.New("absent"), &buf); ok || miss.NAs != nil {
		t.Fatalf("Read of an absent GUID = %+v, %v", miss, ok)
	}
	// Read hands out a copy in the caller's buffer: scribbling over it
	// must not reach the store.
	seen.NAs[0].AS, buf[1].AS = 999, 888
	if again, _ := s.Get(e.GUID); !slices.Equal(again.NAs, e.NAs) {
		t.Errorf("writing to Read's buffer changed the stored entry: %+v", again)
	}
	// The counters track it like any read.
	reg := metrics.NewRegistry()
	s.Instrument(reg, "store")
	if _, ok := s.Read(e.GUID, &buf); !ok {
		t.Fatal("Read missed after instrumentation")
	}
	s.Read(guid.New("absent"), &buf)
	snap := reg.Snapshot()
	if got := snap.Counters["store.gets"]; got != 2 {
		t.Errorf("store.gets = %d after two Reads, want 2", got)
	}
	if got := snap.Counters["store.hits"]; got != 1 {
		t.Errorf("store.hits = %d, want 1", got)
	}
}

// A shard fills one 64-byte cache line, so that two neighbouring
// shards' locks never share one: a field added or removed must resize
// the pad.
func TestShardIsOneCacheLine(t *testing.T) {
	if got := unsafe.Sizeof(shard{}); got != 64 {
		t.Errorf("shard is %d bytes, want 64", got)
	}
}

func TestRange(t *testing.T) {
	s := New()
	names := []string{"a", "b", "c"}
	for _, n := range names {
		if _, err := s.Put(entry(n, 1, 1)); err != nil {
			t.Fatal(err)
		}
	}
	count := 0
	s.Range(func(Entry) bool { count++; return true })
	if count != 3 {
		t.Errorf("Range visited %d, want 3", count)
	}
	count = 0
	s.Range(func(Entry) bool { count++; return false })
	if count != 1 {
		t.Errorf("early-stop Range visited %d, want 1", count)
	}
}

func TestExtract(t *testing.T) {
	s := New()
	keep := entry("keep", 1, 1)
	move1 := entry("move1", 1, 2)
	move2 := entry("move2", 1, 3)
	for _, e := range []Entry{keep, move1, move2} {
		if _, err := s.Put(e); err != nil {
			t.Fatal(err)
		}
	}
	moved := s.Extract(func(g guid.GUID) bool { return g != keep.GUID })
	if len(moved) != 2 {
		t.Fatalf("Extract returned %d entries, want 2", len(moved))
	}
	if s.Len() != 1 {
		t.Errorf("Len after Extract = %d, want 1", s.Len())
	}
	if _, ok := s.Get(keep.GUID); !ok {
		t.Error("kept entry missing")
	}
	if _, ok := s.Get(move1.GUID); ok {
		t.Error("extracted entry still present")
	}
}

func TestConcurrentAccess(t *testing.T) {
	s := New()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				name := string(rune('a' + (i % 26)))
				if _, err := s.Put(entry(name, uint64(w*1000+i), w)); err != nil {
					t.Error(err)
					return
				}
				s.Get(guid.New(name))
				s.Len()
			}
		}(w)
	}
	wg.Wait()
	if s.Len() != 26 {
		t.Errorf("Len = %d, want 26", s.Len())
	}
}

func TestInstrumentedCounters(t *testing.T) {
	reg := metrics.NewRegistry()
	s := New()
	s.Instrument(reg, "store")

	if _, err := s.Put(entry("a", 2, 1)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Put(entry("a", 1, 1)); err != nil { // stale
		t.Fatal(err)
	}
	s.Get(entry("a", 1, 1).GUID) // hit
	s.Get(entry("b", 1, 1).GUID) // miss
	s.Delete(entry("a", 1, 1).GUID)

	snap := reg.Snapshot()
	for name, want := range map[string]int64{
		"store.puts":       2,
		"store.stale_puts": 1,
		"store.gets":       2,
		"store.hits":       1,
		"store.deletes":    1,
	} {
		if got := snap.Counters[name]; got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
	if got := snap.Gauges["store.size"]; got != 0 {
		t.Errorf("store.size = %g after delete, want 0", got)
	}
	if _, err := s.Put(entry("c", 1, 1)); err != nil {
		t.Fatal(err)
	}
	if got := reg.Snapshot().Gauges["store.size"]; got != 1 {
		t.Errorf("store.size = %g, want 1", got)
	}
}
