package store

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"

	"dmap/internal/guid"
	"dmap/internal/metrics"
)

// Warm is a hint: what it must get right is its count, its locking and
// that it changes nothing. The model test (op 1) covers the count and the
// no-effect half at 1, 8 and 64 shards; here are the widest store, the
// writers beside it, the lock discipline, and the mechanism's benchmark.

// 512 GUIDs — two of Warm's 256-position chunks — on a store of 65,536
// shards, where shard<<8|position needs all of its 24 bits: a third of
// the positions held, a third never stored, a third duplicates of a held
// one, the first and last shard among them.
func TestWarmAtMaxShards(t *testing.T) {
	s, err := NewSharded(MaxShards)
	if err != nil {
		t.Fatal(err)
	}
	gs := make([]guid.GUID, 512)
	want := 0
	for i := range gs {
		e := entry(fmt.Sprintf("warm-%d", i), 1, ases(i)...)
		switch {
		case i == 0:
			e.GUID[0], e.GUID[1] = 0xff, 0xff
		case i == 3:
			e.GUID[0], e.GUID[1] = 0, 0
		}
		switch gs[i] = e.GUID; i % 3 {
		case 0:
			mustPut(t, s, e)
			want++
		case 2:
			gs[i] = gs[i-2]
			want++
		}
	}
	if got := s.Warm(gs); got != want {
		t.Fatalf("Warm = %d, want the %d held positions of %d", got, want, len(gs))
	}
	if got := s.Warm(gs[:1]); got != 1 {
		t.Fatalf("Warm of one held GUID = %d", got)
	}
	if got := s.Warm(nil); got != 0 {
		t.Fatalf("Warm of nothing = %d", got)
	}
}

// The sibling of TestReadersNeverSeeTwoVersions: Warm over the alphabet
// while one writer flips a member between one NA and five and another
// extracts a member, snapshots every shard and puts it back (run under
// -race). Every count is the alphabet with or without the extracted key.
func TestWarmBesideWriters(t *testing.T) {
	s := openTemp(t, Options{SnapshotBytes: -1})
	for key := range alphabet {
		mustPut(t, s, modelEntry(key, 1, 1))
	}
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for v := uint64(2); v < 20000; v++ {
			if applied, err := s.Put(modelEntry(0, v, 1+4*int(v%2))); err != nil || !applied {
				t.Errorf("flip to version %d = %v, %v", v, applied, err)
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for v := uint64(2); v < 12; v++ {
			out := s.Extract(func(g guid.GUID) bool { return g == alphabet[7] })
			err := s.Snapshot()
			if applied, perr := s.Put(modelEntry(7, v, 2)); len(out) != 1 || err != nil || perr != nil || !applied {
				t.Errorf("cycle %d: extracted %d, snapshot %v, put back %v, %v", v, len(out), err, applied, perr)
				return
			}
		}
	}()
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	for {
		select {
		case <-done:
			return
		default:
		}
		if held := s.Warm(alphabet[:]); held != len(alphabet) && held != len(alphabet)-1 {
			t.Fatalf("Warm = %d of %d keys, of which one at most is ever out", held, len(alphabet))
		}
	}
}

// Warm never holds two shard locks. With shard A write-locked by this
// goroutine, Warm over GUIDs of shard B alone returns; Warm over A ∪ B
// does not until A is released, and all the while a third goroutine can
// take B's write lock — which it never could again had Warm kept B's read
// lock while it waits on A. Both orders: A visited first, and B.
func TestWarmHoldsOneShardLock(t *testing.T) {
	const wait = 10 * time.Second
	for _, c := range []struct {
		name string
		a, b int
	}{{"A before B", 0, 1}, {"B before A", 1, 0}} {
		s := New() // 8 shards: the top three bits of a GUID
		var as, bs []guid.GUID
		for i := 0; i < 4; i++ {
			ea, eb := entry(fmt.Sprintf("a-%d", i), 1, 1), entry(fmt.Sprintf("b-%d", i), 1, 1)
			ea.GUID[0], eb.GUID[0] = byte(c.a)<<5|ea.GUID[0]&0x1f, byte(c.b)<<5|eb.GUID[0]&0x1f
			mustPut(t, s, ea)
			mustPut(t, s, eb)
			as, bs = append(as, ea.GUID), append(bs, eb.GUID)
		}
		warm := func(gs []guid.GUID) <-chan int {
			held := make(chan int, 1)
			go func() { held <- s.Warm(gs) }()
			return held
		}
		shA, shB := &s.shards[c.a], &s.shards[c.b]
		shA.mu.Lock()
		select {
		case got := <-warm(bs):
			if got != len(bs) {
				t.Errorf("%s: Warm over B = %d, want %d", c.name, got, len(bs))
			}
		case <-time.After(wait):
			t.Fatalf("%s: Warm over B's GUIDs waits on A", c.name)
		}
		both := warm([]guid.GUID{bs[0], as[0], bs[1], as[1], as[2], bs[2], bs[3], as[3]})
		tookB := make(chan struct{})
		go func() {
			for i := 0; i < 1000; i++ {
				shB.mu.Lock()
				shB.mu.Unlock() // that it can be had at all is the point
				runtime.Gosched()
			}
			close(tookB)
		}()
		select {
		case <-tookB:
		case <-time.After(wait):
			t.Fatalf("%s: B's write lock is not to be had while Warm waits on A: Warm holds both", c.name)
		}
		select {
		case got := <-both:
			t.Fatalf("%s: Warm over A ∪ B returned %d with A's write lock held", c.name, got)
		default:
		}
		shA.mu.Unlock()
		select {
		case got := <-both:
			if got != len(as)+len(bs) {
				t.Errorf("%s: Warm over A ∪ B = %d, want %d", c.name, got, len(as)+len(bs))
			}
		case <-time.After(wait):
			t.Fatalf("%s: Warm over A ∪ B did not return once A was released", c.name)
		}
	}
}

var warmSink int

// BenchmarkWarmedFrame is the mechanism at unit scale: 21-GUID frames —
// what a 64-GUID client batch leaves each of three nodes — read from
// three 200k-entry stores visited round-robin, so that the tables exceed
// L2 and a frame's lines are cold when it arrives; the per-GUID Read loop
// alone against Warm and then the loop, in ns per GUID.
func BenchmarkWarmedFrame(b *testing.B) {
	const (
		perStore = 200_000
		frame    = 21
		frames   = 1 << 12
	)
	rng := rand.New(rand.NewSource(1))
	var stores [3]*Store
	var reqs [len(stores)][]guid.GUID // frames × frame GUIDs the store holds
	for i := range stores {
		stores[i] = New()
		stores[i].Instrument(metrics.NewRegistry(), "store") // as a node's is
		keys := make([]guid.GUID, perStore)
		for k := range keys {
			e := entry(fmt.Sprintf("frame-%d-%d", i, k), 1, 1)
			keys[k] = e.GUID
			if _, err := stores[i].Put(e); err != nil {
				b.Fatal(err)
			}
		}
		for k := 0; k < frames*frame; k++ {
			reqs[i] = append(reqs[i], keys[rng.Intn(perStore)])
		}
	}
	for _, c := range []struct {
		name string
		warm bool
	}{{"read", false}, {"warm+read", true}} {
		b.Run(c.name, func(b *testing.B) {
			var nas [MaxNAs]NA
			for i := 0; i < b.N; i++ {
				s, at := stores[i%len(stores)], i/len(stores)%frames*frame
				gs := reqs[i%len(stores)][at : at+frame]
				if c.warm {
					warmSink += s.Warm(gs)
				}
				for _, g := range gs {
					if _, ok := s.Read(g, &nas); ok {
						warmSink++
					}
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*frame), "ns/guid")
		})
	}
}
