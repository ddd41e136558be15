package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"dmap/internal/guid"
	"dmap/internal/metrics"
	"dmap/internal/netaddr"
)

// The packed table against a reference model: a plain map[guid.GUID]Entry
// kept here, which is what a shard held before records were packed. After
// every operation the store and the model must agree on everything a
// caller can see, and the store's own invariants must hold.

// alphabet is the model test's key space: few enough GUIDs that
// sequences revisit them, spread over the keyspace so that at 8 and 64
// shards they land on different ones.
var alphabet = func() (gs [8]guid.GUID) {
	for i := range gs {
		gs[i] = guid.New(fmt.Sprintf("model-%d", i))
		gs[i][0] = byte(i*37 + 1)
	}
	return gs
}()

// modelEntry is the entry every model operation writes for (key,
// version, NA count): its NAs are a function of those three, so a read
// that mixed two versions shows.
func modelEntry(key int, version uint64, nas int) Entry {
	e := Entry{GUID: alphabet[key], Version: version, Meta: uint32(version) * 7, NAs: make([]NA, nas)}
	for j := range e.NAs {
		e.NAs[j] = NA{AS: int(version)*8 + j, Addr: netaddr.Addr(uint32(key)<<16 | uint32(j))}
	}
	return e
}

// referenceEncoding is the on-disk entry codec written from an Entry,
// as appendEntry was before it took a record: the bytes the packed
// codec must keep producing.
func referenceEncoding(dst []byte, e Entry) []byte {
	dst = append(dst, e.GUID[:]...)
	dst = binary.BigEndian.AppendUint64(dst, e.Version)
	dst = binary.BigEndian.AppendUint32(dst, e.Meta)
	dst = append(dst, byte(len(e.NAs)))
	for _, na := range e.NAs {
		dst = binary.BigEndian.AppendUint32(dst, uint32(na.AS))
		dst = binary.BigEndian.AppendUint32(dst, uint32(na.Addr))
	}
	return dst
}

func referenceDump(model map[guid.GUID]Entry) []byte {
	keys := make([]guid.GUID, 0, len(model))
	for g := range model {
		keys = append(keys, g)
	}
	slices.SortFunc(keys, guid.Compare)
	dump := binary.BigEndian.AppendUint64(nil, uint64(len(keys)))
	for _, g := range keys {
		dump = referenceEncoding(dump, model[g])
	}
	return dump
}

func sameEntry(a, b Entry) bool {
	return a.GUID == b.GUID && a.Version == b.Version && a.Meta == b.Meta && slices.Equal(a.NAs, b.NAs)
}

// checkAgainstModel compares everything visible, then the invariants of
// the representation (checkOverflow).
func checkAgainstModel(t *testing.T, s *Store, model map[guid.GUID]Entry, step string) {
	t.Helper()
	if s.Len() != len(model) {
		t.Fatalf("%s: Len = %d, model holds %d", step, s.Len(), len(model))
	}
	for _, g := range alphabet {
		got, ok := s.Get(g)
		want, held := model[g]
		if ok != held || (ok && !sameEntry(got, want)) {
			t.Fatalf("%s: Get(%s) = %+v, %v; model %+v, %v", step, g.Short(), got, ok, want, held)
		}
	}
	if got, want := s.AppendDump(nil), referenceDump(model); !bytes.Equal(got, want) {
		t.Fatalf("%s: AppendDump differs from the model's:\n got %x\nwant %x", step, got, want)
	}
	checkOverflow(t, s, step)
}

// checkOverflow checks the packed table's invariant: every record holds
// 1..MaxNAs NAs, and each shard's overflow map holds a tail for exactly
// the GUIDs stored with more than one NA, so none leaked.
func checkOverflow(t *testing.T, s *Store, step string) {
	t.Helper()
	for i := range s.shards {
		sh := &s.shards[i]
		multi := 0
		for g, v := range sh.m {
			if v.n < 1 || v.n > MaxNAs {
				t.Fatalf("%s: %s stored with %d NAs", step, g.Short(), v.n)
			}
			if _, ok := sh.more[g]; ok != (v.n > 1) {
				t.Fatalf("%s: %s has %d NAs, overflow entry present = %v", step, g.Short(), v.n, ok)
			}
			if v.n > 1 {
				multi++
			}
		}
		if len(sh.more) != multi {
			t.Fatalf("%s: shard %d's overflow map holds %d tails for %d multi-homed GUIDs: one leaked", step, i, len(sh.more), multi)
		}
	}
}

// counters reads every operation counter of an instrumented store.
func counters(s *Store) [6]int64 {
	ins := s.ins.Load()
	return [...]int64{ins.puts.Value(), ins.stalePuts.Value(), ins.gets.Value(), ins.hits.Value(), ins.deletes.Value(), ins.snapshots.Value()}
}

// modelRun applies ops, two bytes each, to s and to the model:
//
//	op%8: 0 Put of the next version with 1+arg%5 NAs · 1 Warm over the
//	      keys of arg's set bits, the op's own twice and one never stored ·
//	      2 stale Put · 3 Delete · 4 Extract of the keys of arg's parity ·
//	      5 Get and Read · 6 ViewInto · 7 Version, and on a durable store a
//	      compaction (Snapshot)
//	op/8%8: the key
//	op >= 0xc0: instead, a PutRun of 1+arg%6 entries over the key and the
//	      one after it (modelPutRun)
//
// Half-way through, reopen (nil on a memory-only store) replaces s with
// what a restart recovers. The store is instrumented, for the Warm op to
// show that it moves no counter.
func modelRun(t *testing.T, s *Store, reopen func(*Store) *Store, ops []byte) {
	model := make(map[guid.GUID]Entry)
	version := uint64(0)
	s.Instrument(metrics.NewRegistry(), "store")
	for i := 0; i+1 < len(ops); i += 2 {
		if reopen != nil && i == len(ops)/4*2 {
			s = reopen(s)
			s.Instrument(metrics.NewRegistry(), "store")
			checkAgainstModel(t, s, model, "after the reopen")
		}
		op, key, arg := ops[i]%8, int(ops[i]/8%8), ops[i+1]
		g := alphabet[key]
		step := fmt.Sprintf("op %d (%d on key %d, arg %d)", i/2, op, key, arg)
		if ops[i] >= 0xc0 {
			step = fmt.Sprintf("op %d (run on key %d, arg %d)", i/2, key, arg)
			modelPutRun(t, s, model, &version, key, arg, step)
			checkAgainstModel(t, s, model, step)
			continue
		}
		switch op {
		case 0:
			version++
			e := modelEntry(key, version, 1+int(arg)%MaxNAs)
			if applied, err := s.Put(e); err != nil || !applied {
				t.Fatalf("%s: Put = %v, %v", step, applied, err)
			}
			e.NAs[0].AS = -1 // Put must have kept nothing of the caller's slice
			model[g] = modelEntry(key, version, 1+int(arg)%MaxNAs)
		case 1:
			gs := []guid.GUID{g, guid.New("never stored"), g}
			for k := range alphabet {
				if arg>>k&1 == 1 {
					gs = append(gs, alphabet[k])
				}
			}
			want := 0
			for _, g := range gs {
				if _, held := model[g]; held {
					want++
				}
			}
			dump, n, counted := s.AppendDump(nil), s.Len(), counters(s)
			if got := s.Warm(gs); got != want {
				t.Fatalf("%s: Warm = %d, model holds %d of the %d positions", step, got, want, len(gs))
			}
			if !bytes.Equal(s.AppendDump(nil), dump) || s.Len() != n || counters(s) != counted {
				t.Fatalf("%s: Warm changed the store: Len %d → %d, counters %v → %v", step, n, s.Len(), counted, counters(s))
			}
		case 2:
			old, held := model[g]
			if !held {
				continue
			}
			stale := modelEntry(key, old.Version-uint64(arg%2), 1+int(arg)%MaxNAs)
			logged := s.walBytes()
			if applied, err := s.Put(stale); err != nil || applied {
				t.Fatalf("%s: stale Put (v%d over v%d) = %v, %v", step, stale.Version, old.Version, applied, err)
			}
			if s.walBytes() != logged {
				t.Fatalf("%s: a stale Put wrote %d bytes of log", step, s.walBytes()-logged)
			}
		case 3:
			_, held := model[g]
			if s.Delete(g) != held {
				t.Fatalf("%s: Delete = %v, model held it = %v", step, !held, held)
			}
			delete(model, g)
		case 4:
			pred := func(g guid.GUID) bool { return g[0]%2 == arg%2 }
			out := s.Extract(pred)
			for _, e := range out {
				if want, held := model[e.GUID]; !held || !pred(e.GUID) || !sameEntry(e, want) {
					t.Fatalf("%s: Extract returned %+v; model %+v, %v", step, e, want, held)
				}
				delete(model, e.GUID)
			}
			for g := range model {
				if pred(g) {
					t.Fatalf("%s: Extract left %s behind", step, g.Short())
				}
			}
		case 5:
			var buf [MaxNAs]NA
			got, ok := s.Read(g, &buf)
			if want, held := model[g]; ok != held || (ok && !sameEntry(got, want)) {
				t.Fatalf("%s: Read = %+v, %v; model %+v, %v", step, got, ok, want, held)
			}
			buf = [MaxNAs]NA{} // the caller's to scribble on
		case 6:
			got := Entry{NAs: make([]NA, 0, int(arg)%(MaxNAs+1))}
			ok := s.ViewInto(g, &got)
			if want, held := model[g]; ok != held || (ok && !sameEntry(got, want)) {
				t.Fatalf("%s: ViewInto = %+v, %v; model %+v, %v", step, got, ok, want, held)
			}
		case 7:
			v, ok := s.Version(g)
			if want, held := model[g]; ok != held || v != want.Version {
				t.Fatalf("%s: Version = %d, %v; model %d, %v", step, v, ok, want.Version, held)
			}
			if s.wal != nil { // a compaction: it images only the shards written since
				if err := s.Snapshot(); err != nil {
					t.Fatalf("%s: Snapshot: %v", step, err)
				}
			}
		}
		checkAgainstModel(t, s, model, step)
	}
}

// modelPutRun stores a run of 1+arg%6 entries on keys key and key+1 — a
// run of three or more names one twice — by PutRun, and applies
// Put's rule to the model entry by entry, in order: the reference. By
// arg/6+j, entry j is a fresh version with one NA or several, a stale one
// (the version its key holds as of the entries before it, or one below),
// or an invalid one (no NA). The store must report what the reference
// did with each and, with nothing fresh in the run, write no log.
func modelPutRun(t *testing.T, s *Store, model map[guid.GUID]Entry, version *uint64, key int, arg byte, step string) {
	t.Helper()
	es := make([]Entry, 1+int(arg)%6)
	applied, valid := 0, make([]bool, len(es))
	for j := range es {
		k := (key + j%2) % len(alphabet)
		g := alphabet[k]
		switch (int(arg)/6 + j) % 4 {
		case 0, 1:
			*version++
			es[j] = modelEntry(k, *version, 1+(int(arg)/6+j)%2*(j%MaxNAs))
		case 2:
			held, ok := model[g]
			if !ok {
				*version++
				held.Version = *version
			}
			es[j] = modelEntry(k, held.Version-uint64(j%2), 2)
		case 3:
			es[j] = Entry{GUID: g, Version: *version + 1}
		}
		if valid[j] = es[j].Validate() == nil; !valid[j] {
			continue
		}
		if held, ok := model[g]; !ok || es[j].Version > held.Version {
			model[g] = modelEntry(k, es[j].Version, len(es[j].NAs))
			applied++
		}
	}
	logged := s.walBytes()
	errs := make([]error, len(es))
	if got := s.PutRun(es, errs); got != applied {
		t.Fatalf("%s: PutRun applied %d, the reference %d", step, got, applied)
	}
	for j := range es {
		if (errs[j] == nil) != valid[j] {
			t.Fatalf("%s: entry %d (%+v): err %v, valid %t", step, j, es[j], errs[j], valid[j])
		}
		for n := range es[j].NAs {
			es[j].NAs[n].AS = -1 // PutRun must have kept nothing of the caller's slices
		}
	}
	if applied == 0 && s.walBytes() != logged {
		t.Fatalf("%s: a run with nothing fresh wrote %d bytes of log", step, s.walBytes()-logged)
	}
}

// modelWalk is the sequence the packed layout is most likely to get
// wrong, on key 1: NA counts 1 → 3 → 1 → 5 → delete → 2, with reads, a
// stale put, a snapshot and a Warm of every key (held, deleted, never
// written) in between, then an Extract of everything.
var modelWalk = []byte{
	8, 0, 8 + 5, 0, 8, 2, 8 + 6, 1, 8, 0, 8 + 2, 1, 8 + 7, 0, 8, 4, 8 + 5, 0, 16, 2, 8 + 1, 0xff,
	8 + 3, 0, 8 + 3, 0, 8 + 1, 0xff, 8, 1, 8 + 6, 5, 16 + 7, 0, 4, 0, 4, 1, 8 + 1, 6, 8, 3,
}

// FuzzStoreOps runs every input — puts, runs, stale puts, deletes,
// extracts, reads and warms — against memory-only stores of 1, 8 and 64 shards and
// a durable one reopened half-way, whose shard count — a 64-shard
// directory is 64 files to create, sync and read back — the input's
// length picks among the same three.
func FuzzStoreOps(f *testing.F) {
	for pad := 0; pad < 3; pad++ { // the walk on a durable store of each shard count
		f.Add(append(modelWalk[:len(modelWalk):len(modelWalk)], make([]byte, pad)...))
	}
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0, 4, 3, 0}, 8))
	f.Add([]byte{0, 2, 9, 4, 18, 1, 27, 3, 4, 0, 36, 0, 45, 2, 4, 1, 54, 4, 63, 0})
	// Runs of every length and mix, among puts, a delete and snapshots.
	f.Add([]byte{0xc0, 5, 0xc8, 23, 0xd0, 41, 0, 1, 0xc0, 12, 0xd8, 35, 3, 0, 0xc0, 6, 7, 0, 0xe0, 17, 0xf8, 29, 15, 0})
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 256 {
			ops = ops[:256]
		}
		shardCounts := []int{1, 8, 64}
		for _, shards := range shardCounts {
			s, err := NewSharded(shards)
			if err != nil {
				t.Fatal(err)
			}
			modelRun(t, s, nil, ops)
		}
		opts := Options{Dir: t.TempDir(), Shards: shardCounts[len(ops)%3], SnapshotBytes: -1}
		d, err := Open(opts)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { d.Close() })
		modelRun(t, d, func(s *Store) *Store {
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			r, err := Open(opts)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { r.Close() })
			return r
		}, ops)
	})
}

// An empty shard costs its header: neither map exists before the first
// write of its kind, and a store of one-NA mappings never builds an
// overflow map.
func TestEmptyShardAllocatesNoMap(t *testing.T) {
	s := New()
	if _, ok := s.Get(alphabet[0]); ok {
		t.Fatal("Get hit on an empty store")
	}
	s.Delete(alphabet[0])
	s.Extract(func(guid.GUID) bool { return true })
	if held := s.Warm(alphabet[:]); held != 0 {
		t.Fatalf("Warm found %d GUIDs in an empty store", held)
	}
	for i := range s.shards {
		if s.shards[i].m != nil || s.shards[i].more != nil {
			t.Fatalf("shard %d allocated a map without a write", i)
		}
	}
	for key := range alphabet {
		mustPut(t, s, modelEntry(key, 1, 1))
	}
	for i := range s.shards {
		if s.shards[i].more != nil {
			t.Fatalf("shard %d allocated an overflow map for one-NA mappings", i)
		}
	}
}

// Acked ⇒ durable rests on the order inside Put and Delete: the log
// record first, the table only once it is written. A write the log
// refuses must therefore leave the table — both maps and the size
// accounting — exactly as it was.
func TestUnloggedWriteLeavesTableUntouched(t *testing.T) {
	s := openTemp(t, Options{Shards: 1, SnapshotBytes: -1})
	mustPut(t, s, modelEntry(0, 1, 3))
	mustPut(t, s, modelEntry(1, 1, 1))
	model := map[guid.GUID]Entry{alphabet[0]: modelEntry(0, 1, 3), alphabet[1]: modelEntry(1, 1, 1)}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if applied, err := s.Put(modelEntry(0, 2, 1)); err == nil || applied {
		t.Fatalf("3 → 1 NA rewrite on a closed log = %v, %v", applied, err)
	}
	if applied, err := s.Put(modelEntry(1, 2, 5)); err == nil || applied {
		t.Fatalf("1 → 5 NA rewrite on a closed log = %v, %v", applied, err)
	}
	if applied, err := s.Put(modelEntry(2, 1, 2)); err == nil || applied {
		t.Fatalf("insert on a closed log = %v, %v", applied, err)
	}
	if s.Delete(alphabet[0]) {
		t.Fatal("Delete on a closed log reported a removal")
	}
	if out := s.Extract(func(guid.GUID) bool { return true }); len(out) != 0 {
		t.Fatalf("Extract on a closed log removed %d entries", len(out))
	}
	checkAgainstModel(t, s, model, "after the refused writes")
}

// The same order inside a run: a run whose write the log refuses applies
// nothing and fails every valid entry of it — the one stale only against
// an unlogged entry of the run too, which acked would claim a version the
// store does not hold — while an invalid one keeps its own error.
func TestRefusedRunAppliesNothing(t *testing.T) {
	s := openTemp(t, Options{Shards: 1, SnapshotBytes: -1})
	mustPut(t, s, modelEntry(0, 2, 3))
	model := map[guid.GUID]Entry{alphabet[0]: modelEntry(0, 2, 3)}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	run := []Entry{modelEntry(0, 4, 1), modelEntry(0, 3, 2), modelEntry(1, 1, 5), {GUID: alphabet[2], Version: 1}, modelEntry(0, 1, 1)}
	errs := make([]error, len(run))
	if applied := s.PutRun(run, errs); applied != 0 {
		t.Fatalf("a run on a closed log applied %d entries", applied)
	}
	for j, err := range errs {
		if invalid := j == 3; errors.Is(err, ErrClosed) == invalid || err == nil {
			t.Errorf("entry %d: %v", j, err)
		}
	}
	checkAgainstModel(t, s, model, "after the refused run")
}

// One writer flips a GUID between a one-NA and a five-NA version while
// readers read it: every read is wholly one version. The first NA lives
// in one map and the rest in another, so this is what the shard lock
// covering both is for (run under -race).
func TestReadersNeverSeeTwoVersions(t *testing.T) {
	s := New()
	mustPut(t, s, modelEntry(0, 1, 5)) // odd versions carry five NAs, even ones one
	var stop atomic.Bool
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			got := Entry{NAs: make([]NA, 0, MaxNAs)}
			var buf [MaxNAs]NA
			for i := 0; !stop.Load(); i++ {
				if i%2 == r%2 {
					if !s.ViewInto(alphabet[0], &got) {
						t.Error("ViewInto missed")
						return
					}
				} else if e, ok := s.Read(alphabet[0], &buf); ok {
					got = Entry{GUID: e.GUID, Version: e.Version, Meta: e.Meta, NAs: append(got.NAs[:0], e.NAs...)}
				} else {
					t.Error("Read missed")
					return
				}
				if want := modelEntry(0, got.Version, 1+4*int(got.Version%2)); !sameEntry(got, want) {
					t.Errorf("read %+v: not the entry written at version %d", got, got.Version)
					return
				}
			}
		}(r)
	}
	for v := uint64(2); v < 20000; v++ {
		mustPut(t, s, modelEntry(0, v, 1+4*int(v%2)))
	}
	stop.Store(true)
	wg.Wait()
}

// An AS index is 32 bits in every codec and in the table. Validate is
// where one that does not fit is refused — by Put here, and with it by a
// log that would otherwise have recorded a different AS than was served.
func TestASIndexBounds(t *testing.T) {
	const big = math.MaxUint32 + 1
	dir := t.TempDir()
	s := openTemp(t, Options{Dir: dir, Shards: 1, SnapshotBytes: -1})
	for i, c := range []struct {
		as int
		ok bool
	}{{-1, false}, {0, true}, {big - 1, true}, {big, false}, {big + 5, false}} {
		e := Entry{GUID: alphabet[i], NAs: []NA{{AS: 1}, {AS: c.as}}, Version: 1}
		applied, err := s.Put(e)
		if (err == nil) != c.ok || applied != c.ok {
			t.Errorf("Put with AS %d = %v, %v; want accepted = %v", c.as, applied, err, c.ok)
		}
	}
	s.Close()
	r := openTemp(t, Options{Dir: dir, Shards: 1, SnapshotBytes: -1})
	if r.Len() != 2 {
		t.Fatalf("recovered %d entries, want the 2 with an AS index in range", r.Len())
	}
	for i, as := range map[int]int{1: 0, 2: big - 1} {
		if e, ok := r.Get(alphabet[i]); !ok || e.NAs[1].AS != as {
			t.Errorf("recovered %+v, %v; want AS %d", e, ok, as)
		}
	}
}

// The allocation gates of the packed table: a Put of a newer version on
// a loaded store, memory-only or logged, the read the server uses and the
// Warm of a whole frame before it allocate nothing; recovery allocates per shard, not per entry.
func TestPackedTableAllocations(t *testing.T) {
	const n = 20000
	dir := t.TempDir()
	opts := Options{Dir: dir, SnapshotBytes: -1}
	for name, s := range map[string]*Store{"memory": New(), "durable": openTemp(t, opts)} {
		keys := make([]guid.GUID, n)
		for i := range keys {
			e := entry(fmt.Sprintf("alloc-%d", i), 1, ases(i)...)
			keys[i] = e.GUID
			mustPut(t, s, e)
		}
		if name == "durable" { // recovery below reads a snapshot and a log tail
			if err := s.Snapshot(); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < n/2; i++ {
				mustPut(t, s, entry(fmt.Sprintf("alloc-%d", i), 2, ases(i+1)...))
			}
		}
		e := entry("alloc-7", 2, 1, 2, 3, 4, 5)
		nas := e.NAs
		if allocs := testing.AllocsPerRun(200, func() {
			e.Version++
			e.NAs = nas[:1+e.Version%MaxNAs]
			if applied, err := s.Put(e); err != nil || !applied {
				t.Fatalf("Put = %v, %v", applied, err)
			}
		}); allocs != 0 {
			t.Errorf("%s: Put of a newer version = %v allocs/op, want 0", name, allocs)
		}
		var buf [MaxNAs]NA
		i := 0
		if allocs := testing.AllocsPerRun(200, func() {
			if _, ok := s.Read(keys[i%n], &buf); !ok {
				t.Fatal("Read missed")
			}
			i++
		}); allocs != 0 {
			t.Errorf("%s: Read = %v allocs/op, want 0", name, allocs)
		}
		if allocs := testing.AllocsPerRun(200, func() {
			if held := s.Warm(keys[:512]); held != 512 {
				t.Fatalf("Warm = %d of 512 held GUIDs", held)
			}
		}); allocs != 0 {
			t.Errorf("%s: Warm over 512 GUIDs = %v allocs/op, want 0", name, allocs)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	}
	if allocs := testing.AllocsPerRun(3, func() {
		r, err := Open(opts)
		if err != nil || r.Len() != n {
			t.Fatalf("Open = %v, %v", r, err)
		}
		r.Close()
	}); allocs/n > 0.05 {
		t.Errorf("Open = %.0f allocs for %d recovered entries (%.3f each), want ≤ 0.05 each", allocs, n, allocs/n)
	}
}
