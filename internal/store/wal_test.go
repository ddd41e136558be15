package store

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"dmap/internal/guid"
	"dmap/internal/metrics"
)

func openTemp(t *testing.T, opts Options) *Store {
	t.Helper()
	if opts.Dir == "" {
		opts.Dir = t.TempDir()
	}
	s, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func mustPut(t *testing.T, s *Store, e Entry) {
	t.Helper()
	applied, err := s.Put(e)
	if err != nil || !applied {
		t.Fatalf("Put(%s v%d) = (%v, %v)", e.GUID.Short(), e.Version, applied, err)
	}
}

func TestOpenEmptyDir(t *testing.T) {
	s := openTemp(t, Options{})
	if s.Len() != 0 {
		t.Fatalf("Len = %d", s.Len())
	}
	if rec := s.Recovery(); rec.SnapshotEntries != 0 || rec.ReplayedRecords != 0 || rec.TornBytes != 0 {
		t.Fatalf("Recovery = %+v", rec)
	}
}

func TestReopenRecoversWAL(t *testing.T) {
	dir := t.TempDir()
	s := openTemp(t, Options{Dir: dir, SnapshotBytes: -1})
	var want []Entry
	for i := 0; i < 100; i++ {
		e := entry(fmt.Sprintf("g%d", i), uint64(i+1), i%5, (i+1)%7)
		mustPut(t, s, e)
		want = append(want, e)
	}
	// Overwrites and deletes must replay correctly too.
	up := want[10]
	up.Version = 1000
	up.Meta = 42
	mustPut(t, s, up)
	want[10] = up
	if !s.Delete(want[20].GUID) {
		t.Fatal("Delete missed")
	}
	want = append(want[:20], want[21:]...)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	r := openTemp(t, Options{Dir: dir, SnapshotBytes: -1})
	if r.Len() != len(want) {
		t.Fatalf("recovered Len = %d, want %d", r.Len(), len(want))
	}
	for _, e := range want {
		got, ok := r.Get(e.GUID)
		if !ok {
			t.Fatalf("entry %s lost", e.GUID.Short())
		}
		if got.Version != e.Version || got.Meta != e.Meta || len(got.NAs) != len(e.NAs) {
			t.Fatalf("entry %s = %+v, want %+v", e.GUID.Short(), got, e)
		}
	}
	rec := r.Recovery()
	if rec.ReplayedRecords != 102 { // 100 puts + 1 update + 1 delete
		t.Errorf("ReplayedRecords = %d, want 102", rec.ReplayedRecords)
	}
	if rec.TornBytes != 0 {
		t.Errorf("TornBytes = %d", rec.TornBytes)
	}
}

func TestSnapshotTruncatesAndRecovers(t *testing.T) {
	dir := t.TempDir()
	s := openTemp(t, Options{Dir: dir, SnapshotBytes: -1})
	for i := 0; i < 50; i++ {
		mustPut(t, s, entry(fmt.Sprintf("g%d", i), 1, i))
	}
	if err := s.Snapshot(); err != nil {
		t.Fatal(err)
	}
	if got := s.walBytes(); got != walHeaderLen {
		t.Fatalf("log not retired: %d bytes, want the new segment's header", got)
	}
	// Post-snapshot writes land in the truncated log and must survive.
	mustPut(t, s, entry("after", 1, 9))
	s.Close()

	r := openTemp(t, Options{Dir: dir, SnapshotBytes: -1})
	if r.Len() != 51 {
		t.Fatalf("recovered Len = %d, want 51", r.Len())
	}
	rec := r.Recovery()
	if rec.SnapshotEntries != 50 || rec.ReplayedRecords != 1 {
		t.Fatalf("Recovery = %+v, want 50 snapshot entries + 1 replayed", rec)
	}
	if _, ok := r.Get(guid.New("after")); !ok {
		t.Fatal("post-snapshot entry lost")
	}
}

// A crash between snapshot rename and WAL truncation leaves the full
// log behind a snapshot that already contains it. Replaying those
// records must be a no-op (seq skip), including deletes that predate a
// later re-insert captured only by the snapshot.
func TestRecoverySkipsPreSnapshotRecords(t *testing.T) {
	dir := t.TempDir()
	s := openTemp(t, Options{Dir: dir, SnapshotBytes: -1})
	g := entry("phoenix", 1, 3)
	mustPut(t, s, g)
	if !s.Delete(g.GUID) {
		t.Fatal("Delete missed")
	}
	g.Version = 2
	mustPut(t, s, g)

	// Snapshot, then undo the truncation by replaying the old log
	// bytes back into the file — simulating a crash mid-snapshot.
	sh := s.shardFor(g.GUID)
	idx := sh.log.index
	before, err := os.ReadFile(walPath(dir, idx))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Snapshot(); err != nil {
		t.Fatal(err)
	}
	s.Close()
	if err := os.WriteFile(walPath(dir, idx), before, 0o644); err != nil {
		t.Fatal(err)
	}

	r := openTemp(t, Options{Dir: dir, SnapshotBytes: -1})
	got, ok := r.Get(g.GUID)
	if !ok {
		t.Fatal("entry deleted by stale pre-snapshot record")
	}
	if got.Version != 2 {
		t.Fatalf("Version = %d, want 2", got.Version)
	}
	if rec := r.Recovery(); rec.ReplayedRecords != 0 {
		t.Fatalf("ReplayedRecords = %d, want 0 (all records pre-snapshot)", rec.ReplayedRecords)
	}
}

// Torn-write property: truncating the WAL at every byte offset within
// the final record must recover the longest valid prefix — every entry
// but the last write, no error, no invented data.
func TestTornFinalRecordEveryOffset(t *testing.T) {
	base := t.TempDir()
	// Single shard so the record sequence lives in one file.
	build := func(dir string) {
		s, err := Open(Options{Dir: dir, Shards: 1, SnapshotBytes: -1})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 5; i++ {
			mustPut(t, s, entry(fmt.Sprintf("g%d", i), uint64(i+1), i, i+1))
		}
		s.Close()
	}
	ref := filepath.Join(base, "ref")
	build(ref)
	full, err := os.ReadFile(walPath(ref, 0))
	if err != nil {
		t.Fatal(err)
	}
	// Find the start of the final record by walking the frame lengths.
	off := walHeaderLen
	last := off
	for off < len(full) {
		last = off
		n := int(uint32(full[off+4])<<24 | uint32(full[off+5])<<16 | uint32(full[off+6])<<8 | uint32(full[off+7]))
		off += recHeaderLen + n
	}
	if off != len(full) {
		t.Fatalf("reference WAL does not parse cleanly: off %d, size %d", off, len(full))
	}

	for cut := last; cut < len(full); cut++ {
		dir := filepath.Join(base, fmt.Sprintf("cut%d", cut))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(walPath(dir, 0), full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := Open(Options{Dir: dir, Shards: 1, SnapshotBytes: -1})
		if err != nil {
			t.Fatalf("cut %d: Open: %v", cut, err)
		}
		if s.Len() != 4 {
			t.Fatalf("cut %d: Len = %d, want 4 (last record torn)", cut, s.Len())
		}
		for i := 0; i < 4; i++ {
			e, ok := s.Get(guid.New(fmt.Sprintf("g%d", i)))
			if !ok || e.Version != uint64(i+1) {
				t.Fatalf("cut %d: entry g%d = (%+v, %v)", cut, i, e, ok)
			}
		}
		rec := s.Recovery()
		if want := int64(cut - last); rec.TornBytes != want {
			t.Fatalf("cut %d: TornBytes = %d, want %d", cut, rec.TornBytes, want)
		}
		// The torn tail must be gone from disk, and the log must accept
		// and persist new appends after the cut.
		if fi, err := os.Stat(walPath(dir, 0)); err != nil || fi.Size() != int64(last) {
			t.Fatalf("cut %d: file not truncated to %d: %v %v", cut, last, fi.Size(), err)
		}
		mustPut(t, s, entry("fresh", 9, 2))
		s.Close()
		r, err := Open(Options{Dir: dir, Shards: 1, SnapshotBytes: -1})
		if err != nil {
			t.Fatalf("cut %d: reopen: %v", cut, err)
		}
		if r.Len() != 5 {
			t.Fatalf("cut %d: post-tear write lost: Len = %d", cut, r.Len())
		}
		r.Close()
	}
}

// A run's records leave in one write(2), so a crash can tear the write
// anywhere in the group. Cut at every byte offset inside it, recovery
// must keep exactly the records wholly before the cut — the run's prefix,
// applied in order — and discard the rest as TornBytes. None of the run
// was acked or visible before the write returned, so either is a state a
// reader never contradicted.
func TestTornRunEveryOffset(t *testing.T) {
	base := t.TempDir()
	ref := filepath.Join(base, "ref")
	s, err := Open(Options{Dir: ref, Shards: 1, SnapshotBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	reg := metrics.NewRegistry()
	s.Instrument(reg, "store")
	before := entry("before", 1, 1)
	mustPut(t, s, before)
	start := int(s.walBytes())
	run := []Entry{entry("r0", 1, 1), entry("r1", 1, 2, 3), entry("r0", 2, 4), entry("r2", 1, 5), entry("r1", 3, 6)}
	if applied := s.PutRun(run, make([]error, len(run))); applied != len(run) {
		t.Fatalf("PutRun applied %d of %d", applied, len(run))
	}
	if c := reg.Snapshot().Counters; c["store.wal_writes"] != 2 || c["store.wal_records"] != 1+int64(len(run)) {
		t.Fatalf("wal_writes = %d, wal_records = %d; want the Put's write and the run's, %d records", c["store.wal_writes"], c["store.wal_records"], 1+len(run))
	}
	s.Close()
	full, err := os.ReadFile(walPath(ref, 0))
	if err != nil {
		t.Fatal(err)
	}
	ends := []int{start} // ends[k]: where the run's first k records end
	for off := start; off < len(full); {
		off += recHeaderLen + int(uint32(full[off+4])<<24|uint32(full[off+5])<<16|uint32(full[off+6])<<8|uint32(full[off+7]))
		ends = append(ends, off)
	}
	if len(ends) != len(run)+1 || ends[len(run)] != len(full) {
		t.Fatalf("the run's records end at %v in a %d-byte log, want %d records", ends, len(full), len(run))
	}
	for cut := start; cut < len(full); cut++ {
		whole := 0
		for whole < len(run) && ends[whole+1] <= cut {
			whole++
		}
		want := map[guid.GUID]Entry{before.GUID: before}
		for _, e := range run[:whole] {
			want[e.GUID] = e
		}
		dir := filepath.Join(base, fmt.Sprintf("cut%d", cut))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(walPath(dir, 0), full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		r, err := Open(Options{Dir: dir, Shards: 1, SnapshotBytes: -1})
		if err != nil {
			t.Fatalf("cut %d: Open: %v", cut, err)
		}
		if r.Len() != len(want) {
			t.Fatalf("cut %d: Len = %d, want %d (%d whole records of the run)", cut, r.Len(), len(want), whole)
		}
		for g, e := range want {
			if got, ok := r.Get(g); !ok || got.Version != e.Version || len(got.NAs) != len(e.NAs) {
				t.Fatalf("cut %d: %s = (%+v, %v), want %+v", cut, g.Short(), got, ok, e)
			}
		}
		if rec := r.Recovery(); rec.TornBytes != int64(cut-ends[whole]) || rec.ReplayedRecords != 1+whole {
			t.Fatalf("cut %d: Recovery = %+v, want %d torn bytes and %d records", cut, rec, cut-ends[whole], 1+whole)
		}
		r.Close()
	}
}

// A corrupt record in the middle of the log (not just the tail) must
// not be skipped over: recovery keeps the longest valid prefix and
// discards everything after the corruption.
func TestMidLogCorruptionKeepsPrefix(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Options{Dir: dir, Shards: 1, SnapshotBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		mustPut(t, s, entry(fmt.Sprintf("g%d", i), 1, i))
	}
	s.Close()
	path := walPath(dir, 0)
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	mid := walHeaderLen + (len(b)-walHeaderLen)/2
	b[mid] ^= 0xFF
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	r, err := Open(Options{Dir: dir, Shards: 1, SnapshotBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if r.Len() >= 10 {
		t.Fatalf("Len = %d, corruption not detected", r.Len())
	}
	if r.Recovery().TornBytes == 0 {
		t.Fatal("TornBytes = 0, corrupt tail not discarded")
	}
	// Whatever survived must be a prefix: g0..g(Len-1) present, rest gone.
	n := r.Len()
	for i := 0; i < 10; i++ {
		_, ok := r.Get(guid.New(fmt.Sprintf("g%d", i)))
		if ok != (i < n) {
			t.Fatalf("entry g%d present=%v with Len=%d: not a prefix", i, ok, n)
		}
	}
}

func TestCorruptSnapshotRefusesToOpen(t *testing.T) {
	dir := t.TempDir()
	s := openTemp(t, Options{Dir: dir, Shards: 1, SnapshotBytes: -1})
	mustPut(t, s, entry("g", 1, 1))
	if err := s.Snapshot(); err != nil {
		t.Fatal(err)
	}
	s.Close()
	path := snapPath(dir, 0)
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)/2] ^= 0xFF
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(Options{Dir: dir, Shards: 1, SnapshotBytes: -1}); err == nil {
		t.Fatal("Open accepted a corrupt snapshot")
	}
}

func TestShardCountMismatchRejected(t *testing.T) {
	dir := t.TempDir()
	s := openTemp(t, Options{Dir: dir, Shards: 8})
	mustPut(t, s, entry("g", 1, 1))
	s.Close()
	if _, err := Open(Options{Dir: dir, Shards: 4}); err == nil {
		t.Fatal("Open accepted a shard-count change")
	}
	if _, err := Open(Options{Dir: dir, Shards: 16}); err == nil {
		t.Fatal("Open accepted a shard-count change")
	}
}

func TestAutomaticSnapshotByThreshold(t *testing.T) {
	dir := t.TempDir()
	s := openTemp(t, Options{Dir: dir, Shards: 1, SnapshotBytes: 1024})
	for i := 0; i < 200; i++ {
		mustPut(t, s, entry(fmt.Sprintf("g%d", i), 1, i%3))
	}
	// The compactor runs asynchronously; wait for it to retire a segment.
	truncated := false
	for i := 0; i < 5000 && !truncated; i++ {
		truncated = s.walBytes() < 1024+walHeaderLen
		time.Sleep(time.Millisecond)
	}
	if !truncated {
		t.Fatal("compactor never truncated the log")
	}
	s.Close()
	snap, err := os.ReadFile(snapPath(dir, 0))
	if err != nil {
		t.Fatalf("no snapshot written by compactor: %v", err)
	}
	if len(snap) == 0 {
		t.Fatal("empty snapshot")
	}
	r := openTemp(t, Options{Dir: dir, Shards: 1, SnapshotBytes: 1024})
	if r.Len() < 200 {
		t.Fatalf("recovered Len = %d, want >= 200", r.Len())
	}
	if r.Recovery().SnapshotEntries == 0 {
		t.Fatal("recovery used no snapshot entries")
	}
}

func TestClosedStoreRejectsWrites(t *testing.T) {
	dir := t.TempDir()
	s := openTemp(t, Options{Dir: dir})
	mustPut(t, s, entry("g", 1, 1))
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Put(entry("h", 1, 1)); err == nil {
		t.Fatal("Put succeeded on closed store")
	}
	if s.Delete(guid.New("g")) {
		t.Fatal("Delete succeeded on closed store")
	}
	// Reads still work.
	if _, ok := s.Get(guid.New("g")); !ok {
		t.Fatal("Get failed on closed store")
	}
	if err := s.Close(); err != nil {
		t.Fatal("second Close should be a no-op")
	}
}

func TestDurableExtractDoesNotResurrect(t *testing.T) {
	dir := t.TempDir()
	s := openTemp(t, Options{Dir: dir})
	moved := entry("moved", 1, 1)
	kept := entry("kept", 1, 2)
	mustPut(t, s, moved)
	mustPut(t, s, kept)
	out := s.Extract(func(g guid.GUID) bool { return g == moved.GUID })
	if len(out) != 1 || out[0].GUID != moved.GUID {
		t.Fatalf("Extract = %+v", out)
	}
	s.Close()
	r := openTemp(t, Options{Dir: dir})
	if _, ok := r.Get(moved.GUID); ok {
		t.Fatal("extracted entry resurrected after restart")
	}
	if _, ok := r.Get(kept.GUID); !ok {
		t.Fatal("kept entry lost")
	}
}

func TestFsyncModes(t *testing.T) {
	for _, mode := range []FsyncMode{FsyncOS, FsyncAlways, FsyncInterval} {
		t.Run(mode.String(), func(t *testing.T) {
			dir := t.TempDir()
			s := openTemp(t, Options{Dir: dir, Fsync: mode})
			for i := 0; i < 20; i++ {
				mustPut(t, s, entry(fmt.Sprintf("g%d", i), 1, i))
			}
			if err := s.Sync(); err != nil {
				t.Fatal(err)
			}
			s.Close()
			r := openTemp(t, Options{Dir: dir, Fsync: mode})
			if r.Len() != 20 {
				t.Fatalf("Len = %d", r.Len())
			}
		})
	}
}

func TestParseFsyncMode(t *testing.T) {
	for _, mode := range []FsyncMode{FsyncOS, FsyncAlways, FsyncInterval} {
		got, err := ParseFsyncMode(mode.String())
		if err != nil || got != mode {
			t.Errorf("ParseFsyncMode(%q) = (%v, %v)", mode.String(), got, err)
		}
	}
	if _, err := ParseFsyncMode("bogus"); err == nil {
		t.Error("ParseFsyncMode accepted bogus mode")
	}
}

// The dump must be byte-identical at any shard count: cross-shard
// iteration determinism.
func TestDumpDeterministicAcrossShardCounts(t *testing.T) {
	var ref []byte
	for _, shards := range []int{1, 2, 8, 64} {
		s, err := NewSharded(shards)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 300; i++ {
			mustPut(t, s, entry(fmt.Sprintf("g%d", i), uint64(i+1), i%5, (i*3)%11))
		}
		dump := s.AppendDump(nil)
		if ref == nil {
			ref = dump
			continue
		}
		if !bytes.Equal(ref, dump) {
			t.Fatalf("dump at %d shards differs from 1-shard dump", shards)
		}
	}
}

// Snapshot files themselves are deterministic for a given shard layout:
// entries are sorted before encoding.
func TestSnapshotDeterministic(t *testing.T) {
	var ref []byte
	for round := 0; round < 2; round++ {
		dir := t.TempDir()
		s := openTemp(t, Options{Dir: dir, Shards: 1, SnapshotBytes: -1})
		// Insert in a different order each round.
		for i := 0; i < 100; i++ {
			j := i
			if round == 1 {
				j = 99 - i
			}
			mustPut(t, s, entry(fmt.Sprintf("g%d", j), uint64(j+1), j%4))
		}
		if err := s.Snapshot(); err != nil {
			t.Fatal(err)
		}
		s.Close()
		img, err := os.ReadFile(snapPath(dir, 0))
		if err != nil {
			t.Fatal(err)
		}
		if ref == nil {
			ref = img
		} else if !bytes.Equal(ref, img) {
			t.Fatal("snapshot image depends on insertion order")
		}
	}
}

func TestNewShardedValidation(t *testing.T) {
	for _, n := range []int{0, -1, 3, 6, MaxShards * 2} {
		if _, err := NewSharded(n); err == nil {
			t.Errorf("NewSharded(%d) accepted", n)
		}
	}
	for _, n := range []int{1, 2, 64, MaxShards} {
		if _, err := NewSharded(n); err != nil {
			t.Errorf("NewSharded(%d) = %v", n, err)
		}
	}
}

func TestViewInto(t *testing.T) {
	s := New()
	e := entry("g", 7, 1, 2, 3)
	e.Meta = 99
	mustPut(t, s, e)
	var out Entry
	out.NAs = make([]NA, 0, MaxNAs)
	if !s.ViewInto(e.GUID, &out) {
		t.Fatal("ViewInto missed")
	}
	if out.GUID != e.GUID || out.Version != 7 || out.Meta != 99 || len(out.NAs) != 3 {
		t.Fatalf("ViewInto = %+v", out)
	}
	if s.ViewInto(guid.New("other"), &out) {
		t.Fatal("ViewInto hit a missing GUID")
	}
	// Mutating the copy must not alias store state.
	out.NAs[0].AS = 999
	got, _ := s.Get(e.GUID)
	if got.NAs[0].AS == 999 {
		t.Fatal("ViewInto aliased store memory")
	}
	// With capacity pre-grown, ViewInto allocates nothing.
	allocs := testing.AllocsPerRun(100, func() {
		if !s.ViewInto(e.GUID, &out) {
			t.Fatal("miss")
		}
	})
	if allocs != 0 {
		t.Fatalf("ViewInto allocs/op = %v, want 0", allocs)
	}
}

// The durability plane's metrics: snapshots completed per shard, the
// bytes the logs hold, and what Open found — which start-up printed once
// and then lost.
func TestDurabilityMetrics(t *testing.T) {
	dir := t.TempDir()
	s := openTemp(t, Options{Dir: dir, Shards: 2, SnapshotBytes: -1})
	reg := metrics.NewRegistry()
	s.Instrument(reg, "store")
	for i := 0; i < 20; i++ {
		mustPut(t, s, entry(fmt.Sprintf("g%d", i), 1, i))
	}
	files := func() (n int64) {
		for i := 0; i < 2; i++ {
			fi, err := os.Stat(walPath(dir, i))
			if err != nil {
				t.Fatal(err)
			}
			n += fi.Size()
		}
		return n
	}
	if got := reg.Snapshot().Gauges["store.wal_bytes"]; got != float64(files()) || got <= 2*walHeaderLen {
		t.Errorf("store.wal_bytes = %g, the logs hold %d bytes", got, files())
	}
	if err := s.Snapshot(); err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	if got := snap.Counters["store.snapshots"]; got != 2 {
		t.Errorf("store.snapshots = %d after one Snapshot of two shards, want 2", got)
	}
	if got := snap.Gauges["store.wal_bytes"]; got != walHeaderLen || float64(files()) != got {
		t.Errorf("store.wal_bytes = %g after a compaction, the logs hold %d bytes; want the new segment's header", got, files())
	}
	mustPut(t, s, entry("tail", 1, 1))
	s.Close()
	f, err := os.OpenFile(walPath(dir, 1), os.O_WRONLY|os.O_APPEND, 0) // the segment the compaction switched to
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte{1, 2, 3}) // a torn record header
	f.Close()

	r := openTemp(t, Options{Dir: dir, Shards: 2, SnapshotBytes: -1})
	reg = metrics.NewRegistry()
	r.Instrument(reg, "store")
	snap = reg.Snapshot()
	if got := snap.Gauges["store.recovered_entries"]; got != 21 {
		t.Errorf("store.recovered_entries = %g, want 20 snapshot entries + 1 replayed record", got)
	}
	if got := snap.Gauges["store.recovery_torn_bytes"]; got != 3 {
		t.Errorf("store.recovery_torn_bytes = %g, want 3", got)
	}
	// A memory-only store registers the same names, all zero.
	reg = metrics.NewRegistry()
	New().Instrument(reg, "store")
	for _, name := range []string{"store.wal_bytes", "store.recovered_entries", "store.recovery_torn_bytes"} {
		if got, ok := reg.Snapshot().Gauges[name]; !ok || got != 0 {
			t.Errorf("memory-only %s = %g, %v; want 0, registered", name, got, ok)
		}
	}
}
