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

// spanning returns n entries of version v, spread round-robin over every
// shard of an 8-shard store (whose shard index is a GUID's top 3 bits).
func spanning(n int, v uint64) []Entry {
	es := make([]Entry, n)
	for i := range es {
		es[i] = entry(fmt.Sprintf("span-%d", i), v, i%3, i%5)
		es[i].GUID[0] = byte(i%8)<<5 | es[i].GUID[0]&0x1f
	}
	return es
}

// A run whose entries span every shard of a durable store is one commit:
// one write(2) for all of them.
func TestOneLogWritePerBurst(t *testing.T) {
	s := openTemp(t, Options{Shards: 8, SnapshotBytes: -1})
	reg := metrics.NewRegistry()
	s.Instrument(reg, "store")
	run := spanning(16, 1)
	if applied := s.PutRun(run, make([]error, len(run))); applied != len(run) {
		t.Fatalf("PutRun applied %d of %d", applied, len(run))
	}
	snap := reg.Snapshot()
	if w, r := snap.Counters["store.wal_writes"], snap.Counters["store.wal_records"]; w != 1 || r != int64(len(run)) {
		t.Fatalf("a run over every shard: store.wal_writes = %d, store.wal_records = %d; want 1 and %d", w, r, len(run))
	}
	if h := snap.Histograms["store.commit_us"]; h.Count != 1 {
		t.Fatalf("store.commit_us holds %d samples after one commit", h.Count)
	}
	seen := map[uint32]bool{}
	for _, e := range run {
		seen[s.shardIndex(e.GUID)] = true
	}
	if len(seen) != s.ShardCount() {
		t.Fatalf("the run touched %d of %d shards", len(seen), s.ShardCount())
	}
}

// A commit the log refuses, spanning several shards, applies nothing to
// any of them and fails every entry.
func TestFailedCommitAppliesNoShard(t *testing.T) {
	s := openTemp(t, Options{Shards: 8, SnapshotBytes: -1})
	before := spanning(16, 1)
	for _, e := range before {
		mustPut(t, s, e)
	}
	dump := s.AppendDump(nil)
	var seqs [8]uint64
	for i := range seqs {
		seqs[i] = s.shards[i].log.seq
	}
	s.wal.seg[s.wal.cur].f.Close() // the next write(2) fails
	run := spanning(16, 2)
	errs := make([]error, len(run))
	if applied := s.PutRun(run, errs); applied != 0 {
		t.Fatalf("a refused commit applied %d entries", applied)
	}
	for j, err := range errs {
		if err == nil {
			t.Errorf("entry %d of the refused commit has no error", j)
		}
	}
	if !bytes.Equal(s.AppendDump(nil), dump) {
		t.Error("a refused commit changed the table")
	}
	for i := range seqs {
		if s.shards[i].log.seq != seqs[i] {
			t.Errorf("shard %d's seq moved %d → %d on a refused commit", i, seqs[i], s.shards[i].log.seq)
		}
	}
}

// The image of a shard is written and fsynced outside the shard's lock: a
// Put to the shard returns, and a read answers, while the compaction is
// parked inside the sync of that very shard's image.
func TestPutReturnsWhileItsShardImageSyncs(t *testing.T) {
	dir := t.TempDir()
	s := openTemp(t, Options{Dir: dir, Shards: 8, SnapshotBytes: -1})
	e := entry("stall", 1, 1)
	mustPut(t, s, e)
	tmp := filepath.Base(snapPath("", int(s.shardIndex(e.GUID)))) + ".tmp"
	parked, release := make(chan struct{}), make(chan struct{})
	s.wal.syncImage = func(f *os.File) error {
		if filepath.Base(f.Name()) == tmp {
			close(parked)
			<-release
		}
		return f.Sync()
	}
	snapshot := make(chan error, 1)
	go func() { snapshot <- s.Snapshot() }()
	<-parked
	put := make(chan error, 1)
	newer := entry("stall", 2, 1)
	go func() {
		applied, err := s.Put(newer)
		if err == nil && !applied {
			err = fmt.Errorf("the newer version was not applied")
		}
		put <- err
	}()
	select {
	case err := <-put:
		if err != nil {
			t.Error(err)
		}
	case <-time.After(10 * time.Second):
		close(release)
		t.Fatal("a Put to the shard waited for its image's sync")
	}
	if got, ok := s.Get(e.GUID); !ok || got.Version != 2 {
		t.Errorf("read during the image's sync = %+v, %v", got, ok)
	}
	close(release)
	if err := <-snapshot; err != nil {
		t.Fatal(err)
	}
	s.Close()
	r := openTemp(t, Options{Dir: dir, Shards: 8, SnapshotBytes: -1})
	if got, ok := r.Get(e.GUID); !ok || got.Version != 2 {
		t.Fatalf("after a reopen: %+v, %v; want the Put made during the sync", got, ok)
	}
}

// copyDir copies every file of from into a new directory.
func copyDir(t *testing.T, from string) string {
	t.Helper()
	to := t.TempDir()
	files, err := os.ReadDir(from)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		copyFile(t, filepath.Join(from, f.Name()), filepath.Join(to, f.Name()))
	}
	return to
}

// A crash inside a compaction — after the rotation, with some shards
// already imaged again and writes landing in the new segment, before the
// old segment is retired — leaves both segments holding records. Every
// such directory recovers every acked put at its version and no deleted
// entry, also with a torn record at the end of the newer segment.
func TestCrashInsideACompactionRecovers(t *testing.T) {
	dir := t.TempDir()
	s := openTemp(t, Options{Dir: dir, Shards: 8, SnapshotBytes: -1})
	model := map[guid.GUID]uint64{} // 0: deleted
	put := func(e Entry) {
		mustPut(t, s, e)
		model[e.GUID] = e.Version
	}
	for _, e := range spanning(32, 1) {
		put(e)
	}
	if err := s.Snapshot(); err != nil { // every shard imaged, appends on log-1
		t.Fatal(err)
	}
	for i, e := range spanning(24, 2) {
		if i%5 == 0 {
			s.Delete(e.GUID)
			model[e.GUID] = 0
			continue
		}
		put(e)
	}
	type capture struct {
		dir   string
		model map[guid.GUID]uint64
	}
	var captures []capture
	next := spanning(32, 3)
	s.wal.syncImage = func(f *os.File) error {
		// A write during the compaction, then the crash: this image is not
		// renamed yet, the ones before it are.
		put(next[len(captures)])
		c := capture{dir: copyDir(t, dir), model: map[guid.GUID]uint64{}}
		for g, v := range model {
			c.model[g] = v
		}
		captures = append(captures, c)
		return f.Sync()
	}
	if err := s.Snapshot(); err != nil { // rotates back to log-0
		t.Fatal(err)
	}
	if len(captures) != 8 {
		t.Fatalf("the compaction imaged %d shards, want all 8", len(captures))
	}
	for k, c := range captures {
		for seg := 0; seg < 2; seg++ {
			if fi, err := os.Stat(walPath(c.dir, seg)); err != nil || fi.Size() <= walHeaderLen {
				t.Fatalf("capture %d: segment %d holds no records: %v", k, seg, err)
			}
		}
		torn := copyDir(t, c.dir)
		active, err := os.ReadFile(walPath(torn, 0))
		if err != nil {
			t.Fatal(err)
		}
		half := active[walHeaderLen : walHeaderLen+putRecordLen(2)/2]
		f, err := os.OpenFile(walPath(torn, 0), os.O_WRONLY|os.O_APPEND, 0)
		if err != nil {
			t.Fatal(err)
		}
		f.Write(half) // an unacked record, cut by the crash
		f.Close()
		for name, d := range map[string]string{"as captured": c.dir, "torn": torn} {
			r, err := Open(Options{Dir: d, Shards: 8, SnapshotBytes: -1})
			if err != nil {
				t.Fatalf("capture %d %s: Open: %v", k, name, err)
			}
			if want := int64(len(half)); name == "torn" && r.Recovery().TornBytes != want {
				t.Errorf("capture %d %s: TornBytes = %d, want %d", k, name, r.Recovery().TornBytes, want)
			}
			for g, v := range c.model {
				got, ok := r.Get(g)
				if v == 0 && ok {
					t.Errorf("capture %d %s: deleted %s recovered at v%d", k, name, g.Short(), got.Version)
				}
				if v > 0 && (!ok || got.Version < v) {
					t.Errorf("capture %d %s: %s = v%d, %v; acked v%d", k, name, g.Short(), got.Version, ok, v)
				}
			}
			r.Close()
		}
	}
}

// The per-shard logs of the older layout are replayed at Open, and the
// first compaction retires them: afterwards the directory holds none, and
// a reopen recovers the same table from the images alone.
func TestLegacyLogsRetiredByFirstCompaction(t *testing.T) {
	s := openGoldenCopy(t)
	dir, dump := s.wal.dir, s.AppendDump(nil)
	if err := s.Snapshot(); err != nil {
		t.Fatal(err)
	}
	if names, _ := filepath.Glob(filepath.Join(dir, "shard-*.wal")); len(names) != 0 {
		t.Fatalf("logs of the older layout left after a compaction: %v", names)
	}
	s.Close()
	r := openTemp(t, Options{Dir: dir, Shards: 2, SnapshotBytes: -1})
	if !bytes.Equal(r.AppendDump(nil), dump) {
		t.Fatal("the table recovered from the images differs from the one recovered from the old logs")
	}
	if rec := r.Recovery(); rec.ReplayedRecords != 0 || rec.SnapshotEntries != r.Len() {
		t.Fatalf("Recovery = %+v, want every entry from the images", rec)
	}
}
