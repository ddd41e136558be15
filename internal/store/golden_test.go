package store

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// testdata/golden was written by the store as it stood before the packed
// table (commit 56d388a): data/ is a two-shard directory — a snapshot, a
// WAL tail of puts, deletes, a five-NA entry, a 3 → 1 NA rewrite and a
// final record torn three bytes short — and want/ is what that commit's
// Open made of a copy of it: its RecoveryStats, its AppendDump, and the
// snapshot files it wrote next. Nothing a later table layout does may
// read those files differently or write different ones.
const goldenDir = "testdata/golden"

// TestWriteGolden is the generator, kept so that the directory can be
// explained and, from a checkout of that commit, reproduced:
// DMAP_WRITE_GOLDEN=1 go test -run TestWriteGolden ./internal/store
func TestWriteGolden(t *testing.T) {
	if os.Getenv("DMAP_WRITE_GOLDEN") == "" {
		t.Skip("set DMAP_WRITE_GOLDEN=1 to rewrite testdata/golden with this checkout's store")
	}
	data, want := filepath.Join(goldenDir, "data"), filepath.Join(goldenDir, "want")
	for _, d := range []string{data, want} {
		if err := os.RemoveAll(d); err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(d, 0o755); err != nil {
			t.Fatal(err)
		}
	}
	s, err := Open(Options{Dir: data, Shards: 2, SnapshotBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		mustPut(t, s, entry(fmt.Sprintf("g%d", i), uint64(i+1), ases(i)...))
	}
	if err := s.Snapshot(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i += 3 { // the tail: rewrites that walk the NA count, deletes, new keys
		mustPut(t, s, entry(fmt.Sprintf("g%d", i), uint64(i+100), ases(i+2)...))
	}
	for i := 1; i < 40; i += 7 {
		s.Delete(entry(fmt.Sprintf("g%d", i), 0).GUID)
	}
	mustPut(t, s, entry("five", 9, 1, 2, 3, 4, 1<<32-1))
	mustPut(t, s, entry("shrinks", 1, 7, 8, 9))
	mustPut(t, s, entry("shrinks", 2, 7))
	if applied, _ := s.Put(entry("g0", 1, 5)); applied { // stale: logs nothing
		t.Fatal("stale put applied")
	}
	victim := entry("torn", 1, 6, 6)
	mustPut(t, s, victim)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	wal := legacyWALPath(data, int(victim.GUID[0]>>7))
	fi, err := os.Stat(wal)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(wal, fi.Size()-3); err != nil {
		t.Fatal(err)
	}

	r := openGoldenCopy(t)
	rec := r.Recovery()
	stats := fmt.Sprintf("%d %d %d\n", rec.SnapshotEntries, rec.ReplayedRecords, rec.TornBytes)
	if err := os.WriteFile(filepath.Join(want, "recovery.txt"), []byte(stats), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(want, "dump.bin"), r.AppendDump(nil), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := r.Snapshot(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		copyFile(t, snapPath(r.wal.dir, i), snapPath(want, i))
	}
}

// ases walks the NA count 1 → 2 → … → 5 → 1 with i.
func ases(i int) []int {
	out := make([]int, i%MaxNAs+1)
	for j := range out {
		out[j] = i*10 + j
	}
	return out
}

func copyFile(t *testing.T, from, to string) {
	t.Helper()
	b, err := os.ReadFile(from)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(to, b, 0o644); err != nil {
		t.Fatal(err)
	}
}

// openGoldenCopy opens a scratch copy of testdata/golden/data: Open cuts
// the torn tail off the log it recovers.
func openGoldenCopy(t *testing.T) *Store {
	t.Helper()
	dir := t.TempDir()
	names, err := filepath.Glob(filepath.Join(goldenDir, "data", "shard-*"))
	if err != nil || len(names) != 4 {
		t.Fatalf("golden data files = %v, %v; want two logs and two snapshots", names, err)
	}
	for _, name := range names {
		copyFile(t, name, filepath.Join(dir, filepath.Base(name)))
	}
	return openTemp(t, Options{Dir: dir, Shards: 2, SnapshotBytes: -1})
}

func TestGoldenDirectoryFromBeforeThePackedTable(t *testing.T) {
	if os.Getenv("DMAP_WRITE_GOLDEN") != "" {
		t.Skip("the directory is being rewritten")
	}
	s := openGoldenCopy(t)
	want := func(name string) []byte {
		b, err := os.ReadFile(filepath.Join(goldenDir, "want", name))
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	rec := s.Recovery()
	if got := fmt.Sprintf("%d %d %d\n", rec.SnapshotEntries, rec.ReplayedRecords, rec.TornBytes); got != string(want("recovery.txt")) {
		t.Errorf("RecoveryStats (snapshot entries, replayed records, torn bytes) = %q, recorded %q", got, want("recovery.txt"))
	}
	if rec.TornBytes == 0 || rec.SnapshotEntries == 0 || rec.ReplayedRecords == 0 {
		t.Errorf("RecoveryStats = %+v: the directory should exercise snapshot, tail and tear", rec)
	}
	if !bytes.Equal(s.AppendDump(nil), want("dump.bin")) {
		t.Error("AppendDump of the recovered directory differs from the recorded one")
	}
	if _, ok := s.Get(entry("torn", 1, 6, 6).GUID); ok {
		t.Error("the entry of the torn final record was recovered")
	}
	if e, ok := s.Get(entry("five", 0).GUID); !ok || len(e.NAs) != MaxNAs || e.NAs[4].AS != 1<<32-1 {
		t.Errorf("five-NA entry = %+v, %v", e, ok)
	}
	if err := s.Snapshot(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		got, err := os.ReadFile(snapPath(s.wal.dir, i))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want(filepath.Base(snapPath("", i)))) {
			t.Errorf("shard %d: snapshot of the recovered table differs from the one that commit wrote", i)
		}
	}
}
