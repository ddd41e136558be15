//go:build linux

package store

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"syscall"
	"testing"
)

// fsizeSlack is how far past the log's end the file-size limit sits: a
// commit of spanning(16, ·) — 16 records of 66 bytes — crosses it.
const fsizeSlack = 300

// A commit that crosses RLIMIT_FSIZE is written in part and then refused
// with EFBIG: it fails every entry and applies none, the segment is cut
// back to its last whole record, and a reopen replays exactly the
// acknowledged records. The limit is set in a re-executed copy of the
// test binary, so nothing else in this process meets it; Go ignores the
// SIGXFSZ the kernel sends with the EFBIG.
func TestCommitPastFileSizeLimit(t *testing.T) {
	if dir := os.Getenv("DMAP_FSIZE_DIR"); dir != "" {
		commitPastFileSizeLimit(t, dir)
		return
	}
	dir := t.TempDir()
	cmd := exec.Command(os.Args[0], "-test.run=^TestCommitPastFileSizeLimit$", "-test.count=1", "-test.v")
	cmd.Env = append(os.Environ(), "DMAP_FSIZE_DIR="+dir)
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("the limited child failed: %v\n%s", err, out)
	}

	s := openTemp(t, Options{Dir: dir, Shards: 8, SnapshotBytes: -1})
	acked := spanning(16, 1)
	if rec := s.Recovery(); rec.ReplayedRecords != len(acked) || rec.TornBytes != 0 {
		t.Errorf("reopen replayed %d records and found %d torn bytes; want %d and 0", rec.ReplayedRecords, rec.TornBytes, len(acked))
	}
	want := New()
	if applied := want.PutRun(acked, make([]error, len(acked))); applied != len(acked) {
		t.Fatalf("the model applied %d of %d", applied, len(acked))
	}
	if !bytes.Equal(s.AppendDump(nil), want.AppendDump(nil)) {
		t.Error("the reopened store does not hold exactly the acknowledged records")
	}
}

// commitPastFileSizeLimit is the limited child: it acks one run, limits
// the file size to just past the log's end, and commits a second run
// that crosses the limit.
func commitPastFileSizeLimit(t *testing.T, dir string) {
	s, err := Open(Options{Dir: dir, Shards: 8, SnapshotBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	acked := spanning(16, 1)
	if applied := s.PutRun(acked, make([]error, len(acked))); applied != len(acked) {
		t.Fatalf("PutRun applied %d of %d below the limit", applied, len(acked))
	}
	seg := &s.wal.seg[s.wal.cur]
	was := seg.size.Load()
	lim := uint64(was + fsizeSlack)
	if err := syscall.Setrlimit(syscall.RLIMIT_FSIZE, &syscall.Rlimit{Cur: lim, Max: lim}); err != nil {
		t.Fatal(err)
	}

	run := spanning(16, 2)
	errs := make([]error, len(run))
	if applied := s.PutRun(run, errs); applied != 0 {
		t.Fatalf("a commit past the file-size limit applied %d entries", applied)
	}
	for j, err := range errs {
		var pe *os.PathError
		if !errors.Is(err, syscall.EFBIG) || !errors.As(err, &pe) {
			t.Errorf("entry %d failed with %v, want an *os.PathError around EFBIG", j, err)
		}
	}
	if w := s.wal.failed; w != nil {
		t.Errorf("the log was cut back but refuses further writes: %v", w)
	}
	if got := seg.size.Load(); got != was {
		t.Errorf("the segment's size reads %d after the failed commit, want %d", got, was)
	}
	fi, err := os.Stat(seg.path)
	if err != nil {
		t.Fatal(err)
	}
	if fi.Size() != was {
		t.Errorf("%s holds %d bytes after the failed commit, want its last whole record's end %d", seg.path, fi.Size(), was)
	}
}
