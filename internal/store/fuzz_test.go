package store

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"os"
	"testing"
)

// walTail returns the record bytes (header stripped) of a freshly
// written single-shard log containing a few real puts and a delete.
func walTail(f *testing.F) []byte {
	f.Helper()
	dir := f.TempDir()
	s, err := Open(Options{Dir: dir, Shards: 1, SnapshotBytes: -1})
	if err != nil {
		f.Fatal(err)
	}
	e := entry("seed", 1, 3, 4)
	if _, err := s.Put(e); err != nil {
		f.Fatal(err)
	}
	e.Version = 2
	if _, err := s.Put(e); err != nil {
		f.Fatal(err)
	}
	s.Delete(e.GUID)
	s.Close()
	b, err := os.ReadFile(walPath(dir, 0))
	if err != nil {
		f.Fatal(err)
	}
	return b[walHeaderLen:]
}

// FuzzDecodeWALRecord hardens recovery against arbitrary log contents:
// replay must never panic, must report a valid prefix length within the
// input, every entry it admits must pass Validate, and the overflow map
// must hold a tail for exactly the multi-homed GUIDs it admits. Real
// record streams replay losslessly.
func FuzzDecodeWALRecord(f *testing.F) {
	tail := walTail(f)
	f.Add(tail)
	f.Add(tail[:len(tail)-3]) // torn final record
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xFF}, 64))
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := NewSharded(8) // records bucket by shard
		if err != nil {
			t.Fatal(err)
		}
		for i := range s.shards {
			s.shards[i].log = &shardLog{index: i}
		}
		valid := s.replayLog(data)
		if valid < 0 || valid > len(data) {
			t.Fatalf("valid prefix %d out of range [0, %d]", valid, len(data))
		}
		bad := false
		s.Range(func(e Entry) bool {
			if e.Validate() != nil {
				bad = true
			}
			return !bad
		})
		if bad {
			t.Fatal("replay admitted an invalid entry")
		}
		checkOverflow(t, s, "replay")
	})
}

// FuzzLoadSnapshot hardens the snapshot decoder: it must never panic on
// arbitrary bytes, and anything it accepts is fully validated.
func FuzzLoadSnapshot(f *testing.F) {
	img := writeFileHeader(nil, snapMagic, 0, 1)
	img = binary.BigEndian.AppendUint64(img, 7) // seq
	img = binary.BigEndian.AppendUint64(img, 1) // count
	seed := entry("seed", 7, 1)
	r := pack(&seed)
	img = appendEntry(img, seed.GUID, &r)
	img = binary.BigEndian.AppendUint32(img, crc32.Checksum(img, castagnoli))
	f.Add(img)
	f.Add(img[:len(img)-5])
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xA5}, 80))
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := NewSharded(1)
		if err != nil {
			t.Fatal(err)
		}
		_, n, err := decodeSnapshot(&s.shards[0], data, 0, 1, "fuzz")
		if err != nil {
			return
		}
		if n < s.Len() {
			t.Fatalf("snapshot of %d entries loaded %d", n, s.Len())
		}
		s.Range(func(e Entry) bool {
			if err := e.Validate(); err != nil {
				t.Fatalf("snapshot decoder admitted invalid entry: %v", err)
			}
			return true
		})
	})
}

// The seed WAL must replay exactly: no record lost, no record invented.
func TestFuzzSeedRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Options{Dir: dir, Shards: 1, SnapshotBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if _, err := s.Put(entry("g", uint64(i+1), i%3+1)); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()
	r, err := Open(Options{Dir: dir, Shards: 1, SnapshotBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if r.Recovery().ReplayedRecords != 10 || r.Len() != 1 {
		t.Fatalf("Recovery = %+v, Len = %d", r.Recovery(), r.Len())
	}
	if e, _ := r.Get(entry("g", 1, 1).GUID); e.Version != 10 {
		t.Fatalf("Version = %d, want 10", e.Version)
	}
}
