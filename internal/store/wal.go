// Durability for the sharded store: one write-ahead log for the whole
// store, periodic per-shard snapshots, and crash recovery that replays
// snapshot+log and tolerates a torn final record.
//
// Layout under Options.Dir:
//
//	log-0.wal, log-1.wal  the store's log, two segments used in turn:
//	                      header ‖ record*, or empty while retired
//	shard-%04x.snap       shard i's latest snapshot, replaced atomically
//	                      (tmp+rename)
//	shard-%04x.wal        a per-shard log of an older layout: read at
//	                      Open, removed by the first compaction
//
// Log header:  "DLOG" ‖ version(1) ‖ shardCount(u32) ‖ generation(u32)
// Shard log:   "DWAL" ‖ version(1) ‖ shardCount(u32) ‖ shardIndex(u32)
// Record:      crc32c(u32, over body) ‖ bodyLen(u32) ‖ body
//
//	body:        seq(u64) ‖ op(1) ‖ payload
//	op opPut:    payload = entry (codec.go)
//	op opDelete: payload = GUID (20 bytes)
//
// Snapshot:    "DSNP" ‖ version(1) ‖ shardCount(u32) ‖ shardIndex(u32) ‖
//
//	seq(u64) ‖ count(u64) ‖ count × entry ‖ crc32c(u32, over
//	all preceding bytes)
//
// A record belongs to the shard of the GUID its payload starts with, and
// seq is that shard's: strictly monotonic, never reset. Recovery loads
// each snapshot, then replays only the records with seq > their shard's
// snapshot seq — so a crash anywhere in a compaction merely replays
// no-ops, and a stale delete the log still holds can never undo a newer
// snapshotted entry.
//
// Writers lock the shards they write, then the log mutex (wal.mu): a run
// of records (Store.PutRun), whatever shards it spans, is framed into
// the log's reusable scratch buffer (zero per-record allocation) and
// leaves by one write(2) on an O_APPEND handle — on Linux a raw one
// (wal_linux.go). A write that fails is truncated away so the log never
// carries a half-record in the middle.
//
// A compaction switches appends to the other segment, writes each
// shard's image — built under the shard's read lock, written, fsynced
// and renamed outside it — and then retires the old segment by
// truncating it to nothing (DESIGN.md §10).
package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"dmap/internal/guid"
)

// FsyncMode selects when the WAL is flushed to stable storage.
type FsyncMode int

const (
	// FsyncOS leaves flushing to the kernel: every acked write has
	// completed its write(2), so it survives a process crash (SIGKILL),
	// but an OS crash or power loss can lose the tail. The default.
	FsyncOS FsyncMode = iota
	// FsyncAlways fsyncs after every log write — a run's records share
	// one: acked writes survive power loss, at a large per-op latency cost.
	FsyncAlways
	// FsyncInterval fsyncs the dirty log every syncInterval (100 ms) from
	// a background goroutine: bounded power-loss window, near-FsyncOS
	// throughput.
	FsyncInterval
)

func (m FsyncMode) String() string {
	switch m {
	case FsyncOS:
		return "os"
	case FsyncAlways:
		return "always"
	case FsyncInterval:
		return "interval"
	}
	return fmt.Sprintf("FsyncMode(%d)", int(m))
}

// ParseFsyncMode parses "os", "always" or "interval".
func ParseFsyncMode(s string) (FsyncMode, error) {
	switch s {
	case "os":
		return FsyncOS, nil
	case "always":
		return FsyncAlways, nil
	case "interval":
		return FsyncInterval, nil
	}
	return 0, fmt.Errorf("store: unknown fsync mode %q (want os, always or interval)", s)
}

// Options configures a durable store opened with Open.
type Options struct {
	// Dir is the data directory; created if missing. Required.
	Dir string
	// Shards is the shard count (power of two). 0 means DefaultShards.
	// Must match the count the directory was written with.
	Shards int
	// Fsync selects the flush-to-stable-storage policy.
	Fsync FsyncMode
	// SnapshotBytes is each shard's share of the log: a background
	// compaction starts once one shard has logged SnapshotBytes of records
	// since the last, so under uniform load the log compacts at
	// SnapshotBytes × Shards. 0 means 4 MiB; negative disables automatic
	// compaction (the log grows until Snapshot is called).
	SnapshotBytes int64
}

// RecoveryStats describes what Open found on disk.
type RecoveryStats struct {
	// SnapshotEntries is the number of entries loaded from snapshots.
	SnapshotEntries int
	// ReplayedRecords is the number of WAL records applied (records at
	// or below their shard's snapshot seq are skipped, not counted).
	ReplayedRecords int
	// TornBytes is the length of the invalid log tail that was
	// discarded (a torn final record from a crash mid-append).
	TornBytes int64
	// Elapsed is the wall time recovery took.
	Elapsed time.Duration
}

// ErrClosed reports a mutation on a closed durable store.
var ErrClosed = errors.New("store: closed")

const (
	logMagic     = "DLOG"
	walMagic     = "DWAL"
	snapMagic    = "DSNP"
	fileVersion  = 1
	walHeaderLen = 4 + 1 + 4 + 4 // every file's header: the log's, a shard log's, a snapshot's
	recHeaderLen = 4 + 4         // crc ‖ bodyLen

	opPut    = 1
	opDelete = 2

	// maxRecordBody bounds one record body: seq ‖ op ‖ largest payload.
	maxRecordBody = 8 + 1 + maxEntryLen

	defaultSnapshotBytes = 4 << 20
	// syncInterval is the FsyncInterval flush period.
	syncInterval = 100 * time.Millisecond
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// shardLog is one shard's share of the log: its index; the seq of its
// last record written (or recovered), guarded by the shard's mutex; the
// seq its last durable image holds, guarded by wal.snapMu; and the bytes
// of its records logged since the last rotation (at Open: all the logs
// hold), guarded by wal.mu.
type shardLog struct {
	index  int
	seq    uint64
	imaged uint64
	logged int64
}

// segment is one of the log's two files.
type segment struct {
	f    *os.File // O_APPEND write handle
	app  appender // f's raw write(2), on Linux (wal_linux.go)
	path string
	gen  uint32 // its header's generation; guarded by wal.mu
	// size is the validated file length, 0 while retired; atomic so the
	// gauge reads it without the log mutex.
	size  atomic.Int64
	dirty atomic.Bool // written since the last fsync (FsyncOS, FsyncInterval)
}

// wal is the store's durable state: the log, its options, and the
// background compactor/syncer machinery.
type wal struct {
	s     *Store
	dir   string
	fsync FsyncMode
	snapB int64 // a shard's share of the log (Options.SnapshotBytes)

	// mu serialises the log's writers. It is taken after the shard locks
	// a writer holds and never before one, so a failed write is cut back
	// before anyone appends behind it.
	mu      sync.Mutex
	seg     [2]segment
	cur     int    // the segment appends go to
	scratch []byte // the records of the commit being framed
	full    bool   // a shard has logged snapB since the last rotation
	// failed is set when a failed write could not be cut back: the log
	// holds a torn record that recovery would stop at, so it takes no more.
	failed error

	// snapMu serialises compactions, so that two images of one shard are
	// never renamed out of order, and guards legacy and shardLog.imaged.
	snapMu sync.Mutex
	legacy []string // shard-%04x.wal files still to remove
	// syncImage fsyncs a snapshot image before its rename: (*os.File).Sync,
	// or a test's seam around it.
	syncImage func(*os.File) error

	notify chan struct{}
	stop   chan struct{}
	joined chan struct{}
	refs   atomic.Int32 // running background goroutines
	closed atomic.Bool
}

func walPath(dir string, seg int) string { return filepath.Join(dir, fmt.Sprintf("log-%d.wal", seg)) }
func legacyWALPath(dir string, i int) string {
	return filepath.Join(dir, fmt.Sprintf("shard-%04x.wal", i))
}
func snapPath(dir string, i int) string { return filepath.Join(dir, fmt.Sprintf("shard-%04x.snap", i)) }

// Open opens (creating if needed) a durable store in opts.Dir,
// recovering any state a previous process left behind: it loads every
// shard's snapshot, replays the logs, discards a torn final record, and
// reopens the log for appending. Recovery details are available via
// Recovery. The caller must Close the store to stop its background
// goroutines and flush the log.
func Open(opts Options) (*Store, error) {
	start := time.Now()
	if opts.Dir == "" {
		return nil, fmt.Errorf("store: Open requires Options.Dir")
	}
	if opts.Shards == 0 {
		opts.Shards = DefaultShards
	}
	if opts.SnapshotBytes == 0 {
		opts.SnapshotBytes = defaultSnapshotBytes
	}
	s, err := NewSharded(opts.Shards)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: create data dir: %w", err)
	}
	if err := checkShardFiles(opts.Dir, opts.Shards); err != nil {
		return nil, err
	}
	w := &wal{
		s:         s,
		dir:       opts.Dir,
		fsync:     opts.Fsync,
		snapB:     opts.SnapshotBytes,
		syncImage: (*os.File).Sync,
		notify:    make(chan struct{}, 1),
		stop:      make(chan struct{}),
		joined:    make(chan struct{}),
	}
	s.wal = w
	if err := w.recover(); err != nil {
		for k := range w.seg {
			if f := w.seg[k].f; f != nil {
				f.Close()
			}
		}
		return nil, err
	}
	s.rec.Elapsed = time.Since(start)

	n := 0
	if w.snapB > 0 {
		n++
		go w.compactor()
	}
	if w.fsync == FsyncInterval {
		n++
		go w.syncer()
	}
	w.refs.Store(int32(n))
	if n == 0 {
		close(w.joined)
	}
	return s, nil
}

// checkShardFiles rejects a directory written with a different shard
// count: every file self-describes its count in its header, but a file
// whose index is out of range would otherwise be silently ignored.
func checkShardFiles(dir string, shards int) error {
	for _, pat := range []string{"shard-*.wal", "shard-*.snap"} {
		names, err := filepath.Glob(filepath.Join(dir, pat))
		if err != nil {
			return err
		}
		for _, name := range names {
			var idx int
			base := filepath.Base(name)
			if _, err := fmt.Sscanf(base, "shard-%04x", &idx); err != nil {
				continue
			}
			if idx >= shards {
				return fmt.Errorf("store: %s exists but store opened with %d shards; reopen with the original shard count", base, shards)
			}
		}
	}
	return nil
}

// Recovery returns what Open found on disk. Zero for a store built
// with New.
func (s *Store) Recovery() RecoveryStats { return s.rec }

// recover loads every shard's snapshot, then replays, oldest first, the
// per-shard logs of the older layout and the log's two segments, and
// leaves the newest segment open for appending. Records are replayed in
// order; the first invalid one ends the replay, and it and everything
// after it — the rest of its file and any newer segment — is discarded
// as torn: what survives is a prefix of what was written.
func (w *wal) recover() error {
	s, shards := w.s, len(w.s.shards)
	for i := range s.shards {
		sh := &s.shards[i]
		seq, n, err := s.loadSnapshot(sh, snapPath(w.dir, i), i, shards)
		if err != nil {
			return err
		}
		s.rec.SnapshotEntries += n
		sh.log = &shardLog{index: i, seq: seq, imaged: seq}
	}
	for i := range s.shards {
		if err := w.replayLegacy(i); err != nil {
			return err
		}
	}

	var logs [2][]byte // each segment's records, its header stripped
	for k := range w.seg {
		seg := &w.seg[k]
		seg.path = walPath(w.dir, k)
		f, err := os.OpenFile(seg.path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return fmt.Errorf("store: open %s: %w", seg.path, err)
		}
		seg.f = f
		if err := seg.bindAppend(); err != nil {
			return fmt.Errorf("store: open %s: %w", seg.path, err)
		}
		b, err := os.ReadFile(seg.path)
		if err != nil {
			return fmt.Errorf("store: read %s: %w", seg.path, err)
		}
		seg.size.Store(int64(len(b)))
		switch {
		case len(b) >= walHeaderLen:
			if err := checkHeader(b, logMagic, shards, seg.path); err != nil {
				return err
			}
			seg.gen = binary.BigEndian.Uint32(b[9:])
			logs[k] = b[walHeaderLen:]
		case len(b) > 0: // a header torn on its way in: the segment was empty
			if err := w.cut(seg, 0); err != nil {
				return err
			}
		}
	}
	older := 0
	if w.seg[1].size.Load() > 0 && (w.seg[0].size.Load() == 0 || w.seg[1].gen < w.seg[0].gen) {
		older = 1
	}
	torn := false
	for _, k := range [2]int{older, 1 - older} {
		seg := &w.seg[k]
		if seg.size.Load() == 0 {
			continue
		}
		if torn {
			if err := w.cut(seg, 0); err != nil {
				return err
			}
			continue
		}
		valid := int64(walHeaderLen + s.replayLog(logs[k]))
		if torn = valid < seg.size.Load(); torn {
			if err := w.cut(seg, valid); err != nil {
				return err
			}
		}
		w.cur = k
	}
	if w.seg[w.cur].size.Load() == 0 {
		return w.seg[w.cur].start(w.seg[1-w.cur].gen+1, shards)
	}
	return nil
}

// cut truncates seg to its first valid bytes, counting the rest as torn.
func (w *wal) cut(seg *segment, valid int64) error {
	w.s.rec.TornBytes += seg.size.Load() - valid
	if err := seg.f.Truncate(valid); err != nil {
		return fmt.Errorf("store: truncate torn tail of %s: %w", seg.path, err)
	}
	seg.size.Store(valid)
	return nil
}

// replayLegacy replays shard i's log of the older per-shard layout, if
// the directory has one, and keeps its path for the first compaction to
// remove.
func (w *wal) replayLegacy(i int) error {
	path := legacyWALPath(w.dir, i)
	b, err := os.ReadFile(path)
	switch {
	case errors.Is(err, os.ErrNotExist):
		return nil
	case err != nil:
		return fmt.Errorf("store: read %s: %w", path, err)
	}
	w.legacy = append(w.legacy, path)
	if len(b) == 0 {
		return nil
	}
	if err := checkFileHeader(b, walMagic, i, len(w.s.shards), path); err != nil {
		return err
	}
	valid := walHeaderLen + w.s.replayLog(b[walHeaderLen:])
	if torn := int64(len(b) - valid); torn > 0 {
		w.s.rec.TornBytes += torn
		if err := os.Truncate(path, int64(valid)); err != nil {
			return fmt.Errorf("store: truncate torn tail of %s: %w", path, err)
		}
	}
	return nil
}

func writeFileHeader(dst []byte, magic string, index, shards int) []byte {
	dst = append(dst, magic...)
	dst = append(dst, fileVersion)
	dst = binary.BigEndian.AppendUint32(dst, uint32(shards))
	dst = binary.BigEndian.AppendUint32(dst, uint32(index))
	return dst
}

func checkFileHeader(b []byte, magic string, index, shards int, path string) error {
	if err := checkHeader(b, magic, shards, path); err != nil {
		return err
	}
	if got := int(binary.BigEndian.Uint32(b[9:])); got != index {
		return fmt.Errorf("store: %s: shard index %d does not match filename", path, got)
	}
	return nil
}

// checkHeader checks the magic, version and shard count of the header b
// starts with; the word after them is the file's to interpret.
func checkHeader(b []byte, magic string, shards int, path string) error {
	if len(b) < walHeaderLen {
		return fmt.Errorf("store: %s: short header", path)
	}
	if string(b[:4]) != magic {
		return fmt.Errorf("store: %s: bad magic", path)
	}
	if b[4] != fileVersion {
		return fmt.Errorf("store: %s: unsupported version %d", path, b[4])
	}
	if got := int(binary.BigEndian.Uint32(b[5:])); got != shards {
		return fmt.Errorf("store: %s written with %d shards, opened with %d; reopen with the original shard count", path, got, shards)
	}
	return nil
}

// nextRecord returns the length of the record b starts with, or 0 when
// b does not start with a whole, intact one whose payload decodes — a
// torn or corrupt record. A put's entry is decoded into r.
func nextRecord(b []byte, r *record) int {
	if len(b) < recHeaderLen {
		return 0 // torn record header
	}
	crc := binary.BigEndian.Uint32(b)
	n := int(binary.BigEndian.Uint32(b[4:]))
	if n < 9 || n > maxRecordBody || len(b) < recHeaderLen+n {
		return 0 // torn or corrupt length
	}
	body := b[recHeaderLen : recHeaderLen+n]
	if crc32.Checksum(body, castagnoli) != crc {
		return 0 // corrupt body
	}
	switch payload := body[9:]; body[8] {
	case opPut:
		if _, tail, err := decodeEntry(r, payload); err != nil || len(tail) != 0 {
			return 0
		}
	case opDelete:
		if len(payload) != guid.Size {
			return 0
		}
	default:
		return 0
	}
	return recHeaderLen + n
}

// replayLog applies the records of b — a log's bytes past its header —
// each to the shard of its GUID, when its seq is above that shard's, and
// returns the length of b's longest valid prefix; a torn or corrupt
// record ends it, without error: that is the expected shape of a crash
// mid-append, and the caller discards the rest. The log interleaves the
// shards; replay first copies each shard's records together, in log
// order, and then applies them a shard at a time, so that both the
// records being read and the table being written stay in the cache
// (replaying in log order, or a shard at a time straight from the log,
// measured 35 % and 25 % slower on 150k records over 8 shards).
func (s *Store) replayLog(b []byte) (valid int) {
	const body, payload = recHeaderLen, recHeaderLen + 9 // offsets in a record
	shardOf := func(rec []byte) int { return int((uint32(rec[payload])<<8 | uint32(rec[payload+1])) >> s.shift) }
	var r record
	// ends[i+1] counts shard i's bytes; summed, ends[i] is where shard i's
	// records start in byShard, and once they are copied, where they end.
	ends := make([]int, len(s.shards)+1)
	for valid < len(b) {
		n := nextRecord(b[valid:], &r)
		if n == 0 {
			break
		}
		ends[shardOf(b[valid:])+1] += n
		valid += n
	}
	for i := 1; i < len(ends); i++ {
		ends[i] += ends[i-1]
	}
	byShard := make([]byte, valid)
	for off, n := 0, 0; off < valid; off += n {
		i := shardOf(b[off:])
		n = body + int(binary.BigEndian.Uint32(b[off+4:]))
		ends[i] += copy(byShard[ends[i]:], b[off:off+n])
	}
	for at, i := 0, 0; i < len(s.shards); i++ {
		sh := &s.shards[i]
		sh.log.logged += int64(ends[i] - at)
		for at < ends[i] {
			rec := byShard[at:]
			at += body + int(binary.BigEndian.Uint32(rec[4:]))
			if seq := binary.BigEndian.Uint64(rec[body:]); seq > sh.log.seq {
				var g guid.GUID
				copy(g[:], rec[payload:])
				old := sh.m[g]
				if rec[body+8] == opPut {
					decodeEntry(&r, rec[payload:]) // valid: nextRecord decoded it
					sh.set(g, &r, old.n)
				} else if old.n > 0 {
					sh.remove(g, old)
				}
				sh.log.seq = seq
				s.rec.ReplayedRecords++
			}
		}
	}
	return valid
}

// loadSnapshot reads a snapshot file into sh, returning the snapshot
// seq and entry count. A missing file is an empty shard; a corrupt file
// is an error (snapshots are written atomically, so corruption means
// the storage itself misbehaved — better to refuse than silently serve
// a partial table).
func (s *Store) loadSnapshot(sh *shard, path string, index, shards int) (uint64, int, error) {
	b, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return 0, 0, nil
	}
	if err != nil {
		return 0, 0, fmt.Errorf("store: read %s: %w", path, err)
	}
	return decodeSnapshot(sh, b, index, shards, path)
}

// decodeSnapshot parses and fully validates a snapshot image, storing
// its entries in sh — not yet shared, so unlocked — as it decodes them:
// the image's bytes are the only staging. It returns the snapshot seq
// and entry count. On an error sh holds a prefix of the image, and Open
// fails as a whole.
func decodeSnapshot(sh *shard, b []byte, index, shards int, path string) (uint64, int, error) {
	const fixed = walHeaderLen + 8 + 8 // header ‖ seq ‖ count
	if len(b) < fixed+4 {
		return 0, 0, fmt.Errorf("store: %s: short snapshot", path)
	}
	if err := checkFileHeader(b, snapMagic, index, shards, path); err != nil {
		return 0, 0, err
	}
	body, tail := b[:len(b)-4], b[len(b)-4:]
	if crc32.Checksum(body, castagnoli) != binary.BigEndian.Uint32(tail) {
		return 0, 0, fmt.Errorf("store: %s: checksum mismatch", path)
	}
	seq := binary.BigEndian.Uint64(b[walHeaderLen:])
	count := binary.BigEndian.Uint64(b[walHeaderLen+8:])
	rest := body[fixed:]
	if count > uint64(len(rest))/entryFixedLen+1 {
		return 0, 0, fmt.Errorf("store: %s: entry count %d exceeds file size", path, count)
	}
	if count > 0 && sh.m == nil {
		sh.m = make(map[guid.GUID]slim, count)
	}
	var r record
	for i := uint64(0); i < count; i++ {
		g, tail, err := decodeEntry(&r, rest)
		if err != nil {
			return 0, 0, fmt.Errorf("store: %s: entry %d: %w", path, i, err)
		}
		sh.set(g, &r, sh.m[g].n)
		rest = tail
	}
	if len(rest) != 0 {
		return 0, 0, fmt.Errorf("store: %s: %d trailing bytes", path, len(rest))
	}
	return seq, int(count), nil
}

// appendRecord appends to dst the record with sequence number seq of op,
// whose payload the payload func appends.
func appendRecord(dst []byte, seq uint64, op byte, payload func([]byte) []byte) []byte {
	at := len(dst)
	dst = append(dst, 0, 0, 0, 0, 0, 0, 0, 0) // crc ‖ len placeholders
	dst = payload(append(binary.BigEndian.AppendUint64(dst, seq), op))
	body := dst[at+recHeaderLen:]
	binary.BigEndian.PutUint32(dst[at:], crc32.Checksum(body, castagnoli))
	binary.BigEndian.PutUint32(dst[at+4:], uint32(len(body)))
	return dst
}

// logDelete logs g's removal from sh before it is applied. Callers hold
// sh.mu for writing.
func (s *Store) logDelete(sh *shard, g guid.GUID, ins *instruments) error {
	w := s.wal
	w.mu.Lock()
	w.scratch = appendRecord(w.scratch, sh.log.seq+1, opDelete, func(b []byte) []byte { return append(b, g[:]...) })
	err := w.commit(1, ins)
	if err == nil {
		w.grew(sh.log, deleteRecordLen)
	}
	w.mu.Unlock()
	if err == nil {
		sh.log.seq++
	}
	return err
}

// commit issues the scratch — records records — as one write(2) to the
// active segment and, under FsyncAlways, one fsync, and empties it; a
// write or fsync that fails is cut off again. Called with w.mu held,
// after the framing; the shards' seqs move only once it returned nil.
func (w *wal) commit(records int, ins *instruments) error {
	buf := w.scratch
	w.scratch = buf[:0]
	if w.closed.Load() {
		return ErrClosed
	}
	if w.failed != nil {
		return w.failed
	}
	seg := &w.seg[w.cur]
	var t0 time.Time
	if ins != nil {
		ins.walWrites.Inc()
		ins.walRecords.Add(int64(records))
		t0 = time.Now()
	}
	was := seg.size.Load()
	n, err := seg.append(buf)
	if err == nil && w.fsync == FsyncAlways {
		err = seg.f.Sync()
	}
	if err != nil {
		// Recovery only tolerates a tear at the very end of the log, and a
		// seq is reused only if its record is gone.
		if n > 0 {
			if terr := seg.f.Truncate(was); terr != nil {
				w.failed = fmt.Errorf("store: wal holds a write it could not cut back: %w", terr)
			}
		}
		return fmt.Errorf("store: wal append: %w", err)
	}
	if w.fsync != FsyncAlways {
		seg.dirty.Store(true)
	}
	if ins != nil {
		ins.commitUs.Observe(float64(time.Since(t0).Nanoseconds()) / 1e3)
	}
	seg.size.Store(was + int64(n))
	return nil
}

// Record lengths: a put's of an entry with nas NAs, and a delete's.
func putRecordLen(nas int) int { return recHeaderLen + 9 + entryFixedLen + 8*nas }

const deleteRecordLen = recHeaderLen + 9 + guid.Size

// grew counts n bytes of lg's shard's records into the log and nudges
// the compactor while the shard has logged SnapshotBytes since the last
// rotation (under uniform load, once the log holds SnapshotBytes ×
// shards), so that a compaction that failed is retried. Called with w.mu
// held.
func (w *wal) grew(lg *shardLog, n int) {
	lg.logged += int64(n)
	if w.snapB > 0 && lg.logged >= w.snapB {
		w.full = true
		select {
		case w.notify <- struct{}{}:
		default:
		}
	}
}

// start writes a fresh header of generation gen to seg, which is empty
// but for what an earlier start that failed may have left.
func (seg *segment) start(gen uint32, shards int) error {
	hdr := writeFileHeader(make([]byte, 0, walHeaderLen), logMagic, int(gen), shards)
	if err := seg.f.Truncate(0); err != nil {
		return fmt.Errorf("store: start %s: %w", seg.path, err)
	}
	if _, err := seg.f.Write(hdr); err != nil {
		return fmt.Errorf("store: start %s: %w", seg.path, err)
	}
	seg.gen = gen
	seg.size.Store(walHeaderLen)
	return nil
}

// walBytes returns the bytes the log's segments hold, 0 on a memory-only
// store.
func (s *Store) walBytes() int64 {
	if s.wal == nil {
		return 0
	}
	return s.wal.seg[0].size.Load() + s.wal.seg[1].size.Load()
}

// compactor compacts the log whenever a nudge finds it over the
// threshold. Errors are non-fatal: the log keeps growing and keeps the
// data safe; the next nudge retries.
func (w *wal) compactor() {
	defer w.release()
	for {
		select {
		case <-w.stop:
			return
		case <-w.notify:
		}
		// A compaction that found the other segment not yet retired (its
		// predecessor failed) could not rotate: the next one can.
		for !w.closed.Load() && w.due() {
			if w.compact() != nil {
				break
			}
		}
	}
}

// due reports whether a shard has logged SnapshotBytes since the last
// rotation.
func (w *wal) due() bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.full
}

// syncer flushes the dirty log every syncInterval (FsyncInterval mode).
func (w *wal) syncer() {
	defer w.release()
	t := time.NewTicker(syncInterval)
	defer t.Stop()
	for {
		select {
		case <-w.stop:
			return
		case <-t.C:
			for k := range w.seg {
				if seg := &w.seg[k]; seg.dirty.Swap(false) {
					seg.f.Sync() // *os.File is safe for concurrent Sync/Write
				}
			}
		}
	}
}

func (w *wal) release() {
	if w.refs.Add(-1) == 0 {
		close(w.joined)
	}
}

// Snapshot forces a compaction: every shard written since its last image
// gets a new one, and the log keeps only what was appended since.
// Returns the first error; the remaining shards are still attempted.
func (s *Store) Snapshot() error {
	if s.wal == nil {
		return nil
	}
	return s.wal.compact()
}

// compact switches appends to the other segment — unless that one still
// holds records a failed compaction left, which this one retires
// instead — writes the image of every shard that changed since its last,
// and then retires the segment that is not taking appends, and any log of
// the older layout: every record they hold is in an image by then. No
// shard is write-locked across a file operation.
func (w *wal) compact() error {
	w.snapMu.Lock()
	defer w.snapMu.Unlock()
	start := time.Now()
	w.mu.Lock()
	if w.closed.Load() {
		w.mu.Unlock()
		return ErrClosed
	}
	if next := &w.seg[1-w.cur]; next.size.Load() == 0 {
		if err := next.start(w.seg[w.cur].gen+1, len(w.s.shards)); err != nil {
			w.mu.Unlock()
			return err
		}
		w.cur = 1 - w.cur
		for i := range w.s.shards {
			w.s.shards[i].log.logged = 0
		}
		w.full = false
	}
	old := &w.seg[1-w.cur]
	w.mu.Unlock()

	var first error
	for i := range w.s.shards {
		if err := w.s.snapshotShard(&w.s.shards[i]); err != nil && first == nil {
			first = err
		}
	}
	if first != nil {
		return first
	}
	if err := old.f.Truncate(0); err != nil {
		return fmt.Errorf("store: retire %s: %w", old.path, err)
	}
	old.size.Store(0)
	old.dirty.Store(false)
	for _, path := range w.legacy {
		if err := os.Remove(path); err != nil && !errors.Is(err, os.ErrNotExist) {
			return fmt.Errorf("store: retire %s: %w", path, err)
		}
	}
	w.legacy = nil
	if ins := w.s.ins.Load(); ins != nil {
		ins.compactionMs.Observe(float64(time.Since(start).Microseconds()) / 1e3)
	}
	return nil
}

// snapshotShard writes sh's table to an atomically replaced
// snapshot file, unless its last image already holds its every record.
// The image is built under the shard's read lock, so its seq is exactly
// the shard's last logged record; writing it — file, fsync, rename,
// directory fsync — happens outside the lock, so neither a write nor a
// read of the shard waits for the disk. Callers hold w.snapMu.
func (s *Store) snapshotShard(sh *shard) error {
	w, i := s.wal, sh.log.index
	sh.mu.RLock()
	seq := sh.log.seq
	if seq == sh.log.imaged {
		sh.mu.RUnlock()
		return nil
	}
	img := writeFileHeader(nil, snapMagic, i, len(s.shards))
	img = binary.BigEndian.AppendUint64(img, seq)
	img = binary.BigEndian.AppendUint64(img, uint64(len(sh.m)))
	img = sh.appendSorted(img)
	sh.mu.RUnlock()
	img = binary.BigEndian.AppendUint32(img, crc32.Checksum(img, castagnoli))

	final := snapPath(w.dir, i)
	if err := writeFileAtomic(final+".tmp", final, img, w.syncImage); err != nil {
		return err
	}
	sh.log.imaged = seq
	if ins := s.ins.Load(); ins != nil {
		ins.snapshots.Inc()
	}
	return nil
}

// writeFileAtomic writes data to tmp, syncs it with sync, renames it
// over final and fsyncs the directory, so the file is either the old
// image or the complete new one — never a prefix.
func writeFileAtomic(tmp, final string, data []byte, sync func(*os.File) error) error {
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := sync(f); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, final); err != nil {
		os.Remove(tmp)
		return err
	}
	if d, err := os.Open(filepath.Dir(final)); err == nil {
		d.Sync()
		d.Close()
	}
	return nil
}

// Sync flushes the log to stable storage, regardless of the fsync
// policy. Drain calls this so a drained node is fully durable.
func (s *Store) Sync() error {
	w := s.wal
	if w == nil {
		return nil
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed.Load() {
		return nil
	}
	return w.syncLocked()
}

// syncLocked fsyncs both segments. Called with w.mu held.
func (w *wal) syncLocked() error {
	var first error
	for k := range w.seg {
		seg := &w.seg[k]
		if err := seg.f.Sync(); err != nil && first == nil {
			first = err
		}
		seg.dirty.Store(false)
	}
	return first
}

// Close stops the background goroutines, waits for a compaction in
// progress, and flushes and closes the log. Mutations after Close fail
// with ErrClosed; reads keep working. Closing a memory-only store is a
// no-op.
func (s *Store) Close() error {
	w := s.wal
	if w == nil || !w.closed.CompareAndSwap(false, true) {
		return nil
	}
	close(w.stop)
	<-w.joined
	w.snapMu.Lock()
	defer w.snapMu.Unlock()
	w.mu.Lock()
	defer w.mu.Unlock()
	first := w.syncLocked()
	for k := range w.seg {
		if err := w.seg[k].f.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
