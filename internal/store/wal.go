// Durability for the sharded store: per-shard write-ahead logs,
// periodic snapshots with log truncation, and crash recovery that
// replays snapshot+tail and tolerates a torn final record.
//
// Layout under Options.Dir:
//
//	shard-%04x.wal   append-only log:   header ‖ record*
//	shard-%04x.snap  latest snapshot, replaced atomically (tmp+rename)
//
// WAL header:  "DWAL" ‖ version(1) ‖ shardCount(u32) ‖ shardIndex(u32)
// WAL record:  crc32c(u32, over body) ‖ bodyLen(u32) ‖ body
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
// seq is per-shard and strictly monotonic; it never resets, even across
// snapshot truncation. Recovery loads the snapshot, then replays only
// WAL records with seq > snapshot seq — so a crash between snapshot
// rename and log truncation merely replays no-ops, and a stale delete
// in a pre-snapshot log tail can never undo a newer snapshotted entry.
//
// Records are appended under the shard write lock through a per-shard
// reusable scratch buffer (the PR-6 ownership discipline: one owner,
// zero per-record allocation), a run of them (Store.PutRun) by a single
// write(2) on an O_APPEND handle. A write that fails is truncated away so
// the log never carries a half-record in the middle.
package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
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
	// FsyncInterval fsyncs dirty logs every syncInterval (100 ms) from a
	// background goroutine: bounded power-loss window, near-FsyncOS
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
	// SnapshotBytes is the per-shard WAL growth that triggers a
	// background snapshot + log truncation. 0 means 4 MiB; negative
	// disables automatic snapshots (the log grows until Snapshot is
	// called).
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
	walMagic     = "DWAL"
	snapMagic    = "DSNP"
	fileVersion  = 1
	walHeaderLen = 4 + 1 + 4 + 4
	recHeaderLen = 4 + 4 // crc ‖ bodyLen

	opPut    = 1
	opDelete = 2

	// maxRecordBody bounds one record body: seq ‖ op ‖ largest payload.
	maxRecordBody = 8 + 1 + maxEntryLen

	defaultSnapshotBytes = 4 << 20
	// syncInterval is the FsyncInterval flush period.
	syncInterval = 100 * time.Millisecond
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// shardLog is the durable side of one shard. All fields except walSize
// are guarded by the owning shard's mutex.
type shardLog struct {
	index   int
	path    string
	f       *os.File // O_APPEND write handle
	seq     uint64   // last seq written (or recovered)
	scratch []byte   // reusable record buffer; owned by the shard lock
	always  bool     // FsyncAlways: flush after every write
	dirty   atomic.Bool
	closed  bool
	// walSize is the validated file length; atomic so the compactor can
	// check thresholds without taking shard locks.
	walSize atomic.Int64
}

// wal is the store-wide durable state: options plus the background
// compactor/syncer machinery.
type wal struct {
	s      *Store
	dir    string
	fsync  FsyncMode
	snapB  int64
	notify chan struct{}
	stop   chan struct{}
	joined chan struct{}
	refs   atomic.Int32 // running background goroutines
	closed atomic.Bool
}

func walPath(dir string, i int) string  { return filepath.Join(dir, fmt.Sprintf("shard-%04x.wal", i)) }
func snapPath(dir string, i int) string { return filepath.Join(dir, fmt.Sprintf("shard-%04x.snap", i)) }

// Open opens (creating if needed) a durable store in opts.Dir,
// recovering any state a previous process left behind: per shard it
// loads the snapshot, replays the WAL tail, discards a torn final
// record, and reopens the log for appending. Recovery details are
// available via Recovery. The caller must Close the store to stop its
// background goroutines and flush the logs.
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
		s:      s,
		dir:    opts.Dir,
		fsync:  opts.Fsync,
		snapB:  opts.SnapshotBytes,
		notify: make(chan struct{}, 1),
		stop:   make(chan struct{}),
		joined: make(chan struct{}),
	}
	s.wal = w
	for i := range s.shards {
		if err := s.recoverShard(i, opts); err != nil {
			for j := 0; j < i; j++ {
				if lg := s.shards[j].log; lg != nil {
					lg.f.Close()
				}
			}
			return nil, err
		}
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

// recoverShard loads shard i's snapshot, replays its WAL tail, and
// leaves an open append handle in place.
func (s *Store) recoverShard(i int, opts Options) error {
	sh := &s.shards[i]
	lg := &shardLog{index: i, path: walPath(opts.Dir, i), always: opts.Fsync == FsyncAlways}

	snapSeq, n, err := s.loadSnapshot(sh, snapPath(opts.Dir, i), i, opts.Shards)
	if err != nil {
		return err
	}
	s.rec.SnapshotEntries += n
	lg.seq = snapSeq

	b, err := os.ReadFile(lg.path)
	switch {
	case errors.Is(err, os.ErrNotExist):
		b = nil
	case err != nil:
		return fmt.Errorf("store: read %s: %w", lg.path, err)
	}
	valid := int64(0)
	if len(b) > 0 {
		valid, err = s.replayWAL(sh, lg, b, i, opts.Shards)
		if err != nil {
			return err
		}
		if torn := int64(len(b)) - valid; torn > 0 {
			s.rec.TornBytes += torn
			if err := os.Truncate(lg.path, valid); err != nil {
				return fmt.Errorf("store: truncate torn tail of %s: %w", lg.path, err)
			}
		}
	}

	f, err := os.OpenFile(lg.path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("store: open %s: %w", lg.path, err)
	}
	if len(b) == 0 {
		var hdr [walHeaderLen]byte
		writeFileHeader(hdr[:0], walMagic, i, opts.Shards)
		if _, err := f.Write(hdr[:]); err != nil {
			f.Close()
			return fmt.Errorf("store: write %s header: %w", lg.path, err)
		}
		valid = walHeaderLen
	}
	lg.f = f
	lg.walSize.Store(valid)
	sh.log = lg
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
	if got := int(binary.BigEndian.Uint32(b[9:])); got != index {
		return fmt.Errorf("store: %s: shard index %d does not match filename", path, got)
	}
	return nil
}

// replayWAL applies every valid record with seq > the snapshot seq and
// returns the length of the longest valid prefix. A torn or corrupt
// record ends the replay without error — that is the expected shape of
// a crash mid-append — and everything after it is discarded by the
// caller.
func (s *Store) replayWAL(sh *shard, lg *shardLog, b []byte, index, shards int) (int64, error) {
	if err := checkFileHeader(b, walMagic, index, shards, lg.path); err != nil {
		return 0, err
	}
	off := int64(walHeaderLen)
	rest := b[walHeaderLen:]
	var r record
	for len(rest) > 0 {
		if len(rest) < recHeaderLen {
			break // torn record header
		}
		crc := binary.BigEndian.Uint32(rest)
		n := int(binary.BigEndian.Uint32(rest[4:]))
		if n < 9 || n > maxRecordBody || len(rest) < recHeaderLen+n {
			break // torn or corrupt length
		}
		body := rest[recHeaderLen : recHeaderLen+n]
		if crc32.Checksum(body, castagnoli) != crc {
			break // corrupt body
		}
		seq := binary.BigEndian.Uint64(body)
		op := body[8]
		payload := body[9:]
		if seq > lg.seq {
			switch op {
			case opPut:
				g, tail, err := decodeEntry(&r, payload)
				if err != nil || len(tail) != 0 {
					return off, nil // corrupt payload: treat as torn
				}
				sh.set(g, &r, sh.m[g].n)
			case opDelete:
				if len(payload) != guid.Size {
					return off, nil
				}
				var g guid.GUID
				copy(g[:], payload)
				if old, ok := sh.m[g]; ok {
					sh.remove(g, old)
				}
			default:
				return off, nil
			}
			lg.seq = seq
			s.rec.ReplayedRecords++
		}
		rest = rest[recHeaderLen+n:]
		off += int64(recHeaderLen + n)
	}
	return off, nil
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

// appendDelete logs a Delete before it is applied, under the shard lock.
func (lg *shardLog) appendDelete(g guid.GUID, ins *instruments) error {
	lg.scratch = appendRecord(lg.scratch, lg.seq+1, opDelete, func(b []byte) []byte { return append(b, g[:]...) })
	return lg.write(1, ins)
}

// write issues the scratch — records records, framed with the seqs after
// lg.seq — as one write(2) and, under FsyncAlways, one fsync, and empties
// it. A failed write is cut off again and lg.seq does not move. Called
// under the shard write lock, as the framing before it.
func (lg *shardLog) write(records int, ins *instruments) error {
	buf := lg.scratch
	lg.scratch = buf[:0]
	if lg.closed {
		return ErrClosed
	}
	if ins != nil {
		ins.walWrites.Inc()
		ins.walRecords.Add(int64(records))
	}
	n, err := lg.f.Write(buf)
	if err != nil {
		// Recovery only tolerates a tear at the very end of the log.
		if n > 0 {
			lg.f.Truncate(lg.walSize.Load())
		}
		return fmt.Errorf("store: wal append: %w", err)
	}
	lg.seq += uint64(records)
	lg.walSize.Add(int64(len(buf)))
	if lg.always {
		if err := lg.f.Sync(); err != nil {
			return fmt.Errorf("store: wal fsync: %w", err)
		}
	} else {
		lg.dirty.Store(true)
	}
	return nil
}

// walBytes returns the bytes every shard's log holds, 0 on a memory-only
// store. It takes no lock: a shard's log is set by Open and never after.
func (s *Store) walBytes() (n int64) {
	for i := range s.shards {
		if lg := s.shards[i].log; lg != nil {
			n += lg.walSize.Load()
		}
	}
	return n
}

// maybeSnapshot nudges the compactor when sh's log has outgrown the
// snapshot threshold. Called under the shard lock; never blocks.
func (s *Store) maybeSnapshot(sh *shard) {
	w := s.wal
	if w == nil || sh.log == nil || w.snapB <= 0 {
		return
	}
	if sh.log.walSize.Load()-walHeaderLen < w.snapB {
		return
	}
	select {
	case w.notify <- struct{}{}:
	default:
	}
}

// compactor snapshots shards whose logs have outgrown the threshold.
// Snapshot errors are non-fatal: the log keeps growing and keeps the
// data safe; the next nudge retries.
func (w *wal) compactor() {
	defer w.release()
	for {
		select {
		case <-w.stop:
			return
		case <-w.notify:
		}
		for i := range w.s.shards {
			sh := &w.s.shards[i]
			if sh.log != nil && sh.log.walSize.Load()-walHeaderLen >= w.snapB {
				w.s.snapshotShard(i)
			}
		}
	}
}

// syncer flushes dirty logs every syncInterval (FsyncInterval mode).
func (w *wal) syncer() {
	defer w.release()
	t := time.NewTicker(syncInterval)
	defer t.Stop()
	for {
		select {
		case <-w.stop:
			return
		case <-t.C:
			w.syncDirty()
		}
	}
}

func (w *wal) syncDirty() {
	for i := range w.s.shards {
		lg := w.s.shards[i].log
		if lg != nil && lg.dirty.Swap(false) {
			lg.f.Sync() // *os.File is safe for concurrent Sync/Write
		}
	}
}

func (w *wal) release() {
	if w.refs.Add(-1) == 0 {
		close(w.joined)
	}
}

// Snapshot forces a snapshot (and log truncation) of every shard.
// Returns the first error; remaining shards are still attempted.
func (s *Store) Snapshot() error {
	if s.wal == nil {
		return nil
	}
	var first error
	for i := range s.shards {
		if err := s.snapshotShard(i); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// snapshotShard writes shard i's table to an atomically-replaced
// snapshot file and truncates its WAL, all under the shard write lock:
// no record can land between the snapshot image and the truncation, so
// the pair is equivalent to an instantaneous log rewrite. seq is
// preserved — it never moves backwards.
func (s *Store) snapshotShard(i int) error {
	sh := &s.shards[i]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	lg := sh.log
	if lg == nil || lg.closed {
		return ErrClosed
	}

	img := writeFileHeader(nil, snapMagic, i, len(s.shards))
	img = binary.BigEndian.AppendUint64(img, lg.seq)
	img = binary.BigEndian.AppendUint64(img, uint64(len(sh.m)))
	img = sh.appendSorted(img)
	img = binary.BigEndian.AppendUint32(img, crc32.Checksum(img, castagnoli))

	final := snapPath(s.wal.dir, i)
	tmp := final + ".tmp"
	if err := writeFileAtomic(tmp, final, img); err != nil {
		return err
	}
	if err := lg.f.Truncate(walHeaderLen); err != nil {
		return fmt.Errorf("store: truncate %s: %w", lg.path, err)
	}
	lg.walSize.Store(walHeaderLen)
	if ins := s.ins.Load(); ins != nil {
		ins.snapshots.Inc()
	}
	return nil
}

// writeFileAtomic writes data to tmp, fsyncs it, renames it over final
// and fsyncs the directory, so the file is either the old image or the
// complete new one — never a prefix.
func writeFileAtomic(tmp, final string, data []byte) error {
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
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

// Sync flushes every shard's WAL to stable storage, regardless of the
// fsync policy. Drain calls this so a drained node is fully durable.
func (s *Store) Sync() error {
	if s.wal == nil {
		return nil
	}
	var first error
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		lg := sh.log
		if lg != nil && !lg.closed {
			if err := lg.f.Sync(); err != nil && first == nil {
				first = err
			}
			lg.dirty.Store(false)
		}
		sh.mu.Unlock()
	}
	return first
}

// Close stops the background goroutines and flushes and closes every
// shard log. Mutations after Close fail with ErrClosed; reads keep
// working. Closing a memory-only store is a no-op.
func (s *Store) Close() error {
	w := s.wal
	if w == nil || !w.closed.CompareAndSwap(false, true) {
		return nil
	}
	close(w.stop)
	<-w.joined
	var first error
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		lg := sh.log
		if lg != nil && !lg.closed {
			if err := lg.f.Sync(); err != nil && first == nil {
				first = err
			}
			if err := lg.f.Close(); err != nil && first == nil {
				first = err
			}
			lg.closed = true
		}
		sh.mu.Unlock()
	}
	return first
}
