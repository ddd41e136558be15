// Package store implements the per-AS mapping store: the table of
// GUID→NA entries an autonomous system hosts on behalf of the global
// DMap service.
//
// Entries are versioned with a monotonically increasing sequence number so
// that delayed or reordered updates from a mobile host never roll a
// mapping back (§III-D2), and carry up to MaxNAs locators to support
// multi-homed devices (§IV-A). The store also does the §IV-A storage
// accounting used by the overhead experiment.
//
// The table is sharded by GUID prefix: a power-of-two number of shards,
// each with its own RWMutex, table and incremental storage accounting,
// so concurrent writers on a many-core node do not serialize on one lock
// and the NLR metric is the cheap sum of per-shard counters. A store
// built with New is memory-only; Open builds a durable store: one
// write-ahead log for the whole store, periodic per-shard snapshots
// (wal.go).
//
// Entry, with its NA slice, is what callers exchange with the store,
// never what a shard holds: Put packs the entry into a fixed-size record
// without a pointer in it (record, below) and retains nothing it was
// handed; every read unpacks a copy into memory the caller owns. The
// §IV-A mapping is 44 bytes of numbers, and a table of numbers is one
// the collector has nothing to scan in (DESIGN.md §10).
package store

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"unsafe"

	"dmap/internal/guid"
	"dmap/internal/metrics"
	"dmap/internal/netaddr"
)

// MaxNAs is the maximum number of locators per mapping (paper §IV-A:
// "each associated with a maximum of 5 NAs, accounting for multi-homed
// devices").
const MaxNAs = 5

// NA is a network address (locator): the attachment point of a GUID. AS
// is the dense AS index hosting the attachment; Addr is the routable
// address within it.
type NA struct {
	AS   int
	Addr netaddr.Addr
}

// Entry is one GUID→NA mapping.
type Entry struct {
	GUID guid.GUID
	// NAs lists current attachment points, most preferred first.
	NAs []NA
	// Version is the host-issued sequence number; higher wins.
	Version uint64
	// Meta carries the paper's 32 bits of per-mapping metadata (type of
	// service, priority, ...).
	Meta uint32
}

// Validate checks structural constraints.
func (e Entry) Validate() error {
	if e.GUID.IsZero() {
		return fmt.Errorf("store: zero GUID")
	}
	if len(e.NAs) == 0 {
		return fmt.Errorf("store: entry for %s has no NAs", e.GUID.Short())
	}
	if len(e.NAs) > MaxNAs {
		return fmt.Errorf("store: entry for %s has %d NAs, max %d", e.GUID.Short(), len(e.NAs), MaxNAs)
	}
	for _, na := range e.NAs {
		// Every codec, and the table itself, carries an AS index in 32
		// bits: one that does not fit is refused here, the one place,
		// not truncated in each of them.
		if na.AS < 0 || uint64(na.AS) > math.MaxUint32 {
			return fmt.Errorf("store: entry for %s has AS index %d outside [0, 2^32)", e.GUID.Short(), na.AS)
		}
	}
	return nil
}

// packedNA is an NA as both codecs write it: two 32-bit words.
type packedNA struct{ as, addr uint32 }

func packNA(na NA) packedNA { return packedNA{uint32(na.AS), uint32(na.Addr)} }

func (p packedNA) na() NA { return NA{AS: int(p.as), Addr: netaddr.Addr(p.addr)} }

// slim is the part of a mapping every GUID has, and all a digest page or
// a staleness check reads: 24 bytes, so a slot of the shard's main map
// is the 20-byte key and this. n is the NA count, 1 to MaxNAs.
type slim struct {
	version uint64
	meta    uint32
	n       uint8
	na0     packedNA
}

// moreNAs holds NAs 2 to MaxNAs of a multi-homed mapping, zero beyond n.
type moreNAs [MaxNAs - 1]packedNA

// record is one mapping in table form, the key aside: what Put makes of
// an Entry and what the on-disk codec reads and writes.
type record struct {
	slim
	more moreNAs
}

// pack converts a validated entry.
func pack(e *Entry) (r record) {
	r.slim = slim{version: e.Version, meta: e.Meta, n: uint8(len(e.NAs)), na0: packNA(e.NAs[0])}
	for i, na := range e.NAs[1:] {
		r.more[i] = packNA(na)
	}
	return r
}

// DefaultShards is the shard count New uses: enough stripes that a
// GOMAXPROCS-wide write burst rarely collides, small enough that an
// idle per-AS store in a 26k-AS simulation stays cheap.
const DefaultShards = 8

// MaxShards bounds the shard count (the shard index is derived from the
// first 16 bits of the GUID).
const MaxShards = 1 << 16

// shard is one lock-striped slice of the table: m holds every mapping's
// slim, more the tail of those — the multi-homed minority — with more
// than one NA, and of no others: more's key set is exactly the GUIDs
// whose slim has n > 1, so a rewrite down to one NA or a delete leaves
// no tail behind. Both are written under mu held for writing and read
// under mu held for reading, together: a reader never pairs the first NA
// of one version with the tail of another. Each map is allocated on its
// first write, so an empty shard costs only its header. The pad fills
// the shard to one 64-byte cache line, so that two hot shards never
// share one.
type shard struct {
	mu   sync.RWMutex
	m    map[guid.GUID]slim
	more map[guid.GUID]moreNAs
	log  *shardLog // nil on a memory-only store
	_    [16]byte
}

// record returns a copy of g's record. Callers hold sh.mu.
func (sh *shard) record(g guid.GUID) (r record, ok bool) {
	if r.slim, ok = sh.m[g]; ok && r.n > 1 {
		r.more = sh.more[g]
	}
	return r, ok
}

// unpack writes the NAs of g's record, whose slim is v, into nas, which
// must have room for v.n of them, and returns those. Callers hold sh.mu.
// Reads go through here and not through a record, and take NAs, not an
// Entry, from it: the copies that building a record and taking it apart
// again cost showed as 50 ns a read, a 64-byte Entry stored whole through
// ViewInto's pointer as 10.
func (sh *shard) unpack(g guid.GUID, v slim, nas []NA) []NA {
	nas = nas[:v.n]
	nas[0] = v.na0.na()
	if v.n > 1 {
		more := sh.more[g]
		for i := range nas[1:] {
			nas[i+1] = more[i].na()
		}
	}
	return nas
}

// set stores r as g's record in place of one of oldN NAs, what sh.m held
// for g (0 if nothing). Callers hold sh.mu for writing.
func (sh *shard) set(g guid.GUID, r *record, oldN uint8) {
	if sh.m == nil {
		sh.m = make(map[guid.GUID]slim)
	}
	sh.m[g] = r.slim
	switch {
	case r.n > 1:
		if sh.more == nil {
			sh.more = make(map[guid.GUID]moreNAs)
		}
		sh.more[g] = r.more
	case oldN > 1:
		delete(sh.more, g)
	}
}

// remove deletes g's record, whose slim is old. Callers hold sh.mu for
// writing.
func (sh *shard) remove(g guid.GUID, old slim) {
	delete(sh.m, g)
	if old.n > 1 {
		delete(sh.more, g)
	}
}

// Store is a thread-safe per-AS mapping table. The zero value is not
// usable; call New (memory-only) or Open (durable, wal.go).
type Store struct {
	shards []shard
	// shift maps the first 16 GUID bits to a shard index:
	// idx = uint16(prefix) >> shift. len(shards) == 1 << (16 - shift).
	shift uint
	ins   atomic.Pointer[instruments] // nil until Instrument
	wal   *wal                        // nil on a memory-only store
	rec   RecoveryStats               // filled by Open, immutable after
}

// instruments are the store's optional metrics handles. An
// uninstrumented store pays one atomic load per operation; an
// instrumented one adds a single uncontended atomic add (two counters, a
// clock pair and a histogram sample a log write).
type instruments struct {
	puts, stalePuts, gets, hits, deletes, snapshots *metrics.Counter
	walWrites, walRecords                           *metrics.Counter
	commitUs, compactionMs                          *metrics.Histogram
}

// New returns an empty memory-only store with DefaultShards shards.
func New() *Store {
	s, err := NewSharded(DefaultShards)
	if err != nil {
		panic(err) // DefaultShards is a valid power of two
	}
	return s
}

// NewSharded returns an empty memory-only store with the given shard
// count, which must be a power of two in [1, MaxShards].
func NewSharded(shards int) (*Store, error) {
	if shards < 1 || shards > MaxShards || shards&(shards-1) != 0 {
		return nil, fmt.Errorf("store: shard count %d is not a power of two in [1, %d]", shards, MaxShards)
	}
	bits := uint(0)
	for 1<<bits < shards {
		bits++
	}
	return &Store{shards: make([]shard, shards), shift: 16 - bits}, nil
}

// ShardCount returns the number of shards.
func (s *Store) ShardCount() int { return len(s.shards) }

// shardIndex is the top bits of the GUID, so contiguous GUID-prefix
// ranges land on one shard.
func (s *Store) shardIndex(g guid.GUID) uint32 {
	return (uint32(g[0])<<8 | uint32(g[1])) >> s.shift
}

// shardFor returns the shard hosting g.
func (s *Store) shardFor(g guid.GUID) *shard { return &s.shards[s.shardIndex(g)] }

// Instrument registers the store's operation counters and size gauge
// on reg under prefix (e.g. "store" → "store.puts", "store.size"), and
// the durability plane's: shard snapshots written, log write(2)s and the
// records in them, each commit's write and fsync in µs (commit_us), each
// compaction in ms (compaction_ms), the bytes the log holds, and what
// Open found on disk (all zero on a memory-only store).
// Call once, before serving traffic; re-instrumenting replaces the
// counters but leaves gauges registered on the previous registry.
func (s *Store) Instrument(reg *metrics.Registry, prefix string) {
	ins := &instruments{
		puts:      reg.Counter(prefix + ".puts"),
		stalePuts: reg.Counter(prefix + ".stale_puts"),
		gets:      reg.Counter(prefix + ".gets"),
		hits:      reg.Counter(prefix + ".hits"),
		deletes:   reg.Counter(prefix + ".deletes"),
		snapshots: reg.Counter(prefix + ".snapshots"),

		walWrites:    reg.Counter(prefix + ".wal_writes"),
		walRecords:   reg.Counter(prefix + ".wal_records"),
		commitUs:     reg.Histogram(prefix + ".commit_us"),
		compactionMs: reg.Histogram(prefix + ".compaction_ms"),
	}
	reg.GaugeFunc(prefix+".size", func() float64 { return float64(s.Len()) })
	reg.GaugeFunc(prefix+".wal_bytes", func() float64 { return float64(s.walBytes()) })
	reg.GaugeFunc(prefix+".recovered_entries", func() float64 {
		return float64(s.rec.SnapshotEntries + s.rec.ReplayedRecords)
	})
	reg.GaugeFunc(prefix+".recovery_torn_bytes", func() float64 { return float64(s.rec.TornBytes) })
	s.ins.Store(ins)
}

// Put inserts or updates the mapping for e.GUID. An update with a version
// not greater than the stored one is ignored (stale), preserving
// freshest-wins semantics under reordered delivery. It reports whether
// the entry was applied. On a durable store the WAL record is written
// before the in-memory apply: a Put that returned (true, nil) survives a
// crash of the process. Put, the one-entry run, keeps no reference to
// e.NAs and allocates nothing: the caller may reuse the slice at once.
func (s *Store) Put(e Entry) (bool, error) {
	errs, ord := [1]error{e.Validate()}, [1]uint32{s.shardIndex(e.GUID) << 16}
	// A view of e, not a copy: copying the Entry into a one-element array
	// measured +70 ns a Put on a store larger than the cache.
	es := unsafe.Slice(&e, 1)
	if errs[0] == nil && s.run(es, ord[:], errs[:]) == 1 {
		return true, nil
	}
	return false, errs[0]
}

// PutRun stores es as Put would each in turn and returns how many it
// applied: errs[i] is nil when entry i was applied or stale, else why it
// was refused. On a durable store each 512 entries of es are one log
// write, whatever shards they touch.
func (s *Store) PutRun(es []Entry, errs []error) (applied int) {
	var order [512]uint32 // shard<<16 | position in the chunk
	for len(es) > 0 {
		chunk := es[:min(len(es), len(order))]
		ord := order[:len(chunk)]
		for i := range chunk {
			errs[i] = chunk[i].Validate()
			ord[i] = s.shardIndex(chunk[i].GUID)<<16 | uint32(i)
		}
		slices.Sort(ord) // by shard, and within one in the order of es
		applied += s.run(chunk, ord, errs)
		es, errs = es[len(chunk):], errs[len(chunk):]
	}
	return applied
}

// A run's ord[k] is shard<<16 | position: pos bits index es. The check
// sets fresh on an entry it passed, and the nShift bits above pos to the
// NA count of what that entry replaces.
const (
	pos    = 1<<12 - 1
	nShift = 12
	fresh  = 1 << 15
)

// run stores the valid entries of es at ord, which is sorted by shard:
// on a durable store as one logged commit (logRun), else a shard at a
// time.
func (s *Store) run(es []Entry, ord []uint32, errs []error) (applied int) {
	if s.wal != nil {
		return s.logRun(es, ord, errs)
	}
	for i, j := 0, 0; i < len(ord); i = j {
		for j = i + 1; j < len(ord) && ord[j]>>16 == ord[i]>>16; j++ {
		}
		applied += s.putRun(&s.shards[ord[i]>>16], es, ord[i:j], errs)
	}
	return applied
}

// putRun stores the valid entries of es at ord, all sh's, in a
// memory-only store: under sh's lock taken once, each is applied as it
// is checked against the table.
func (s *Store) putRun(sh *shard, es []Entry, ord []uint32, errs []error) (applied int) {
	ins := s.ins.Load()
	valid := 0
	sh.mu.Lock()
	for _, o := range ord {
		e := &es[o&pos]
		if errs[o&pos] != nil {
			continue
		}
		valid++
		r := pack(e) // ahead of the lookup: measured cheaper on a store larger than the cache
		old, held := sh.m[e.GUID]
		if held && e.Version <= old.version {
			continue
		}
		applied++
		sh.set(e.GUID, &r, old.n)
	}
	sh.mu.Unlock()
	ins.countPuts(valid, applied)
	return applied
}

// logRun stores the valid entries of es at ord, sorted by shard, on a
// durable store as one commit (DESIGN.md §10): it write-locks every
// shard the run touches, in index order, and checks each entry against
// its shard's table and the run's earlier fresh entries; then, under the
// log mutex, frames every fresh one with its shard's next seq and writes
// them all by one write(2); and only then applies them. A commit the log
// refuses applies nothing, and every valid entry fails with its error.
func (s *Store) logRun(es []Entry, ord []uint32, errs []error) (applied int) {
	ins := s.ins.Load()
	for k, o := range ord {
		if k == 0 || o>>16 != ord[k-1]>>16 {
			s.shards[o>>16].mu.Lock()
		}
	}
	valid, first := 0, 0 // first: where the shard of ord[k] starts
	for k, o := range ord {
		if k > 0 && o>>16 != ord[k-1]>>16 {
			first = k
		}
		e := &es[o&pos]
		if errs[o&pos] != nil {
			continue
		}
		valid++
		old, held := s.shards[o>>16].m[e.GUID]
		for j := k - 1; j >= first; j-- { // the run is newer than the table
			if p := ord[j]; p&fresh != 0 && es[p&pos].GUID == e.GUID {
				old, held = slim{version: es[p&pos].Version, n: uint8(len(es[p&pos].NAs))}, true
				break
			}
		}
		if held && e.Version <= old.version {
			continue
		}
		ord[k] |= fresh | uint32(old.n)<<nShift
		applied++
	}
	ins.countPuts(valid, applied)
	if applied > 0 {
		if err := s.commitRun(es, ord, applied, ins); err != nil {
			for _, o := range ord {
				if errs[o&pos] == nil {
					errs[o&pos] = err
				}
			}
			applied = 0
		}
	}
	for k, o := range ord {
		sh := &s.shards[o>>16]
		if o&fresh != 0 && applied > 0 {
			r := pack(&es[o&pos])
			sh.set(es[o&pos].GUID, &r, uint8(o>>nShift&7))
			sh.log.seq++
		}
		if k == len(ord)-1 || o>>16 != ord[k+1]>>16 {
			sh.mu.Unlock()
		}
	}
	return applied
}

// commitRun frames the fresh entries of es at ord, each with its shard's
// next seq, and commits them as one log write. Callers hold the write
// lock of every shard in ord.
func (s *Store) commitRun(es []Entry, ord []uint32, records int, ins *instruments) error {
	w := s.wal
	w.mu.Lock()
	defer w.mu.Unlock()
	seq, prev := uint64(0), ^uint32(0)
	for _, o := range ord {
		if o&fresh == 0 {
			continue
		}
		if o>>16 != prev {
			prev, seq = o>>16, s.shards[o>>16].log.seq
		}
		seq++
		e := &es[o&pos]
		r := pack(e)
		w.scratch = appendRecord(w.scratch, seq, opPut, func(b []byte) []byte { return appendEntry(b, e.GUID, &r) })
	}
	if err := w.commit(records, ins); err != nil {
		return err
	}
	for _, o := range ord {
		if o&fresh != 0 {
			w.grew(s.shards[o>>16].log, putRecordLen(len(es[o&pos].NAs)))
		}
	}
	return nil
}

// countPuts counts a run's valid entries and its stale ones on an
// instrumented store.
func (ins *instruments) countPuts(valid, applied int) {
	if ins == nil {
		return
	}
	ins.puts.Add(int64(valid))
	if valid > applied { // an atomic add is a fence, even of 0
		ins.stalePuts.Add(int64(valid - applied))
	}
}

// countRead counts one read, a hit or not, on an instrumented store.
func (s *Store) countRead(hit bool) {
	if ins := s.ins.Load(); ins != nil {
		ins.gets.Inc()
		if hit {
			ins.hits.Inc()
		}
	}
}

// Read returns the mapping for g with its NAs in buf, and reports
// whether it existed: the read that allocates nothing, whatever the
// entry's NA count. The entry is the caller's copy — writing to buf
// afterwards touches nothing the store holds — and is valid until buf is
// reused.
func (s *Store) Read(g guid.GUID, buf *[MaxNAs]NA) (Entry, bool) {
	sh := s.shardFor(g)
	sh.mu.RLock()
	v, ok := sh.m[g]
	var nas []NA
	if ok {
		nas = sh.unpack(g, v, buf[:])
	}
	sh.mu.RUnlock()
	s.countRead(ok)
	if !ok {
		return Entry{}, false
	}
	return Entry{GUID: g, NAs: nas, Version: v.version, Meta: v.meta}, true
}

// Warm looks every GUID of gs up and returns how many the store holds:
// a hint with no semantics, for a caller about to Read or Put each of
// them. Go has no prefetch; what overlaps a frame's cache misses is a
// real lookup with no locked instruction — each one a fence — between it
// and the next, so the positions are ordered by shard, 256 at a time on
// the stack, and each run of one shard is looked up back to back under
// that shard's read lock taken once. Never two shard locks at a time, no
// counter moved, nothing changed, nothing allocated; the count is what
// keeps the lookups from being compiled away (DESIGN.md §10).
func (s *Store) Warm(gs []guid.GUID) (held int) {
	var order [256]uint32 // shard<<8 | position in the chunk
	for len(gs) > 0 {
		chunk := gs[:min(len(gs), len(order))]
		gs = gs[len(chunk):]
		ord := order[:len(chunk)]
		for i := range chunk {
			ord[i] = s.shardIndex(chunk[i])<<8 | uint32(i)
		}
		slices.Sort(ord)
		for i := 0; i < len(ord); {
			idx := ord[i] >> 8
			sh := &s.shards[idx]
			sh.mu.RLock()
			for ; i < len(ord) && ord[i]>>8 == idx; i++ {
				if _, ok := sh.m[chunk[ord[i]&0xff]]; ok {
					held++
				}
			}
			sh.mu.RUnlock()
		}
	}
	return held
}

// Get returns a copy of the mapping for g, in a freshly allocated NAs
// slice.
func (s *Store) Get(g guid.GUID) (Entry, bool) {
	var buf [MaxNAs]NA
	e, ok := s.Read(g, &buf)
	// Not e with its NAs replaced: that would move buf to the heap too.
	return Entry{GUID: e.GUID, NAs: slices.Clone(e.NAs), Version: e.Version, Meta: e.Meta}, ok
}

// ViewInto copies the mapping for g into e, reusing e's NAs capacity,
// and reports whether it existed (e is untouched on a miss). Unlike Get
// it allocates nothing once e's NAs buffer has grown to the entry's NA
// count (cap MaxNAs always suffices) — the caller-supplied-buffer read
// the client's LookupInto path is built on.
func (s *Store) ViewInto(g guid.GUID, e *Entry) bool {
	sh := s.shardFor(g)
	sh.mu.RLock()
	v, ok := sh.m[g]
	if ok {
		e.NAs = sh.unpack(g, v, slices.Grow(e.NAs[:0], int(v.n)))
	}
	sh.mu.RUnlock()
	s.countRead(ok)
	if ok {
		e.GUID, e.Version, e.Meta = g, v.version, v.meta
	}
	return ok
}

// Delete removes the mapping for g, reporting whether it existed. On a
// durable store the deletion is logged before it is applied.
func (s *Store) Delete(g guid.GUID) bool {
	ins := s.ins.Load()
	sh := s.shardFor(g)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if ins != nil {
		ins.deletes.Inc()
	}
	old, ok := sh.m[g]
	if !ok {
		return false
	}
	if sh.log != nil {
		if err := s.logDelete(sh, g, ins); err != nil {
			// The removal could not be made durable; keep serving the
			// entry rather than resurrect it on the next restart.
			return false
		}
	}
	sh.remove(g, old)
	return true
}

// Len returns the number of hosted mappings.
func (s *Store) Len() int {
	n := 0
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		n += len(sh.m)
		sh.mu.RUnlock()
	}
	return n
}

// Range calls fn on a copy of every entry until fn returns false,
// walking shards in index order (iteration within a shard is Go map
// order). Mutating the store from fn deadlocks; collect first instead.
func (s *Store) Range(fn func(Entry) bool) {
	for i := range s.shards {
		sh := &s.shards[i]
		if !rangeShard(sh, fn) {
			return
		}
	}
}

func rangeShard(sh *shard, fn func(Entry) bool) bool {
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	for g, v := range sh.m {
		if !fn(Entry{GUID: g, NAs: sh.unpack(g, v, make([]NA, v.n)), Version: v.version, Meta: v.meta}) {
			return false
		}
	}
	return true
}

// AppendDump appends a deterministic encoding of the whole table to dst
// and returns it: a uint64 count followed by every entry in ascending
// GUID order, in the on-disk entry codec. Two stores holding the same
// mappings produce byte-identical dumps at any shard count — the
// cross-shard iteration-determinism invariant the migration and
// anti-entropy machinery depend on. Shard ranges tile the keyspace in
// order, so it is each shard's sorted records, one shard after another.
func (s *Store) AppendDump(dst []byte) []byte {
	head, n := len(dst), 0
	dst = append(dst, 0, 0, 0, 0, 0, 0, 0, 0)
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		n += len(sh.m)
		dst = sh.appendSorted(dst)
		sh.mu.RUnlock()
	}
	binary.BigEndian.PutUint64(dst[head:], uint64(n))
	return dst
}

// appendSorted appends every record of sh to dst in ascending GUID
// order, in the on-disk entry codec. Callers hold sh.mu. What is sorted
// is the 20-byte keys: each record is then looked up as it is encoded,
// which costs less than copying and sorting whole records would.
func (sh *shard) appendSorted(dst []byte) []byte {
	keys := make([]guid.GUID, 0, len(sh.m))
	for g := range sh.m {
		keys = append(keys, g)
	}
	sort.Sort(keysInOrder(keys))
	for i := range keys {
		r, _ := sh.record(keys[i])
		dst = appendEntry(dst, keys[i], &r)
	}
	return dst
}

// Extract removes and returns all entries whose GUID satisfies pred. It
// implements the orphan-mapping migration of §III-D1: when an AS
// withdraws a prefix, the entries hashed to it are extracted and shipped
// to the deputy AS. On a durable store each removal is logged, so a
// restart after a migration does not resurrect the shipped entries.
func (s *Store) Extract(pred func(guid.GUID) bool) []Entry {
	var out []Entry
	ins := s.ins.Load()
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		for g, v := range sh.m {
			if !pred(g) {
				continue
			}
			if sh.log != nil {
				if err := s.logDelete(sh, g, ins); err != nil {
					continue // keep it: an unlogged removal would resurrect
				}
			}
			out = append(out, Entry{GUID: g, NAs: sh.unpack(g, v, make([]NA, v.n)), Version: v.version, Meta: v.meta})
			sh.remove(g, v)
		}
		sh.mu.Unlock()
	}
	return out
}
