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
// each with its own RWMutex, map and incremental storage accounting, so
// concurrent writers on a many-core node do not serialize on one lock
// and the NLR metric is the cheap sum of per-shard counters. A store
// built with New is memory-only; Open builds a durable store whose
// shards each keep a write-ahead log and periodic snapshot (wal.go).
package store

import (
	"bytes"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

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

// SizeBits returns the §IV-A wire/storage size of the entry:
// 160-bit GUID + 32 bits per NA + 32 bits of metadata.
func (e Entry) SizeBits() int {
	return guid.Size*8 + 32*len(e.NAs) + 32
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
		if na.AS < 0 {
			return fmt.Errorf("store: entry for %s has negative AS index", e.GUID.Short())
		}
	}
	return nil
}

// clone deep-copies e so callers cannot alias internal state.
func (e Entry) clone() Entry {
	nas := make([]NA, len(e.NAs))
	copy(nas, e.NAs)
	e.NAs = nas
	return e
}

// DefaultShards is the shard count New uses: enough stripes that a
// GOMAXPROCS-wide write burst rarely collides, small enough that an
// idle per-AS store in a 26k-AS simulation stays cheap.
const DefaultShards = 8

// MaxShards bounds the shard count (the shard index is derived from the
// first 16 bits of the GUID).
const MaxShards = 1 << 16

// shard is one lock-striped slice of the table. The map is allocated on
// first write, so an empty shard costs only its header. sizeBits is
// maintained incrementally under mu — SizeBits never rescans the map.
// The pad keeps two hot shards off one cache line.
type shard struct {
	mu       sync.RWMutex
	m        map[guid.GUID]Entry
	sizeBits int64
	log      *shardLog // nil on a memory-only store
	_        [24]byte
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
// instrumented one adds a single uncontended atomic add.
type instruments struct {
	puts, stalePuts, gets, hits, deletes *metrics.Counter
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

// shardFor returns the shard hosting g: the top bits of the GUID, so
// contiguous GUID-prefix ranges land on one shard.
func (s *Store) shardFor(g guid.GUID) *shard {
	idx := (uint32(g[0])<<8 | uint32(g[1])) >> s.shift
	return &s.shards[idx]
}

// Instrument registers the store's operation counters and size gauge
// on reg under prefix (e.g. "store" → "store.puts", "store.size").
// Call once, before serving traffic; re-instrumenting replaces the
// counters but leaves gauges registered on the previous registry.
func (s *Store) Instrument(reg *metrics.Registry, prefix string) {
	ins := &instruments{
		puts:      reg.Counter(prefix + ".puts"),
		stalePuts: reg.Counter(prefix + ".stale_puts"),
		gets:      reg.Counter(prefix + ".gets"),
		hits:      reg.Counter(prefix + ".hits"),
		deletes:   reg.Counter(prefix + ".deletes"),
	}
	reg.GaugeFunc(prefix+".size", func() float64 { return float64(s.Len()) })
	s.ins.Store(ins)
}

// Put inserts or updates the mapping for e.GUID. An update with a version
// not greater than the stored one is ignored (stale), preserving
// freshest-wins semantics under reordered delivery. It reports whether
// the entry was applied. On a durable store the WAL record is written
// before the in-memory apply: a Put that returned (true, nil) survives a
// crash of the process.
func (s *Store) Put(e Entry) (bool, error) {
	if err := e.Validate(); err != nil {
		return false, err
	}
	e = e.clone()
	ins := s.ins.Load()
	sh := s.shardFor(e.GUID)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if ins != nil {
		ins.puts.Inc()
	}
	old, existed := sh.m[e.GUID]
	if existed && e.Version <= old.Version {
		if ins != nil {
			ins.stalePuts.Inc()
		}
		return false, nil
	}
	if sh.log != nil {
		if err := sh.log.appendPut(e); err != nil {
			return false, err
		}
	}
	if sh.m == nil {
		sh.m = make(map[guid.GUID]Entry)
	}
	sh.m[e.GUID] = e
	sh.sizeBits += int64(e.SizeBits())
	if existed {
		sh.sizeBits -= int64(old.SizeBits())
	}
	s.maybeSnapshot(sh)
	return true, nil
}

// Get returns a copy of the mapping for g.
func (s *Store) Get(g guid.GUID) (Entry, bool) {
	ins := s.ins.Load()
	sh := s.shardFor(g)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	e, ok := sh.m[g]
	if ins != nil {
		ins.gets.Inc()
		if ok {
			ins.hits.Inc()
		}
	}
	if !ok {
		return Entry{}, false
	}
	return e.clone(), true
}

// ViewInto copies the mapping for g into e, reusing e's NAs capacity,
// and reports whether it existed (e is untouched on a miss). Unlike Get
// it allocates nothing once e's NAs buffer has grown to the entry's NA
// count (cap MaxNAs always suffices) — the caller-supplied-buffer read
// the client's LookupInto path is built on.
func (s *Store) ViewInto(g guid.GUID, e *Entry) bool {
	ins := s.ins.Load()
	sh := s.shardFor(g)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	v, ok := sh.m[g]
	if ins != nil {
		ins.gets.Inc()
		if ok {
			ins.hits.Inc()
		}
	}
	if !ok {
		return false
	}
	e.GUID = v.GUID
	e.Version = v.Version
	e.Meta = v.Meta
	e.NAs = append(e.NAs[:0], v.NAs...)
	return true
}

// View calls fn with the stored entry for g, without cloning, and
// reports whether the entry existed (fn is not called on a miss). The
// entry — including its NAs slice — is valid only for the duration of
// fn and must not be mutated or retained; copy out whatever must
// outlive the call. This is the zero-allocation read path: servers
// encode the entry to the wire inside fn, under the entry's shard read
// lock, so the clone Get pays per call never happens.
func (s *Store) View(g guid.GUID, fn func(Entry)) bool {
	ins := s.ins.Load()
	sh := s.shardFor(g)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	e, ok := sh.m[g]
	if ins != nil {
		ins.gets.Inc()
		if ok {
			ins.hits.Inc()
		}
	}
	if !ok {
		return false
	}
	fn(e)
	return true
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
		if err := sh.log.appendDelete(g); err != nil {
			// The removal could not be made durable; keep serving the
			// entry rather than resurrect it on the next restart.
			return false
		}
	}
	delete(sh.m, g)
	sh.sizeBits -= int64(old.SizeBits())
	s.maybeSnapshot(sh)
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

// ShardLen returns the number of mappings hosted by shard i.
func (s *Store) ShardLen(i int) int {
	sh := &s.shards[i]
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	return len(sh.m)
}

// SizeBits returns the total §IV-A storage footprint of the store: the
// sum of the per-shard incremental counters, so the NLR accounting is
// O(shards) regardless of how many mappings are hosted.
func (s *Store) SizeBits() int64 {
	var total int64
	for i := range s.shards {
		total += s.ShardSizeBits(i)
	}
	return total
}

// ShardSizeBits returns the §IV-A storage footprint of shard i.
func (s *Store) ShardSizeBits(i int) int64 {
	sh := &s.shards[i]
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	return sh.sizeBits
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
	for _, e := range sh.m {
		if !fn(e.clone()) {
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
// anti-entropy machinery depend on.
func (s *Store) AppendDump(dst []byte) []byte {
	var all []Entry
	s.Range(func(e Entry) bool {
		all = append(all, e)
		return true
	})
	slices.SortFunc(all, func(a, b Entry) int { return bytes.Compare(a.GUID[:], b.GUID[:]) })
	var cnt [8]byte
	for i := range cnt {
		cnt[7-i] = byte(uint64(len(all)) >> (8 * i))
	}
	dst = append(dst, cnt[:]...)
	for _, e := range all {
		dst = appendEntry(dst, e)
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
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		for g, e := range sh.m {
			if !pred(g) {
				continue
			}
			if sh.log != nil {
				if err := sh.log.appendDelete(g); err != nil {
					continue // keep it: an unlogged removal would resurrect
				}
			}
			out = append(out, e) // already isolated: removed below
			delete(sh.m, g)
			sh.sizeBits -= int64(e.SizeBits())
		}
		sh.mu.Unlock()
	}
	return out
}
