// Anti-entropy digest cursors: bounded, ordered views of a shard's
// (GUID, version) pairs plus the range scans a repair peer needs to
// compare a digest page against its own holdings. The cursor API is the
// store-side half of the background repair protocol (DESIGN.md §12):
// sweeps page through a shard in keyspace order without ever holding a
// lock across more than one bounded selection pass.
package store

import (
	"bytes"
	"encoding/binary"
	"sort"

	"dmap/internal/guid"
)

// Digest is the compact per-entry fingerprint exchanged by anti-entropy
// sweeps: enough to decide staleness under §III-D2 freshest-wins
// versioning without shipping the entry itself.
type Digest struct {
	GUID    guid.GUID
	Version uint64
}

// ShardDigests appends to dst up to max digests of shard i's entries
// whose GUID is strictly greater than after, in ascending keyspace
// order, and reports whether entries beyond the returned page remain in
// the shard. dst is the caller's reusable page buffer (its capacity is
// kept); max must be positive. The selection runs under the shard's
// read lock but never blocks writers for longer than one bounded pass
// over the shard map.
func (s *Store) ShardDigests(i int, after guid.GUID, max int, dst []Digest) ([]Digest, bool) {
	if max <= 0 {
		return dst, false
	}
	return selectDigests(&s.shards[i], after, guid.Max(), max, dst)
}

// IntervalDigests appends to dst the digest of every entry whose GUID
// lies in (after, through], in ascending keyspace order — what a repair
// peer compares a range-complete digest page against. Only the shards
// overlapping the interval are visited, each in one pass; shard ranges
// tile the keyspace in order, so per-shard order is global order.
func (s *Store) IntervalDigests(after, through guid.GUID, dst []Digest) []Digest {
	if guid.Compare(after, through) >= 0 {
		return dst
	}
	lo := int(s.shardIndex(after))
	hi := int(s.shardIndex(through))
	for i := lo; i <= hi; i++ {
		dst, _ = selectDigests(&s.shards[i], after, through, 0, dst)
	}
	return dst
}

// selectDigests appends to dst, in keyspace order, the digests of sh's
// entries in (after, through] — with max > 0 only the max smallest,
// reporting whether any were left out — in one pass over the shard map
// under its read lock plus one sort of what the pass kept. Once the
// page is full it is a max-heap: a smaller GUID evicts the root, a
// larger one is left to a later cursor position.
func selectDigests(sh *shard, after, through guid.GUID, max int, dst []Digest) ([]Digest, bool) {
	base, more := len(dst), false
	sh.mu.RLock()
	for g, e := range sh.m {
		if !less(&after, &g) || less(&through, &g) {
			continue
		}
		switch page := dst[base:]; {
		case max <= 0 || len(page) < max:
			dst = append(dst, Digest{GUID: g, Version: e.version})
			if page = dst[base:]; len(page) == max {
				for i := max/2 - 1; i >= 0; i-- {
					siftDown(page, i)
				}
			}
		case less(&g, &page[0].GUID):
			page[0] = Digest{GUID: g, Version: e.version}
			siftDown(page, 0)
			more = true
		default:
			more = true
		}
	}
	sh.mu.RUnlock()
	sort.Sort(inKeyspaceOrder(dst[base:]))
	return dst, more
}

// less reports whether a sorts before b in keyspace order, as
// guid.Compare does. GUIDs are hash outputs, so the first eight bytes,
// compared as one big-endian word, decide all but one comparison in
// 2^64; and digest paging does little else than compare, so it passes
// pointers — two 20-byte arrays by value cost more than comparing them.
func less(a, b *guid.GUID) bool {
	if x, y := binary.BigEndian.Uint64(a[:]), binary.BigEndian.Uint64(b[:]); x != y {
		return x < y
	}
	return bytes.Compare(a[8:], b[8:]) < 0
}

// inKeyspaceOrder sorts digests by GUID; sort.Sort compares in place,
// where a comparison function would be handed two copies per call.
type inKeyspaceOrder []Digest

func (s inKeyspaceOrder) Len() int           { return len(s) }
func (s inKeyspaceOrder) Less(i, j int) bool { return less(&s[i].GUID, &s[j].GUID) }
func (s inKeyspaceOrder) Swap(i, j int)      { s[i], s[j] = s[j], s[i] }

// keysInOrder is the same sort over bare keys (a snapshot's, a dump's).
type keysInOrder []guid.GUID

func (s keysInOrder) Len() int           { return len(s) }
func (s keysInOrder) Less(i, j int) bool { return less(&s[i], &s[j]) }
func (s keysInOrder) Swap(i, j int)      { s[i], s[j] = s[j], s[i] }

// siftDown restores the max-heap order of h below position i.
func siftDown(h []Digest, i int) {
	for {
		big := 2*i + 1
		if big >= len(h) {
			return
		}
		if r := big + 1; r < len(h) && less(&h[big].GUID, &h[r].GUID) {
			big = r
		}
		if !less(&h[i].GUID, &h[big].GUID) {
			return
		}
		h[i], h[big] = h[big], h[i]
		i = big
	}
}

// ShardRange returns shard i's slice of the keyspace as an
// exclusive-left, inclusive-right interval (after, through]: every GUID
// the shard can host satisfies after < g ≤ through. Anti-entropy sweeps
// use it to seed the page cursor and to mark the final page of a shard
// as covering the whole remaining shard range.
func (s *Store) ShardRange(i int) (after, through guid.GUID) {
	if i > 0 {
		lo := uint16(i) << s.shift
		after[0] = byte((lo - 1) >> 8)
		after[1] = byte(lo - 1)
		for j := 2; j < guid.Size; j++ {
			after[j] = 0xff
		}
	}
	if i == len(s.shards)-1 {
		return after, guid.Max()
	}
	hi := uint16(i+1)<<s.shift - 1
	through[0] = byte(hi >> 8)
	through[1] = byte(hi)
	for j := 2; j < guid.Size; j++ {
		through[j] = 0xff
	}
	return after, through
}

// Version returns the stored version of g's mapping, without unpacking
// the entry — the cheap staleness check the anti-entropy merge paths
// make once per digest.
func (s *Store) Version(g guid.GUID) (uint64, bool) {
	sh := s.shardFor(g)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	e, ok := sh.m[g]
	if !ok {
		return 0, false
	}
	return e.version, true
}
