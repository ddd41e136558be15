// Package core implements DMap itself: the direct mapping of flat GUIDs
// onto the announced network address space (Algorithm 1 of the paper),
// K-replica placement, and the insert/update/lookup protocols with local
// replication, churn handling and failure retries.
//
// The resolver side (this file) is pure: given the shared hash family and
// a BGP prefix table, every participant derives the same K hosting ASs
// for any GUID with only local computation — the property that gives DMap
// its single overlay hop.
package core

import (
	"fmt"
	"slices"

	"dmap/internal/guid"
	"dmap/internal/netaddr"
	"dmap/internal/prefixtable"
)

// DefaultMaxRehash is M in Algorithm 1. With ≈45% of the space
// unannounced, the probability of still being in a hole after 10 rehashes
// is 0.45^10 ≈ 0.034% (§III-B).
const DefaultMaxRehash = 10

// Placement describes where one replica of a GUID's mapping lives and how
// Algorithm 1 got there.
type Placement struct {
	// AS hosts the replica.
	AS int
	// Addr is the hashed (or rehashed, or nearest-announced) address that
	// selected the AS.
	Addr netaddr.Addr
	// Replica is the hash-function index in [0, K).
	Replica int
	// Rehashes counts how many extra hashes Algorithm 1 needed.
	Rehashes int
	// UsedNearest reports that all M hashes fell into IP holes and the
	// minimum-IP-distance deputy was used.
	UsedNearest bool
}

// Resolver derives hosting ASs from GUIDs. It is safe for concurrent use
// as long as the prefix table is not mutated concurrently (churn is
// driven from one goroutine).
type Resolver struct {
	hasher    *guid.Hasher
	table     *prefixtable.Table
	maxRehash int
	numAS     int // > 0: the §VII variant, placing over AS numbers without a table
}

// NewResolver builds a resolver over the shared hash family and prefix
// table. maxRehash ≤ 0 selects DefaultMaxRehash.
func NewResolver(h *guid.Hasher, t *prefixtable.Table, maxRehash int) (*Resolver, error) {
	if h == nil {
		return nil, fmt.Errorf("core: nil hasher")
	}
	if t == nil {
		return nil, fmt.Errorf("core: nil prefix table")
	}
	if maxRehash <= 0 {
		maxRehash = DefaultMaxRehash
	}
	return &Resolver{hasher: h, table: t, maxRehash: maxRehash}, nil
}

// NewASNumberResolver builds the resolver of the §VII variant that hashes
// GUIDs directly to AS numbers instead of addresses: replica r of g lives
// at AS h_r(g) mod numAS, the dense AS number space. It has no prefix
// table, so it meets no holes and no churn.
func NewASNumberResolver(h *guid.Hasher, numAS int) (*Resolver, error) {
	if h == nil {
		return nil, fmt.Errorf("core: nil hasher")
	}
	if numAS <= 0 {
		return nil, fmt.Errorf("core: numAS must be positive, got %d", numAS)
	}
	return &Resolver{hasher: h, maxRehash: DefaultMaxRehash, numAS: numAS}, nil
}

// K returns the replication factor.
func (r *Resolver) K() int { return r.hasher.K() }

// MaxRehash returns M.
func (r *Resolver) MaxRehash() int { return r.maxRehash }

// Table returns the underlying prefix table, nil for the AS-number
// variant.
func (r *Resolver) Table() *prefixtable.Table { return r.table }

// Hasher returns the shared hash family.
func (r *Resolver) Hasher() *guid.Hasher { return r.hasher }

// ErrNoPrefixes reports an empty prefix table: no AS can host anything.
var ErrNoPrefixes = fmt.Errorf("core: prefix table is empty")

// PlaceBatch runs Algorithm 1 for replicas [from, to) of every GUID in gs,
// 0 ≤ from ≤ to ≤ K, into dst GUID-major: replica r of gs[i] goes to
// dst[i·(to−from) + r−from], and dst must hold len(gs)·(to−from)
// placements. It allocates nothing for K ≤ 8. The walk is staged — the
// first addresses of the whole batch, one digest per GUID per eight
// replicas, then one rehash depth at a time over every placement still in
// a hole, then the nearest deputy for the rest — so a depth's
// prefix-table lookups are independent and their cache misses overlap.
func (r *Resolver) PlaceBatch(dst []Placement, gs []guid.GUID, from, to int) error {
	n := to - from
	if from < 0 || n < 0 || to > r.hasher.K() || len(dst) < len(gs)*n {
		panic(fmt.Sprintf("core: replicas [%d,%d) of %d GUIDs into %d placements at K = %d", from, to, len(gs), len(dst), r.hasher.K()))
	}
	if r.numAS > 0 {
		for i, g := range gs {
			for j := range n {
				dst[i*n+j], _ = r.PlaceExcluding(g, from+j, nil)
			}
		}
		return nil
	}
	var words [8]uint32 // one digest's worth; a larger K spills to the heap
	for i, g := range gs {
		for j, first := range r.hasher.AppendAll(words[:0], g)[from:to] {
			dst[i*n+j] = Placement{Addr: netaddr.Addr(first), Replica: from + j}
		}
	}
	for ps := dst[:len(gs)*n]; len(ps) > 0; ps = ps[min(stage, len(ps)):] {
		if err := r.walk(ps[:min(stage, len(ps))], nil); err != nil {
			return err
		}
	}
	return nil
}

// stage is how many placements walk carries through the depths together:
// more independent lookups than a core keeps in flight, on the stack.
const stage = 64

// walk is Algorithm 1's rehash loop over up to stage placements whose
// Addr holds their first hashed address. Depth m looks every open
// placement up and rehashes only those that fell into an IP hole (or an
// excluded address); after M depths the rest take the announced prefix
// nearest in IP distance.
func (r *Resolver) walk(ps []Placement, exclude func(netaddr.Addr) bool) error {
	var worklist [stage]uint8
	open := worklist[:len(ps)]
	for j := range open {
		open[j] = uint8(j)
	}
	for m := 0; m < r.maxRehash && len(open) > 0; m++ {
		holes := open[:0]
		for _, j := range open {
			p := &ps[j]
			if e, ok := r.table.Lookup(p.Addr); ok && (exclude == nil || !exclude(p.Addr)) {
				p.AS, p.Rehashes = e.AS, m
				continue
			}
			p.Addr = netaddr.Addr(r.hasher.Rehash(uint32(p.Addr), p.Replica))
			holes = append(holes, j)
		}
		open = holes
	}
	for _, j := range open {
		e, closest, ok := r.table.Nearest(ps[j].Addr)
		if !ok {
			return ErrNoPrefixes
		}
		ps[j] = Placement{AS: e.AS, Addr: closest, Replica: ps[j].Replica, Rehashes: r.maxRehash, UsedNearest: true}
	}
	return nil
}

// PlaceReplica runs Algorithm 1 for one replica index.
func (r *Resolver) PlaceReplica(g guid.GUID, replica int) (Placement, error) {
	return r.PlaceExcluding(g, replica, nil)
}

// Place returns all K placements for g, in replica order. Distinct
// replicas may land on the same AS (the paper accepts this; with ~26k
// candidate ASs it is rare).
func (r *Resolver) Place(g guid.GUID) ([]Placement, error) {
	out, err := r.PlaceInto(g, make([]Placement, 0, r.hasher.K()))
	if err != nil {
		return nil, err
	}
	return out, nil
}

// PlaceInto appends all K placements for g to dst and returns the
// extended slice, reusing dst's capacity — the allocation-free variant
// of Place for hot request paths. On error dst is returned unextended
// so callers pooling the slice can still recycle it.
func (r *Resolver) PlaceInto(g guid.GUID, dst []Placement) ([]Placement, error) {
	n, k := len(dst), r.hasher.K()
	out := slices.Grow(dst, k)[:n+k]
	if err := r.PlaceBatch(out[n:], []guid.GUID{g}, 0, k); err != nil {
		return dst, err
	}
	return out, nil
}

// PlaceExcluding runs Algorithm 1 for one replica as if exclude(addr)
// addresses were holes. It implements the deputy search of §III-D1: a
// withdrawing AS finds where its orphan mappings must migrate by
// continuing the protocol past its own (about-to-vanish) prefix, and an
// announcing AS locates the old deputy by pretending its new prefix is
// still a hole.
func (r *Resolver) PlaceExcluding(g guid.GUID, replica int, exclude func(netaddr.Addr) bool) (Placement, error) {
	if r.numAS > 0 {
		return Placement{AS: r.hasher.HashToRange(g, replica, r.numAS), Replica: replica}, nil
	}
	p := [1]Placement{{Addr: netaddr.Addr(r.hasher.Hash(g, replica)), Replica: replica}}
	if err := r.walk(p[:], exclude); err != nil {
		return Placement{}, err
	}
	return p[0], nil
}

// RehashStats measures Algorithm 1's behaviour over a set of GUIDs: how
// often each rehash depth is reached and how often the nearest-prefix
// deputy fallback fires (the §III-B hole-probability analysis).
type RehashStats struct {
	// Samples is the number of (GUID, replica) placements measured.
	Samples int
	// DepthCounts[d] counts placements that needed exactly d rehashes.
	DepthCounts []int
	// NearestFallbacks counts placements that exhausted M rehashes.
	NearestFallbacks int
}

// FallbackRate returns the fraction of placements that used the deputy
// fallback.
func (s RehashStats) FallbackRate() float64 {
	if s.Samples == 0 {
		return 0
	}
	return float64(s.NearestFallbacks) / float64(s.Samples)
}

// MeasureRehash places n sequentially derived GUIDs (all K replicas each)
// and aggregates Algorithm 1 statistics.
func (r *Resolver) MeasureRehash(n int) (RehashStats, error) {
	st := RehashStats{DepthCounts: make([]int, r.maxRehash+1)}
	for i := 0; i < n; i++ {
		g := guid.FromUint64(uint64(i))
		for k := 0; k < r.hasher.K(); k++ {
			p, err := r.PlaceReplica(g, k)
			if err != nil {
				return RehashStats{}, err
			}
			st.Samples++
			st.DepthCounts[p.Rehashes]++
			if p.UsedNearest {
				st.NearestFallbacks++
			}
		}
	}
	return st, nil
}
