package main

import (
	"encoding/binary"
	"fmt"
	"math/rand"

	"dmap/internal/core"
	"dmap/internal/guid"
	"dmap/internal/netaddr"
	"dmap/internal/prefixtable"
	"dmap/internal/store"
)

// Frozen deployment shape (ISSUE 12 sizing). Changing any of these
// changes what every committed number means.
const (
	numNodes    = 3
	replicas    = 3     // K
	numASFullDF = 26424 // NA.AS values are drawn below this bound
)

// mix64 is the splitmix64 finalizer; every seeded derivation in the
// benchmark goes through it so that inputs depend on -seed alone.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// subSeed derives an independent PRNG seed for one consumer (a phase, a
// worker) from the run seed.
func subSeed(seed int64, parts ...uint64) int64 {
	x := mix64(uint64(seed))
	for _, p := range parts {
		x = mix64(x ^ p)
	}
	return int64(x >> 1)
}

// inputs is everything a workload is generated from: the folded DFZ,
// the resolver every driver thread shares (read-only) and the key
// population with each key's hosting nodes.
type inputs struct {
	seed     int64
	table    *prefixtable.Table
	resolver *core.Resolver
	keys     []guid.GUID
	// hosts[i] is the bitmask of node indices holding a replica of
	// keys[i].
	hosts []uint8
}

// genTable builds the full-scale synthetic DFZ for seed and folds its
// 26,424 origin ASs onto the three nodes (AS mod 3) by re-announcing
// every prefix in place. The trie — prefix count, lengths, holes — is
// the full-scale one, so LPM and rehash work is realistic, while the
// client's per-AS grouping becomes per-node grouping, which is what
// lets a batch frame carry more than one GUID to a three-node cluster.
func genTable(seed int64) (*prefixtable.Table, error) {
	tbl, err := prefixtable.Generate(prefixtable.DefaultGenConfig(seed))
	if err != nil {
		return nil, fmt.Errorf("generate DFZ: %w", err)
	}
	for _, e := range tbl.Entries() {
		if err := tbl.Announce(e.Prefix, e.AS%numNodes); err != nil {
			return nil, fmt.Errorf("fold DFZ: %w", err)
		}
	}
	return tbl, nil
}

// genInputs draws n keys for seed. A key is kept only when its K
// replicas land on at least two distinct nodes: with 26k ASs the paper
// has distinct replicas almost surely, and a key living on one node
// would turn a single-node kill in restart_heal into an outage that is
// the sandbox's doing, not the scheme's. The same population serves all
// four workloads.
func genInputs(seed int64, n int) (*inputs, error) {
	tbl, err := genTable(seed)
	if err != nil {
		return nil, err
	}
	res, err := core.NewResolver(guid.MustHasher(replicas, 0), tbl, 0)
	if err != nil {
		return nil, err
	}
	in := &inputs{
		seed: seed, table: tbl, resolver: res,
		keys: make([]guid.GUID, 0, n), hosts: make([]uint8, 0, n),
	}
	place := make([]core.Placement, 0, replicas)
	for x := mix64(uint64(seed) ^ 0x6b657973); len(in.keys) < n; {
		var g guid.GUID
		for off := 0; off < guid.Size; off += 4 {
			x = mix64(x)
			binary.BigEndian.PutUint32(g[off:], uint32(x>>32))
		}
		place, err = res.PlaceInto(g, place[:0])
		if err != nil {
			return nil, err
		}
		var mask uint8
		for _, p := range place {
			mask |= 1 << uint(p.AS)
		}
		if mask&(mask-1) == 0 {
			continue // all replicas on one node
		}
		in.keys = append(in.keys, g)
		in.hosts = append(in.hosts, mask)
	}
	return in, nil
}

// replicaCount is how many distinct nodes hold key i.
func (in *inputs) replicaCount(i int) int {
	m := in.hosts[i]
	return int(m&1 + m>>1&1 + m>>2&1)
}

// naCount is how many NAs key i carries: 90 % of keys one, 10 % three
// (multi-homed). It depends on the key alone so an entry's size never
// changes across versions.
func (in *inputs) naCount(i int) int {
	if mix64(uint64(in.seed)^uint64(i)*0x9e3779b97f4a7c15)%10 == 0 {
		return 3
	}
	return 1
}

// naFor is f(key, version): the j-th NA of key i at version v. Every
// reply is checked against it, so a reply carrying another key's or
// another version's locator is caught.
func (in *inputs) naFor(i int, v uint64, j int) store.NA {
	h := mix64(mix64(uint64(in.seed)^uint64(i)) ^ (v<<2 | uint64(j)))
	return store.NA{AS: int(h % numASFullDF), Addr: netaddr.Addr(h >> 32)}
}

// fillEntry writes key i at version v into e, reusing e.NAs.
func (in *inputs) fillEntry(e *store.Entry, i int, v uint64) {
	e.GUID = in.keys[i]
	e.Version = v
	e.Meta = 0
	e.NAs = e.NAs[:0]
	for j, n := 0, in.naCount(i); j < n; j++ {
		e.NAs = append(e.NAs, in.naFor(i, v, j))
	}
}

// checkEntry verifies a reply for key i: the GUID, a version no older
// than floor, and NAs equal to f(key, reply version).
func (in *inputs) checkEntry(e *store.Entry, i int, floor uint64) bool {
	if e.GUID != in.keys[i] || e.Version < floor || len(e.NAs) != in.naCount(i) {
		return false
	}
	for j, na := range e.NAs {
		if na != in.naFor(i, e.Version, j) {
			return false
		}
	}
	return true
}

// newZipf returns a Zipf(s=1.1) rank generator over [0, n): rank r is
// key r, and the keys themselves are already uniformly random GUIDs.
func newZipf(rng *rand.Rand, n int) *rand.Zipf {
	return rand.NewZipf(rng, 1.1, 1, uint64(n-1))
}
