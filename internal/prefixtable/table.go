// Package prefixtable implements the BGP default-free-zone (DFZ) prefix
// table that DMap piggybacks on: a binary trie mapping announced IPv4
// prefixes to the autonomous systems that announce them, with a flat
// 16-8-8 index derived from it so longest-prefix matching is at most
// three array loads (DESIGN.md §4).
//
// Beyond ordinary LPM it provides the two operations DMap's hole-handling
// protocol (Algorithm 1, §III-B of the paper) needs:
//
//   - Lookup: does any AS announce this hashed address?
//   - Nearest: which announced prefix minimizes the IP (XOR) distance to
//     this address? — the "deputy AS" fallback after M failed rehashes.
//
// It also supports announce/withdraw churn (§III-D1) and the storage
// accounting (per-AS announced share) behind the Normalized Load Ratio
// metric of §IV-B2c.
//
// Throughout this package an AS is identified by a dense index in
// [0, NumAS); the same index space is used by internal/topology.
package prefixtable

import (
	"fmt"
	"math/bits"

	"dmap/internal/netaddr"
)

// Entry is one announced prefix and its announcing AS.
type Entry struct {
	Prefix netaddr.Prefix
	AS     int
}

const nilRef = int32(-1)

type node struct {
	child [2]int32 // trie children; nilRef if absent
	entry int32    // index into entries; nilRef if no announcement ends here
}

// chunkFlag marks an index slot that points at a chunk instead of
// resolving to an entry.
const chunkFlag = uint32(1) << 31

// chunk is one 256-slot level of the flat index: the next 8 address bits
// below a /16 (level 2) or a /24 (level 3).
type chunk [256]uint32

// Table is a binary-trie prefix table with a flat longest-prefix-match
// index beside it. The trie is the source of truth; Announce and Withdraw
// keep the index equal to it, and Lookup reads the index alone and writes
// nothing. The zero value is not usable; call New. Table is not safe for
// concurrent mutation; wrap it (as internal/server does) when sharing
// across goroutines.
type Table struct {
	nodes     []node
	entries   []Entry
	freeNodes []int32
	freeEnts  []int32
	count     int

	// The index is leaf-pushed: a slot is 0 (hole), entry index+1 (the
	// longest announced prefix covering the slot's whole range) or
	// chunkFlag|chunk index (something longer than the slot's own length
	// is announced below it). root is indexed by the top 16 address bits,
	// a chunk by the next 8. A chunk exists exactly while the trie node at
	// its depth (16 or 24) has children.
	root       []uint32 // 1<<16 slots
	chunks     []chunk
	freeChunks []uint32

	// The cursor: the trie path Announce last descended, so that the next
	// descent starts at the deepest node the two prefixes share instead of
	// at the root. path[d] is the node at depth d on last's path and
	// cover[d] the index slot value of the longest prefix announced above
	// it (at a depth < d), for d ≤ lastBits. Announce only ever adds an
	// entry at the end of its own path, which changes no cover[d] with
	// d ≤ lastBits; Withdraw, which removes entries and frees nodes, takes
	// the cursor back to the root. The zero cursor is the root.
	last     netaddr.Addr
	lastBits int
	path     [33]int32
	cover    [33]uint32
}

// New returns an empty table.
func New() *Table {
	t := &Table{root: make([]uint32, 1<<16)}
	t.nodes = append(t.nodes, node{child: [2]int32{nilRef, nilRef}, entry: nilRef}) // root
	return t
}

// Len returns the number of announced prefixes.
func (t *Table) Len() int { return t.count }

func (t *Table) newNode() int32 {
	if n := len(t.freeNodes); n > 0 {
		idx := t.freeNodes[n-1]
		t.freeNodes = t.freeNodes[:n-1]
		t.nodes[idx] = node{child: [2]int32{nilRef, nilRef}, entry: nilRef}
		return idx
	}
	t.nodes = append(t.nodes, node{child: [2]int32{nilRef, nilRef}, entry: nilRef})
	return int32(len(t.nodes) - 1)
}

func (t *Table) newEntry(e Entry) int32 {
	if n := len(t.freeEnts); n > 0 {
		idx := t.freeEnts[n-1]
		t.freeEnts = t.freeEnts[:n-1]
		t.entries[idx] = e
		return idx
	}
	t.entries = append(t.entries, e)
	return int32(len(t.entries) - 1)
}

// bitAt returns bit number (31-depth) of a: the bit consumed at the given
// trie depth, most-significant first.
func bitAt(a netaddr.Addr, depth int) int {
	return int(a>>(31-depth)) & 1
}

// Announce inserts (or re-announces, overwriting the origin AS of) the
// given prefix. as must be a non-negative AS index.
//
// Two shapes cost little: a re-announcement the index resolves (p's
// first address maps to p itself) is one index read and one store, and
// a run of prefixes in ascending address order, as Generate emits, walks
// only the few trie levels below where each one leaves the last.
func (t *Table) Announce(p netaddr.Prefix, as int) error {
	if as < 0 {
		return fmt.Errorf("prefixtable: announce %v: negative AS index %d", p, as)
	}
	a, plen := p.Addr(), p.Bits()
	if s := t.resolve(a); s != 0 && t.entries[s-1].Prefix == p {
		// Re-announcement: origin change. Index slots hold entry indices,
		// not ASs, so none of them changes.
		t.entries[s-1].AS = as
		return nil
	}
	// Resume the descent at the deepest node p shares with the cursor.
	depth := min(plen, t.lastBits, bits.LeadingZeros32(uint32(a^t.last)))
	cur := t.path[depth]
	cover := t.cover[depth] // index slot value of the longest shorter prefix covering p
	for ; depth < plen; depth++ {
		n := &t.nodes[cur]
		if n.entry != nilRef {
			cover = uint32(n.entry) + 1
		}
		b := bitAt(a, depth)
		next := n.child[b]
		if next == nilRef {
			next = t.newNode() // may move t.nodes: index again
			t.nodes[cur].child[b] = next
		}
		cur = next
		t.path[depth+1], t.cover[depth+1] = cur, cover
	}
	t.last, t.lastBits = a, plen
	if e := t.nodes[cur].entry; e != nilRef {
		// A re-announcement whose first address a more-specific owns.
		t.entries[e].AS = as
		return nil
	}
	e := t.newEntry(Entry{Prefix: p, AS: as})
	t.nodes[cur].entry = e
	t.count++
	// Every slot under p that still resolves to a shorter prefix resolves
	// to cover (shorter prefixes covering any part of p cover all of it,
	// and cover is the longest): those now belong to p. Slots holding
	// anything else hold a more-specific and stay.
	t.paint(t.slotsFor(p), cover, uint32(e)+1)
	return nil
}

// slotsFor returns the index level whose slots p is painted into — root
// for lengths ≤ 16, a level-2 chunk for 17–24, a level-3 chunk for 25–32 —
// and the run of it that p covers. Leaf slots on the way down become
// chunks; under an announced prefix they already are.
func (t *Table) slotsFor(p netaddr.Prefix) []uint32 {
	a, bits := uint32(p.Addr()), p.Bits()
	if bits <= 16 {
		return t.root[a>>16:][:1<<(16-bits)]
	}
	s := t.root[a>>16]
	if s&chunkFlag == 0 {
		s = t.newChunk(s)
		t.root[a>>16] = s
	}
	c := s &^ chunkFlag
	if bits <= 24 {
		return t.chunks[c][a>>8&0xff:][:1<<(24-bits)]
	}
	s = t.chunks[c][a>>8&0xff]
	if s&chunkFlag == 0 {
		s = t.newChunk(s) // may move t.chunks: index again
		t.chunks[c][a>>8&0xff] = s
	}
	return t.chunks[s&^chunkFlag][a&0xff:][:1<<(32-bits)]
}

// newChunk returns the slot value of a chunk that resolves everywhere to
// fill, the value of the leaf slot it is about to replace.
func (t *Table) newChunk(fill uint32) uint32 {
	var c uint32
	if n := len(t.freeChunks); n > 0 {
		c = t.freeChunks[n-1]
		t.freeChunks = t.freeChunks[:n-1]
	} else {
		t.chunks = append(t.chunks, chunk{})
		c = uint32(len(t.chunks) - 1)
	}
	for i := range t.chunks[c] {
		t.chunks[c][i] = fill
	}
	return chunkFlag | c
}

// collapse replaces the chunk *slot points at, whose slots all hold one
// leaf value again, with that value.
func (t *Table) collapse(slot *uint32) {
	c := *slot &^ chunkFlag
	*slot = t.chunks[c][0]
	t.freeChunks = append(t.freeChunks, c)
}

// paint rewrites every slot in the run, and in the chunks below it, that
// holds from to hold to.
func (t *Table) paint(slots []uint32, from, to uint32) {
	for i, s := range slots {
		if s == from {
			slots[i] = to
		} else if s&chunkFlag != 0 {
			t.paint(t.chunks[s&^chunkFlag][:], from, to)
		}
	}
}

// Withdraw removes the exact prefix p, pruning now-empty trie branches.
// It reports whether the prefix was announced.
func (t *Table) Withdraw(p netaddr.Prefix) bool {
	var path [33]int32
	cover := uint32(0) // as in Announce
	cur := int32(0)
	path[0] = cur
	for depth := 0; depth < p.Bits(); depth++ {
		n := &t.nodes[cur]
		if n.entry != nilRef {
			cover = uint32(n.entry) + 1
		}
		next := n.child[bitAt(p.Addr(), depth)]
		if next == nilRef {
			return false
		}
		cur = next
		path[depth+1] = cur
	}
	e := t.nodes[cur].entry
	if e == nilRef {
		return false
	}
	t.lastBits = 0 // entries go and nodes are freed below the root
	// The slots that resolved to p fall back to the prefix covering it;
	// after this no slot holds e and its index may be reused.
	t.paint(t.slotsFor(p), uint32(e)+1, cover)
	t.freeEnts = append(t.freeEnts, e)
	t.nodes[cur].entry = nilRef
	t.count--
	// Prune childless, entryless nodes bottom-up (never the root).
	kept := p.Bits() // depth of the deepest path node that survives
	for ; kept > 0; kept-- {
		n := &t.nodes[path[kept]]
		if n.entry != nilRef || n.child[0] != nilRef || n.child[1] != nilRef {
			break
		}
		parent := &t.nodes[path[kept-1]]
		parent.child[bitAt(p.Addr(), kept-1)] = nilRef
		t.freeNodes = append(t.freeNodes, path[kept])
	}
	// A chunk whose trie node has no children left holds nothing longer
	// than its own depth: the repaint above left it uniform. Deepest first.
	a := uint32(p.Addr())
	if p.Bits() > 24 && !t.hasChildren(path[:kept+1], 24) {
		t.collapse(&t.chunks[t.root[a>>16]&^chunkFlag][a>>8&0xff])
	}
	if p.Bits() > 16 && !t.hasChildren(path[:kept+1], 16) {
		t.collapse(&t.root[a>>16])
	}
	return true
}

// hasChildren reports whether the node at depth on the surviving part of
// a withdrawn prefix's path still has a child.
func (t *Table) hasChildren(path []int32, depth int) bool {
	if depth >= len(path) {
		return false // pruned
	}
	n := &t.nodes[path[depth]]
	return n.child[0] != nilRef || n.child[1] != nilRef
}

// Lookup performs longest-prefix matching on a, returning the
// most-specific announced prefix containing it: at most three index loads
// and the entry itself.
func (t *Table) Lookup(a netaddr.Addr) (Entry, bool) {
	s := t.resolve(a)
	if s == 0 {
		return Entry{}, false
	}
	return t.entries[s-1], true
}

// resolve returns the leaf index slot a falls in: 0 in a hole, else the
// number of the longest announced prefix containing a, plus one.
func (t *Table) resolve(a netaddr.Addr) uint32 {
	s := t.root[a>>16]
	if s&chunkFlag != 0 {
		s = t.chunks[s&^chunkFlag][uint8(a>>8)]
		if s&chunkFlag != 0 {
			s = t.chunks[s&^chunkFlag][uint8(a)]
		}
	}
	return s
}

// Nearest returns the announced prefix with minimum IP distance to a (and
// the concrete address within it realizing that minimum), implementing the
// deputy-AS selection of Algorithm 1: "pick the deputy AS as the one that
// announces the IP address that has the minimum IP distance to the current
// hashed value". It returns ok=false only when the table is empty.
//
// Under the XOR metric the nearest prefix is found by walking a's bit
// path: every announced prefix on the path contains a (distance 0, equal
// to what Lookup finds); otherwise the subtree diverging from the path at
// the deepest possible bit dominates all shallower divergences, and within
// a subtree a greedy bit-matching descent finds the minimum.
func (t *Table) Nearest(a netaddr.Addr) (Entry, netaddr.Addr, bool) {
	if t.count == 0 {
		return Entry{}, 0, false
	}
	if e, ok := t.Lookup(a); ok {
		return e, e.Prefix.ClosestAddr(a), true
	}
	// No prefix on a's path. Record the path, then take the deepest
	// divergence whose sibling subtree is non-empty.
	var path [33]int32
	depthMax := 0
	cur := int32(0)
	path[0] = cur
	for depth := 0; depth < 32; depth++ {
		next := t.nodes[cur].child[bitAt(a, depth)]
		if next == nilRef {
			break
		}
		cur = next
		depthMax = depth + 1
		path[depthMax] = cur
	}
	for depth := depthMax; depth >= 0; depth-- {
		// Nodes on the path never carry entries here (Lookup failed), so
		// the candidate is the sibling of a's bit at this depth. Depth 32
		// nodes have no children (bits exhausted).
		if depth == 32 {
			continue
		}
		other := t.nodes[path[depth]].child[1-bitAt(a, depth)]
		if other == nilRef {
			continue
		}
		e := t.greedyNearest(other, depth+1, a)
		return e, e.Prefix.ClosestAddr(a), true
	}
	// Unreachable when count > 0: the root subtree holds some entry.
	return Entry{}, 0, false
}

// greedyNearest returns the minimum-XOR-distance entry within the subtree
// rooted at idx, which sits at the given trie depth. An entry stored at a
// node dominates every entry below it (descendants share its prefix bits
// and add non-negative lower-order distance), and the child matching a's
// next bit dominates its sibling (the sibling costs 2^(31-depth), more
// than everything below the match combined).
func (t *Table) greedyNearest(idx int32, depth int, a netaddr.Addr) Entry {
	for {
		n := t.nodes[idx]
		if n.entry != nilRef {
			return t.entries[n.entry]
		}
		b := bitAt(a, depth)
		switch {
		case n.child[b] != nilRef:
			idx = n.child[b]
		case n.child[1-b] != nilRef:
			idx = n.child[1-b]
		default:
			// Childless, entryless nodes are pruned on Withdraw, so this
			// branch is unreachable; fail loudly if the invariant breaks.
			panic("prefixtable: dead trie node reached in greedyNearest")
		}
		depth++
	}
}

// Entries returns all announced prefixes in trie pre-order: a prefix
// before its more-specifics, and otherwise by ascending address (for
// non-overlapping prefixes, plain address order). The order depends only
// on which prefixes are announced, not on the order they were announced
// in. The result is freshly allocated.
func (t *Table) Entries() []Entry {
	out := make([]Entry, 0, t.count)
	// Depth-first, the 0 child before the 1 child. The stack holds the
	// 1 children still to visit: at most one per level.
	var stack [33]int32
	sp := 0
	for idx := int32(0); ; {
		n := &t.nodes[idx]
		if n.entry != nilRef {
			out = append(out, t.entries[n.entry])
		}
		switch {
		case n.child[0] != nilRef:
			if n.child[1] != nilRef {
				stack[sp] = n.child[1]
				sp++
			}
			idx = n.child[0]
		case n.child[1] != nilRef:
			idx = n.child[1]
		case sp > 0:
			sp--
			idx = stack[sp]
		default:
			return out
		}
	}
}

// AnnouncedFraction returns the share of the 2^32 address space covered by
// the union of all announced prefixes (overlaps counted once). The paper
// measures ≈52–55% for the real DFZ; 1 − AnnouncedFraction is the per-hash
// IP-hole probability of §III-B.
func (t *Table) AnnouncedFraction() float64 {
	return float64(t.coveredSize(0, 0)) / float64(uint64(1)<<32)
}

func (t *Table) coveredSize(idx int32, depth int) uint64 {
	n := t.nodes[idx]
	if n.entry != nilRef {
		return 1 << (32 - depth) // whole subtree covered regardless of children
	}
	var sum uint64
	for _, c := range n.child {
		if c != nilRef {
			sum += t.coveredSize(c, depth+1)
		}
	}
	return sum
}

// ShareByAS returns, for each AS index, the fraction of the total IPv4
// space it effectively owns under most-specific-wins semantics. This is
// the denominator of the Normalized Load Ratio in §IV-B2c.
func (t *Table) ShareByAS() map[int]float64 {
	owned := make(map[int]uint64)
	t.accumulateShare(0, 0, -1, owned)
	out := make(map[int]float64, len(owned))
	for as, size := range owned {
		out[as] = float64(size) / float64(uint64(1)<<32)
	}
	return out
}

// accumulateShare credits each address to the most specific announcing AS
// covering it: a node's block belongs to the inherited owner except for
// the parts re-owned by descendants.
func (t *Table) accumulateShare(idx int32, depth, owner int, owned map[int]uint64) {
	n := t.nodes[idx]
	if n.entry != nilRef {
		owner = t.entries[n.entry].AS
	}
	var childrenSize uint64
	for _, c := range n.child {
		if c != nilRef {
			t.accumulateShare(c, depth+1, owner, owned)
			childrenSize += 1 << (31 - depth)
		}
	}
	if owner >= 0 {
		owned[owner] += (1 << (32 - depth)) - childrenSize
	}
}
