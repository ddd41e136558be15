// Package dht implements the comparison points the paper positions DMap
// against (§II-B, §VI):
//
//   - Chord: a classic multi-hop DHT over the same AS population. Lookups
//     take O(log N) overlay hops, each a real inter-AS traversal — the
//     latency/maintenance trade-off of DHT-MAP-style schemes ("up to 8
//     logical hops … about 900 ms").
//   - OneHop: a full-membership one-hop DHT (D1HT [17] / Gupta et al.
//     [18]): single-hop lookups like DMap, but every node must track every
//     membership change — the table-maintenance overhead DMap avoids by
//     reusing BGP state.
//   - HomeAgent: MobileIP-style resolution at a fixed home AS regardless
//     of requester locality, with no replication to exploit.
//
// All three produce lookup paths over AS indices; experiments turn paths
// into latencies with the shared topology.
package dht

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"sort"

	"dmap/internal/guid"
)

// hashToRing maps an arbitrary byte string to a point on the 64-bit ring.
func hashToRing(b []byte) uint64 {
	sum := sha256.Sum256(b)
	return binary.BigEndian.Uint64(sum[:8])
}

// Chord is a Chord ring over a dense AS index space with full finger
// tables. It is immutable after construction.
type Chord struct {
	// ids[i] is the ring position of ring rank i; asOf[i] the AS there.
	ids  []uint64
	asOf []int
	// rankOf[as] is the ring rank of an AS.
	rankOf []int
	// fingers[rank][k] is the ring rank of successor(ids[rank] + 2^k).
	fingers [][]int
	// maxHops guards against routing loops.
	maxHops int
}

// NewChord builds a ring over numAS nodes. salt perturbs node placement.
func NewChord(numAS int, salt uint64) (*Chord, error) {
	if numAS < 2 {
		return nil, fmt.Errorf("dht: Chord needs at least 2 nodes, got %d", numAS)
	}
	type pair struct {
		id uint64
		as int
	}
	pairs := make([]pair, numAS)
	var buf [16]byte
	binary.BigEndian.PutUint64(buf[:8], salt)
	for as := 0; as < numAS; as++ {
		binary.BigEndian.PutUint64(buf[8:], uint64(as))
		pairs[as] = pair{id: hashToRing(buf[:]), as: as}
	}
	sort.Slice(pairs, func(i, j int) bool { return pairs[i].id < pairs[j].id })

	c := &Chord{
		ids:     make([]uint64, numAS),
		asOf:    make([]int, numAS),
		rankOf:  make([]int, numAS),
		maxHops: 4 * 64,
	}
	for rank, p := range pairs {
		c.ids[rank] = p.id
		c.asOf[rank] = p.as
		c.rankOf[p.as] = rank
	}
	c.fingers = make([][]int, numAS)
	for rank := 0; rank < numAS; rank++ {
		f := make([]int, 64)
		for k := 0; k < 64; k++ {
			f[k] = c.successorRank(c.ids[rank] + (uint64(1) << k))
		}
		c.fingers[rank] = f
	}
	return c, nil
}

// successorRank returns the rank of the first node at or after point
// (with wraparound).
func (c *Chord) successorRank(point uint64) int {
	i := sort.Search(len(c.ids), func(i int) bool { return c.ids[i] >= point })
	if i == len(c.ids) {
		return 0
	}
	return i
}

// Place returns the AS responsible for g (the successor of its ring
// point).
func (c *Chord) Place(g guid.GUID) int {
	return c.asOf[c.successorRank(hashToRing(g[:]))]
}

// inOpen reports whether x ∈ (a, b) on the ring.
func inOpen(x, a, b uint64) bool {
	if a < b {
		return x > a && x < b
	}
	return x > a || x < b // wrapped interval
}

// LookupPath returns the overlay route a Chord lookup takes from srcAS to
// the AS responsible for g, inclusive of both endpoints. The recursive
// query visits every AS on the path; the reply returns directly.
func (c *Chord) LookupPath(srcAS int, g guid.GUID) ([]int, error) {
	if srcAS < 0 || srcAS >= len(c.rankOf) {
		return nil, fmt.Errorf("dht: srcAS %d out of range", srcAS)
	}
	target := hashToRing(g[:])
	cur := c.rankOf[srcAS]
	path := []int{srcAS}
	for hop := 0; ; hop++ {
		if hop > c.maxHops {
			return nil, fmt.Errorf("dht: routing loop from AS %d", srcAS)
		}
		succ := (cur + 1) % len(c.ids)
		// Done when target ∈ (cur, successor]: the successor owns it.
		if target == c.ids[succ] || inOpen(target, c.ids[cur], c.ids[succ]) || c.ids[cur] == target {
			if c.ids[cur] == target {
				return path, nil
			}
			path = append(path, c.asOf[succ])
			return path, nil
		}
		// Closest preceding finger strictly inside (cur, target).
		next := succ
		for k := 63; k >= 0; k-- {
			f := c.fingers[cur][k]
			if f != cur && inOpen(c.ids[f], c.ids[cur], target) {
				next = f
				break
			}
		}
		cur = next
		path = append(path, c.asOf[cur])
	}
}

// NumNodes returns the ring size.
func (c *Chord) NumNodes() int { return len(c.ids) }

// OneHop is a full-membership one-hop DHT: every node knows the whole
// ring, so lookups go directly to the responsible node. The price is
// maintenance: every join/leave must reach every node.
type OneHop struct {
	ring *Chord
}

// NewOneHop builds a one-hop DHT over numAS nodes.
func NewOneHop(numAS int, salt uint64) (*OneHop, error) {
	ring, err := NewChord(numAS, salt)
	if err != nil {
		return nil, err
	}
	return &OneHop{ring: ring}, nil
}

// Place returns the AS responsible for g.
func (o *OneHop) Place(g guid.GUID) int { return o.ring.Place(g) }

// LookupPath is always src → owner.
func (o *OneHop) LookupPath(srcAS int, g guid.GUID) ([]int, error) {
	if srcAS < 0 || srcAS >= o.ring.NumNodes() {
		return nil, fmt.Errorf("dht: srcAS %d out of range", srcAS)
	}
	owner := o.Place(g)
	if owner == srcAS {
		return []int{srcAS}, nil
	}
	return []int{srcAS, owner}, nil
}

// HomeAgent resolves every GUID at its fixed home AS, like MobileIP. The
// home never moves even when the host does — exactly the indirection cost
// the identifier/locator split removes.
type HomeAgent struct {
	homes map[guid.GUID]int
}

// NewHomeAgent returns an empty registry.
func NewHomeAgent() *HomeAgent {
	return &HomeAgent{homes: make(map[guid.GUID]int)}
}

// Register fixes g's home AS (first attachment). Re-registration is
// ignored: homes are permanent.
func (h *HomeAgent) Register(g guid.GUID, homeAS int) {
	if _, ok := h.homes[g]; !ok {
		h.homes[g] = homeAS
	}
}

// LookupPath is src → home → src; unknown GUIDs fail.
func (h *HomeAgent) LookupPath(srcAS int, g guid.GUID) ([]int, error) {
	home, ok := h.homes[g]
	if !ok {
		return nil, fmt.Errorf("dht: GUID %s has no home agent", g.Short())
	}
	if home == srcAS {
		return []int{srcAS}, nil
	}
	return []int{srcAS, home}, nil
}
