// Package guid implements DMap's flat, location-independent Globally
// Unique Identifiers (GUIDs) and the family of K independent consistent
// hash functions that map a GUID into the network address space.
//
// A GUID is a 160-bit opaque bit string (e.g. a public-key hash): long
// enough that collisions are infinitesimally unlikely, and deliberately
// free of any aggregatable structure. Every network-attached object — a
// phone, a laptop, a piece of content, a service — carries one.
package guid

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
)

// Size is the GUID length in bytes (160 bits, per §IV-A of the paper).
const Size = 20

// GUID is a flat 160-bit globally unique identifier.
type GUID [Size]byte

// New derives a GUID from an arbitrary name, mimicking self-certifying
// identifiers: the GUID is the (truncated) SHA-256 of the name, so the
// binding between name and identifier is verifiable by anyone.
func New(name string) GUID {
	sum := sha256.Sum256([]byte(name))
	var g GUID
	copy(g[:], sum[:Size])
	return g
}

// FromUint64 builds a GUID whose low 8 bytes hold v. It is a convenience
// for simulations that enumerate GUIDs densely; the hash family below
// diffuses the bits, so dense inputs still spread uniformly.
func FromUint64(v uint64) GUID {
	var g GUID
	binary.BigEndian.PutUint64(g[Size-8:], v)
	return g
}

// Verify reports whether g is the self-certifying GUID for name, i.e.
// whether New(name) == g. Flat self-certifying identifiers allow "direct
// verification of the binding between the name and an associated object"
// (§I) without consulting any authority.
func Verify(name string, g GUID) bool {
	return New(name) == g
}

// String returns the lowercase hexadecimal form of g.
func (g GUID) String() string { return hex.EncodeToString(g[:]) }

// Short returns an abbreviated display form (first 8 hex chars).
func (g GUID) Short() string { return hex.EncodeToString(g[:4]) }

// IsZero reports whether g is the all-zero GUID. It ORs two 8-byte
// words and one 4-byte word: a 20-byte == compiles to a call into the
// runtime's memequal, several times the cost, and Entry.Validate asks
// this of every GUID in every batch frame.
func (g GUID) IsZero() bool {
	return binary.LittleEndian.Uint64(g[0:8])|binary.LittleEndian.Uint64(g[8:16])|
		uint64(binary.LittleEndian.Uint32(g[16:20])) == 0
}

// Compare orders GUIDs lexicographically — the global keyspace order
// the store's deterministic dumps and the anti-entropy range cursors
// are defined over. It returns -1, 0 or +1.
func Compare(a, b GUID) int { return bytes.Compare(a[:], b[:]) }

// Max returns the largest GUID in keyspace order (all bits set), the
// inclusive upper bound of a full-keyspace range scan.
func Max() GUID {
	var g GUID
	for i := range g {
		g[i] = 0xff
	}
	return g
}

// Hasher is the predefined consistent hash family shared by all routers
// participating in DMap (§III-A: "important DMap parameters, such as which
// hash functions to use and the value of K, will be agreed and distributed
// beforehand among the Internet routers").
//
// The i-th function of the family is
//
//	h_i(g) = big-endian 32-bit word i mod 8 of SHA-256(salt ‖ be32(i / 8) ‖ g)
//
// so one digest yields the first addresses of eight replicas — all of
// them for the paper's K = 5 — and a smaller K's family is a prefix of a
// larger one's. Rehashing for hole handling (Algorithm 1) is
//
//	Rehash(x, i) = mix32(x ⊕ key_i)
//
// with mix32 a bijective multiply-xorshift finaliser and key_i a
// per-replica word derived from the salt: the chain's input is 32 bits,
// the only question it answers is whether the next candidate lands in
// announced space, and a bijection cannot merge two chains. The family
// is a flag-day parameter — changing it moves every stored mapping's
// home.
type Hasher struct {
	k     int
	salt  [8]byte
	rekey []uint32 // per-replica Rehash key
}

// The digests' domain word: a block index for the first-hash family,
// with one of these bits set for everything else.
const (
	rekeyDomain = 0x40000000
	rangeDomain = 0x80000000
)

// NewHasher returns a hash family with k replica functions. The salt lets
// deployments (and tests) derive disjoint families; the zero salt is the
// global default. k must be at least 1.
func NewHasher(k int, salt uint64) (*Hasher, error) {
	if k < 1 {
		return nil, fmt.Errorf("guid: replication factor K must be >= 1, got %d", k)
	}
	h := &Hasher{k: k}
	binary.BigEndian.PutUint64(h.salt[:], salt)
	h.rekey = h.appendWords(make([]uint32, 0, k), rekeyDomain, GUID{})
	return h, nil
}

// MustHasher is NewHasher for statically valid arguments; it panics on
// error and is intended for tests and examples.
func MustHasher(k int, salt uint64) *Hasher {
	h, err := NewHasher(k, salt)
	if err != nil {
		panic(err)
	}
	return h
}

// K returns the number of replica hash functions in the family.
func (h *Hasher) K() int { return h.k }

// digest is SHA-256(salt ‖ be32(domain) ‖ g).
func (h *Hasher) digest(domain uint32, g GUID) [sha256.Size]byte {
	var buf [8 + 4 + Size]byte
	copy(buf[:8], h.salt[:])
	binary.BigEndian.PutUint32(buf[8:12], domain)
	copy(buf[12:], g[:])
	return sha256.Sum256(buf[:])
}

// appendWords appends K words to dst, word i being word i mod 8 of the
// digest for domain|i/8.
func (h *Hasher) appendWords(dst []uint32, domain uint32, g GUID) []uint32 {
	for i := 0; i < h.k; i += 8 {
		sum := h.digest(domain|uint32(i/8), g)
		for j := 0; j < 8 && i+j < h.k; j++ {
			dst = append(dst, binary.BigEndian.Uint32(sum[4*j:]))
		}
	}
	return dst
}

// Hash returns h_replica(g) as a 32-bit value in the network address
// space. replica must be in [0, K).
func (h *Hasher) Hash(g GUID, replica int) uint32 {
	if replica < 0 || replica >= h.k {
		panic(fmt.Sprintf("guid: replica index %d out of range [0,%d)", replica, h.k))
	}
	sum := h.digest(uint32(replica/8), g)
	return binary.BigEndian.Uint32(sum[4*(replica%8):])
}

// AppendAll appends all K hashed addresses for g to dst, in replica
// order, from one digest per eight replicas.
func (h *Hasher) AppendAll(dst []uint32, g GUID) []uint32 {
	return h.appendWords(dst, 0, g)
}

// Rehash is the re-hash step of Algorithm 1: when a hashed address falls
// into an IP hole, the 32-bit value itself is hashed again, keyed on the
// replica index so replicas stay independent. replica must be in [0, K).
func (h *Hasher) Rehash(prev uint32, replica int) uint32 {
	x := prev ^ h.rekey[replica]
	x ^= x >> 16
	x *= 0x7feb352d
	x ^= x >> 15
	x *= 0x846ca68b
	x ^= x >> 16
	return x
}

// HashToRange maps h_replica(g) uniformly onto [0, n), used by the
// hash-to-AS-number variant of DMap (§VII future work). n must be
// positive.
func (h *Hasher) HashToRange(g GUID, replica int, n int) int {
	if n <= 0 {
		panic(fmt.Sprintf("guid: HashToRange n must be positive, got %d", n))
	}
	// Use 64 bits of the digest to keep modulo bias negligible.
	sum := h.digest(uint32(replica)|rangeDomain, g)
	return int(binary.BigEndian.Uint64(sum[:8]) % uint64(n))
}
