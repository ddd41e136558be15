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

// FromBytes builds a GUID from exactly Size bytes.
func FromBytes(b []byte) (GUID, error) {
	var g GUID
	if len(b) != Size {
		return g, fmt.Errorf("guid: want %d bytes, got %d", Size, len(b))
	}
	copy(g[:], b)
	return g, nil
}

// Parse decodes a 40-character hexadecimal GUID string.
func Parse(s string) (GUID, error) {
	var g GUID
	if hex.DecodedLen(len(s)) != Size {
		return g, fmt.Errorf("guid: want %d hex chars, got %d", hex.EncodedLen(Size), len(s))
	}
	if _, err := hex.Decode(g[:], []byte(s)); err != nil {
		return g, fmt.Errorf("guid: parse %q: %w", s, err)
	}
	return g, nil
}

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

// IsZero reports whether g is the all-zero GUID.
func (g GUID) IsZero() bool { return g == GUID{} }

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
//	h_i(g) = first 32 bits of SHA-256(salt ‖ i ‖ g)
//
// Domain-separating on the replica index i makes the K functions
// independent while keeping every router's view identical. Rehashing for
// hole handling (Algorithm 1) feeds the previous 32-bit value back through
// the same function via Rehash.
type Hasher struct {
	k    int
	salt [8]byte
}

// DefaultK is the replication factor used in the paper's evaluation.
const DefaultK = 5

// NewHasher returns a hash family with k replica functions. The salt lets
// deployments (and tests) derive disjoint families; the zero salt is the
// global default. k must be at least 1.
func NewHasher(k int, salt uint64) (*Hasher, error) {
	if k < 1 {
		return nil, fmt.Errorf("guid: replication factor K must be >= 1, got %d", k)
	}
	h := &Hasher{k: k}
	binary.BigEndian.PutUint64(h.salt[:], salt)
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

// Hash returns h_replica(g) as a 32-bit value in the network address
// space. replica must be in [0, K).
func (h *Hasher) Hash(g GUID, replica int) uint32 {
	if replica < 0 || replica >= h.k {
		panic(fmt.Sprintf("guid: replica index %d out of range [0,%d)", replica, h.k))
	}
	var buf [8 + 4 + Size]byte
	copy(buf[:8], h.salt[:])
	binary.BigEndian.PutUint32(buf[8:12], uint32(replica))
	copy(buf[12:], g[:])
	sum := sha256.Sum256(buf[:])
	return binary.BigEndian.Uint32(sum[:4])
}

// HashAll returns all K hashed addresses for g, in replica order.
func (h *Hasher) HashAll(g GUID) []uint32 {
	out := make([]uint32, h.k)
	for i := range out {
		out[i] = h.Hash(g, i)
	}
	return out
}

// Rehash is the re-hash step of Algorithm 1: when a hashed address falls
// into an IP hole, the 32-bit value itself is hashed again (still
// domain-separated on the replica index so replicas stay independent).
func (h *Hasher) Rehash(prev uint32, replica int) uint32 {
	var buf [8 + 4 + 4]byte
	copy(buf[:8], h.salt[:])
	binary.BigEndian.PutUint32(buf[8:12], uint32(replica))
	binary.BigEndian.PutUint32(buf[12:], prev)
	sum := sha256.Sum256(buf[:])
	return binary.BigEndian.Uint32(sum[:4])
}

// HashToRange maps h_replica(g) uniformly onto [0, n), used by the
// hash-to-AS-number variant of DMap (§VII future work) and by the sparse
// bucketing scheme. n must be positive.
func (h *Hasher) HashToRange(g GUID, replica int, n int) int {
	if n <= 0 {
		panic(fmt.Sprintf("guid: HashToRange n must be positive, got %d", n))
	}
	// Use 64 bits of the digest to keep modulo bias negligible.
	var buf [8 + 4 + Size]byte
	copy(buf[:8], h.salt[:])
	binary.BigEndian.PutUint32(buf[8:12], uint32(replica)|0x80000000) // distinct domain
	copy(buf[12:], g[:])
	sum := sha256.Sum256(buf[:])
	return int(binary.BigEndian.Uint64(sum[:8]) % uint64(n))
}
