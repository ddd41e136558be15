package dht

import (
	"math"
	"testing"

	"dmap/internal/guid"
)

func TestNewChordValidation(t *testing.T) {
	if _, err := NewChord(1, 0); err == nil {
		t.Error("1 node should fail")
	}
	if _, err := NewChord(0, 0); err == nil {
		t.Error("0 nodes should fail")
	}
}

func TestChordPlaceDeterministicAndBalanced(t *testing.T) {
	c, err := NewChord(128, 1)
	if err != nil {
		t.Fatal(err)
	}
	counts := make(map[int]int)
	for i := 0; i < 20000; i++ {
		g := guid.FromUint64(uint64(i))
		as := c.Place(g)
		if as != c.Place(g) {
			t.Fatal("Place not deterministic")
		}
		if as < 0 || as >= 128 {
			t.Fatalf("AS %d out of range", as)
		}
		counts[as]++
	}
	// Single-token consistent hashing is uneven but every node should be
	// hit with 128 nodes and 20k draws is not guaranteed — check bulk.
	if len(counts) < 100 {
		t.Errorf("only %d/128 nodes received keys", len(counts))
	}
}

func TestChordLookupPathReachesOwner(t *testing.T) {
	c, err := NewChord(500, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 500; i++ {
		g := guid.FromUint64(uint64(i))
		src := i % 500
		path, err := c.LookupPath(src, g)
		if err != nil {
			t.Fatal(err)
		}
		if path[0] != src {
			t.Fatalf("path starts at %d, want %d", path[0], src)
		}
		if path[len(path)-1] != c.Place(g) {
			t.Fatalf("path ends at %d, owner is %d", path[len(path)-1], c.Place(g))
		}
	}
}

func TestChordLookupLogarithmicHops(t *testing.T) {
	c, err := NewChord(4096, 3)
	if err != nil {
		t.Fatal(err)
	}
	maxHops, totalHops, n := 0, 0, 0
	for i := 0; i < 2000; i++ {
		path, err := c.LookupPath(i%4096, guid.FromUint64(uint64(i)))
		if err != nil {
			t.Fatal(err)
		}
		hops := len(path) - 1
		totalHops += hops
		n++
		if hops > maxHops {
			maxHops = hops
		}
	}
	logN := math.Log2(4096)
	avg := float64(totalHops) / float64(n)
	// Chord averages ≈ ½·log2(N) hops; allow generous slack.
	if avg < logN/4 || avg > logN {
		t.Errorf("average hops = %.2f, want ≈ %.2f/2", avg, logN)
	}
	if maxHops > 2*int(logN)+4 {
		t.Errorf("max hops = %d, want O(log N) = %d", maxHops, int(logN))
	}
}

func TestChordSrcValidation(t *testing.T) {
	c, _ := NewChord(10, 0)
	if _, err := c.LookupPath(-1, guid.New("g")); err == nil {
		t.Error("negative src should fail")
	}
	if _, err := c.LookupPath(10, guid.New("g")); err == nil {
		t.Error("out-of-range src should fail")
	}
}

func TestOneHop(t *testing.T) {
	o, err := NewOneHop(100, 5)
	if err != nil {
		t.Fatal(err)
	}
	g := guid.New("content")
	owner := o.Place(g)
	path, err := o.LookupPath(3, g)
	if err != nil {
		t.Fatal(err)
	}
	if len(path) > 2 {
		t.Fatalf("one-hop path has %d nodes", len(path))
	}
	if path[len(path)-1] != owner {
		t.Errorf("path ends at %d, owner %d", path[len(path)-1], owner)
	}
	// Lookup from the owner itself is 0 hops.
	self, err := o.LookupPath(owner, g)
	if err != nil {
		t.Fatal(err)
	}
	if len(self) != 1 {
		t.Errorf("self lookup path = %v", self)
	}
	if _, err := o.LookupPath(-1, g); err == nil {
		t.Error("bad src should fail")
	}
}

func TestHomeAgent(t *testing.T) {
	h := NewHomeAgent()
	g := guid.New("mobile")
	if _, err := h.LookupPath(0, g); err == nil {
		t.Error("unregistered GUID should fail")
	}
	h.Register(g, 7)
	h.Register(g, 9) // homes are permanent; ignored
	path, err := h.LookupPath(3, g)
	if err != nil {
		t.Fatal(err)
	}
	if len(path) != 2 || path[1] != 7 {
		t.Errorf("path = %v, want [3 7]", path)
	}
	self, err := h.LookupPath(7, g)
	if err != nil {
		t.Fatal(err)
	}
	if len(self) != 1 {
		t.Errorf("home-local path = %v", self)
	}
}
