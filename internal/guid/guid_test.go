package guid

import (
	"crypto/sha256"
	"encoding/binary"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"
)

func TestNewIsDeterministicAndDistinct(t *testing.T) {
	if New("x") != New("x") {
		t.Error("New must be deterministic")
	}
	if New("x") == New("y") {
		t.Error("distinct names must give distinct GUIDs")
	}
}

func TestIsZero(t *testing.T) {
	var g GUID
	if !g.IsZero() {
		t.Error("zero GUID should report IsZero")
	}
	if New("a").IsZero() {
		t.Error("derived GUID should not be zero")
	}
	// Every bit is read: one set bit anywhere makes the GUID non-zero.
	for i := 0; i < Size*8; i++ {
		var g GUID
		g[i/8] = 1 << (i % 8)
		if g.IsZero() {
			t.Errorf("GUID with only bit %d set reports IsZero", i)
		}
	}
}

// BenchmarkIsZero measures the check Entry.Validate makes of every GUID
// in a batch frame, reading the GUIDs from memory as a frame's are.
func BenchmarkIsZero(b *testing.B) {
	gs := make([]GUID, 1024)
	for i := range gs {
		gs[i] = FromUint64(uint64(i) + 1)
	}
	zero := 0
	for i := 0; i < b.N; i++ {
		if gs[i&(len(gs)-1)].IsZero() {
			zero++
		}
	}
	if zero != 0 {
		b.Fatal("non-zero GUID reported zero")
	}
}

func TestShort(t *testing.T) {
	g := New("thing")
	if len(g.Short()) != 8 {
		t.Errorf("Short() length = %d, want 8", len(g.Short()))
	}
	if !strings.HasPrefix(g.String(), g.Short()) {
		t.Error("Short() must be a prefix of String()")
	}
}

func TestNewHasherValidation(t *testing.T) {
	if _, err := NewHasher(0, 0); err == nil {
		t.Error("K=0 should fail")
	}
	if _, err := NewHasher(-3, 0); err == nil {
		t.Error("K<0 should fail")
	}
	h, err := NewHasher(5, 0)
	if err != nil {
		t.Fatal(err)
	}
	if h.K() != 5 {
		t.Errorf("K() = %d, want 5", h.K())
	}
}

func TestHashDeterministicAcrossInstances(t *testing.T) {
	// Every router must derive the same addresses from the same agreed
	// parameters — two independently constructed hashers must agree.
	h1 := MustHasher(5, 42)
	h2 := MustHasher(5, 42)
	g := New("phone-X")
	for i := 0; i < 5; i++ {
		if h1.Hash(g, i) != h2.Hash(g, i) {
			t.Fatalf("replica %d: hashers disagree", i)
		}
	}
}

func TestHashReplicasIndependent(t *testing.T) {
	h := MustHasher(5, 0)
	g := New("content-B")
	seen := make(map[uint32]int)
	for i := 0; i < 5; i++ {
		v := h.Hash(g, i)
		if prev, dup := seen[v]; dup {
			t.Errorf("replicas %d and %d collide on %#x", prev, i, v)
		}
		seen[v] = i
	}
}

func TestHashSaltSeparation(t *testing.T) {
	g := New("g")
	if MustHasher(1, 1).Hash(g, 0) == MustHasher(1, 2).Hash(g, 0) {
		t.Error("different salts should give different hashes")
	}
}

func TestHashAllMatchesHash(t *testing.T) {
	// Both sides of the eight-word digest boundary.
	g := FromUint64(123456)
	for _, k := range []int{1, 5, 8, 9, 12} {
		h := MustHasher(k, 7)
		all := h.AppendAll(nil, g)
		if len(all) != k {
			t.Fatalf("K=%d: AppendAll length = %d", k, len(all))
		}
		for i, v := range all {
			if v != h.Hash(g, i) {
				t.Errorf("K=%d: AppendAll[%d] = %#x, want %#x", k, i, v, h.Hash(g, i))
			}
		}
		if got := h.AppendAll(all[:1], g); len(got) != 1+k || got[0] != all[0] || got[1] != all[0] {
			t.Errorf("K=%d: AppendAll must extend dst, got %#x", k, got)
		}
	}
}

func TestSmallerFamilyIsAPrefix(t *testing.T) {
	g := New("laptop-A")
	two, twelve := MustHasher(2, 3), MustHasher(12, 3)
	other := MustHasher(12, 4).AppendAll(nil, g)
	for i, v := range twelve.AppendAll(nil, g) {
		if i < 2 && two.Hash(g, i) != v {
			t.Errorf("replica %d: K=2 gives %#x, K=12 gives %#x", i, two.Hash(g, i), v)
		}
		if v == other[i] {
			t.Errorf("replica %d: salts 3 and 4 agree on %#x", i, v)
		}
	}
}

func TestFirstHashPinned(t *testing.T) {
	// The one pinned vector: replica 0's first address is the leading
	// word of SHA-256(salt ‖ 0⁴ ‖ g). If this moves, every stored
	// mapping's home has moved.
	g := New("phone-X")
	const salt = 0x0102030405060708
	pre := append([]byte{1, 2, 3, 4, 5, 6, 7, 8, 0, 0, 0, 0}, g[:]...)
	sum := sha256.Sum256(pre)
	if got, want := MustHasher(5, salt).Hash(g, 0), binary.BigEndian.Uint32(sum[:4]); got != want {
		t.Errorf("Hash(g, 0) = %#x, want %#x", got, want)
	}
}

func TestHashPanicsOutOfRange(t *testing.T) {
	h := MustHasher(2, 0)
	for _, idx := range []int{-1, 2, 100} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Hash(replica=%d) should panic", idx)
				}
			}()
			h.Hash(GUID{}, idx)
		}()
	}
}

func TestHashUniformity(t *testing.T) {
	// Chi-square over 256 buckets of the top byte; dense sequential GUIDs
	// must still spread uniformly. 99.9th percentile of chi2(255) ≈ 341.
	h := MustHasher(1, 0)
	const n = 100000
	var buckets [256]int
	for i := 0; i < n; i++ {
		buckets[h.Hash(FromUint64(uint64(i)), 0)>>24]++
	}
	expected := float64(n) / 256
	var chi2 float64
	for _, c := range buckets {
		d := float64(c) - expected
		chi2 += d * d / expected
	}
	if chi2 > 341 {
		t.Errorf("chi-square = %.1f, want < 341 (not uniform)", chi2)
	}
}

func TestRehashChangesValueAndIsDeterministic(t *testing.T) {
	h := MustHasher(3, 0)
	v := h.Hash(New("g"), 1)
	r1 := h.Rehash(v, 1)
	r2 := h.Rehash(v, 1)
	if r1 != r2 {
		t.Error("Rehash must be deterministic")
	}
	if r1 == v {
		t.Error("Rehash should (overwhelmingly) change the value")
	}
	if h.Rehash(v, 0) == h.Rehash(v, 1) {
		t.Error("Rehash must be domain-separated per replica")
	}
}

func TestRehashIsInjective(t *testing.T) {
	// A bijection cannot merge two rehash chains.
	h := MustHasher(3, 0)
	const n = 1 << 20
	rng := rand.New(rand.NewSource(1))
	distinct := func(xs []uint32) int {
		slices.Sort(xs)
		return len(slices.Compact(xs))
	}
	for name, input := range map[string]func(i int) uint32{
		"consecutive": func(i int) uint32 { return 0xfff00000 + uint32(i) },
		"random":      func(int) uint32 { return rng.Uint32() },
	} {
		in, out := make([]uint32, n), make([]uint32, n)
		for i := range in {
			in[i] = input(i)
			out[i] = h.Rehash(in[i], 1)
		}
		if want, got := distinct(in), distinct(out); got != want {
			t.Errorf("%s: %d distinct inputs gave %d outputs", name, want, got)
		}
	}
}

func TestRehashKeyedBySaltAndReplica(t *testing.T) {
	h, other := MustHasher(12, 0), MustHasher(12, 1)
	seen := make(map[uint32]int)
	for r := 0; r < 12; r++ {
		v := h.Rehash(0xdeadbeef, r)
		if prev, dup := seen[v]; dup {
			t.Errorf("replicas %d and %d rehash alike", prev, r)
		}
		seen[v] = r
		if v == other.Rehash(0xdeadbeef, r) {
			t.Errorf("replica %d: salts 0 and 1 rehash alike", r)
		}
	}
}

func TestRehashAvalanche(t *testing.T) {
	// Flipping any one input bit must flip each output bit about half
	// the time: the next candidate address says nothing about the last.
	h := MustHasher(2, 0)
	const samples = 10000
	rng := rand.New(rand.NewSource(2))
	var flips [32][32]int
	for s := 0; s < samples; s++ {
		x := rng.Uint32()
		base := h.Rehash(x, 1)
		for in := 0; in < 32; in++ {
			diff := base ^ h.Rehash(x^1<<in, 1)
			for out := 0; out < 32; out++ {
				flips[in][out] += int(diff >> out & 1)
			}
		}
	}
	for in := range flips {
		for out, n := range flips[in] {
			if f := float64(n) / samples; f < 0.40 || f > 0.60 {
				t.Errorf("input bit %d flips output bit %d with frequency %.3f", in, out, f)
			}
		}
	}
}

func TestHashToRange(t *testing.T) {
	h := MustHasher(2, 0)
	f := func(v uint64, nRaw uint16) bool {
		n := int(nRaw%1000) + 1
		r := h.HashToRange(FromUint64(v), 0, n)
		return r >= 0 && r < n
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestHashToRangeUniform(t *testing.T) {
	h := MustHasher(1, 9)
	const n, draws = 64, 64000
	counts := make([]int, n)
	for i := 0; i < draws; i++ {
		counts[h.HashToRange(FromUint64(uint64(i)), 0, n)]++
	}
	expected := float64(draws) / n
	var chi2 float64
	for _, c := range counts {
		d := float64(c) - expected
		chi2 += d * d / expected
	}
	// 99.9th percentile of chi2(63) ≈ 103.
	if chi2 > 103 {
		t.Errorf("chi-square = %.1f, want < 103", chi2)
	}
}

func TestHashToRangePanics(t *testing.T) {
	h := MustHasher(1, 0)
	defer func() {
		if recover() == nil {
			t.Error("HashToRange(n=0) should panic")
		}
	}()
	h.HashToRange(GUID{}, 0, 0)
}

func TestHashAvalanche(t *testing.T) {
	// Flipping one GUID bit should flip ~16 of 32 output bits on average.
	h := MustHasher(1, 0)
	var totalFlips, trials int
	for i := 0; i < 200; i++ {
		g := FromUint64(uint64(i))
		base := h.Hash(g, 0)
		for bit := 0; bit < 8; bit++ {
			g2 := g
			g2[Size-1] ^= 1 << bit
			diff := base ^ h.Hash(g2, 0)
			for ; diff != 0; diff &= diff - 1 {
				totalFlips++
			}
			trials++
		}
	}
	avg := float64(totalFlips) / float64(trials)
	if math.Abs(avg-16) > 2 {
		t.Errorf("avalanche average = %.2f bit flips, want ≈16", avg)
	}
}

func TestVerify(t *testing.T) {
	g := New("content:movie-trailer")
	if !Verify("content:movie-trailer", g) {
		t.Error("Verify must accept the matching name")
	}
	if Verify("content:other", g) {
		t.Error("Verify must reject a different name")
	}
	if Verify("content:movie-trailer", GUID{}) {
		t.Error("Verify must reject the zero GUID")
	}
}
