package core

import (
	"math"
	"testing"

	"dmap/internal/guid"
	"dmap/internal/netaddr"
	"dmap/internal/prefixtable"
)

// halfTable announces 0.0.0.0/1 (AS 0) so exactly half the space is
// announced: hole probability 1/2 per hash.
func halfTable(t *testing.T) *prefixtable.Table {
	t.Helper()
	tbl := prefixtable.New()
	p, err := netaddr.NewPrefix(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := tbl.Announce(p, 0); err != nil {
		t.Fatal(err)
	}
	return tbl
}

func genTable(t *testing.T, seed int64) *prefixtable.Table {
	t.Helper()
	tbl, err := prefixtable.Generate(prefixtable.GenConfig{
		NumAS:       500,
		NumPrefixes: 5000,
		Seed:        seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	return tbl
}

func TestNewResolverValidation(t *testing.T) {
	h := guid.MustHasher(2, 0)
	tbl := prefixtable.New()
	if _, err := NewResolver(nil, tbl, 0); err == nil {
		t.Error("nil hasher should fail")
	}
	if _, err := NewResolver(h, nil, 0); err == nil {
		t.Error("nil table should fail")
	}
	r, err := NewResolver(h, tbl, 0)
	if err != nil {
		t.Fatal(err)
	}
	if r.MaxRehash() != DefaultMaxRehash {
		t.Errorf("MaxRehash = %d, want default %d", r.MaxRehash(), DefaultMaxRehash)
	}
	if r.K() != 2 {
		t.Errorf("K = %d", r.K())
	}
}

func TestPlaceEmptyTable(t *testing.T) {
	r, err := NewResolver(guid.MustHasher(1, 0), prefixtable.New(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Place(guid.New("g")); err != ErrNoPrefixes {
		t.Errorf("Place on empty table err = %v, want ErrNoPrefixes", err)
	}
}

func TestPlaceDeterministic(t *testing.T) {
	tbl := genTable(t, 1)
	r, err := NewResolver(guid.MustHasher(5, 0), tbl, 0)
	if err != nil {
		t.Fatal(err)
	}
	g := guid.New("phone-X")
	p1, err := r.Place(g)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := r.Place(g)
	if err != nil {
		t.Fatal(err)
	}
	if len(p1) != 5 {
		t.Fatalf("placements = %d, want 5", len(p1))
	}
	for i := range p1 {
		if p1[i] != p2[i] {
			t.Fatalf("placement %d not deterministic: %+v vs %+v", i, p1[i], p2[i])
		}
		if p1[i].Replica != i {
			t.Errorf("placement %d replica field = %d", i, p1[i].Replica)
		}
	}
}

func TestPlacementAddressOwnedByAS(t *testing.T) {
	tbl := genTable(t, 2)
	r, err := NewResolver(guid.MustHasher(5, 7), tbl, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		placements, err := r.Place(guid.FromUint64(uint64(i)))
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range placements {
			e, ok := tbl.Lookup(p.Addr)
			if !ok {
				t.Fatalf("placement address %v not announced", p.Addr)
			}
			if e.AS != p.AS {
				t.Fatalf("placement AS %d but %v is announced by %d", p.AS, p.Addr, e.AS)
			}
		}
	}
}

// Placement is the client's per-request local computation: into a reused
// slice it must not allocate, for every K one digest serves.
func TestPlaceZeroAllocs(t *testing.T) {
	tbl := genTable(t, 3)
	for _, k := range []int{3, 8} {
		r, err := NewResolver(guid.MustHasher(k, 0), tbl, 0)
		if err != nil {
			t.Fatal(err)
		}
		g := guid.New("phone-X")
		dst := make([]Placement, 0, k)
		if n := testing.AllocsPerRun(200, func() { dst, _ = r.PlaceInto(g, dst[:0]) }); n != 0 {
			t.Errorf("K=%d: PlaceInto allocates %.1f times per call", k, n)
		}
		if n := testing.AllocsPerRun(200, func() { _, _ = r.PlaceReplica(g, k-1) }); n != 0 {
			t.Errorf("K=%d: PlaceReplica allocates %.1f times per call", k, n)
		}
		if n := testing.AllocsPerRun(200, func() { _, _ = r.PlaceExcluding(g, 0, func(netaddr.Addr) bool { return false }) }); n != 0 {
			t.Errorf("K=%d: PlaceExcluding allocates %.1f times per call", k, n)
		}
		gs := make([]guid.GUID, 100)
		for i := range gs {
			gs[i] = guid.FromUint64(uint64(i))
		}
		batch := make([]Placement, len(gs)*k)
		if n := testing.AllocsPerRun(50, func() { _ = r.PlaceBatch(batch, gs, 0, k) }); n != 0 {
			t.Errorf("K=%d: PlaceBatch allocates %.1f times per call", k, n)
		}
	}
}

func TestPlaceRehashOnHole(t *testing.T) {
	// Announce only the lower half: any GUID whose first hash has the top
	// bit set must rehash at least once, and the final address must land
	// in the announced half (or use the nearest fallback).
	tbl := halfTable(t)
	h := guid.MustHasher(1, 0)
	r, err := NewResolver(h, tbl, 0)
	if err != nil {
		t.Fatal(err)
	}
	sawRehash := false
	for i := 0; i < 200; i++ {
		g := guid.FromUint64(uint64(i))
		p, err := r.PlaceReplica(g, 0)
		if err != nil {
			t.Fatal(err)
		}
		first := netaddr.Addr(h.Hash(g, 0))
		if first>>31 == 1 && p.Rehashes == 0 {
			t.Fatalf("GUID %d: first hash %v is a hole but no rehash recorded", i, first)
		}
		if p.Rehashes > 0 {
			sawRehash = true
		}
		if !p.UsedNearest && p.Addr>>31 != 0 {
			t.Fatalf("GUID %d placed at unannounced %v", i, p.Addr)
		}
		if p.AS != 0 {
			t.Fatalf("GUID %d placed at AS %d, only AS 0 exists", i, p.AS)
		}
	}
	if !sawRehash {
		t.Error("expected some rehashes with 50% holes")
	}
}

func TestPlaceNearestFallback(t *testing.T) {
	// M=1 and a tiny announced sliver: almost every GUID exhausts
	// rehashes and must use the nearest-prefix deputy.
	tbl := prefixtable.New()
	p, err := netaddr.NewPrefix(netaddr.AddrFromOctets(10, 0, 0, 0), 24)
	if err != nil {
		t.Fatal(err)
	}
	if err := tbl.Announce(p, 3); err != nil {
		t.Fatal(err)
	}
	r, err := NewResolver(guid.MustHasher(1, 0), tbl, 1)
	if err != nil {
		t.Fatal(err)
	}
	pl, err := r.PlaceReplica(guid.New("x"), 0)
	if err != nil {
		t.Fatal(err)
	}
	if !pl.UsedNearest {
		t.Error("expected nearest fallback")
	}
	if pl.AS != 3 {
		t.Errorf("deputy AS = %d, want 3", pl.AS)
	}
	if !p.Contains(pl.Addr) {
		t.Errorf("deputy address %v outside the only prefix", pl.Addr)
	}
	if pl.Rehashes != 1 {
		t.Errorf("Rehashes = %d, want M=1", pl.Rehashes)
	}
}

func TestMeasureRehashMatchesTheory(t *testing.T) {
	// With exactly half the space announced, P(depth = d) = 2^-(d+1) and
	// P(fallback) = 2^-M (the paper's 0.45^M with hole fraction 0.45).
	tbl := halfTable(t)
	r, err := NewResolver(guid.MustHasher(2, 0), tbl, 10)
	if err != nil {
		t.Fatal(err)
	}
	st, err := r.MeasureRehash(20000)
	if err != nil {
		t.Fatal(err)
	}
	if st.Samples != 40000 {
		t.Fatalf("Samples = %d", st.Samples)
	}
	for d := 0; d < 4; d++ {
		got := float64(st.DepthCounts[d]) / float64(st.Samples)
		want := math.Pow(0.5, float64(d+1))
		if math.Abs(got-want) > 0.01 {
			t.Errorf("depth %d rate = %.4f, want ≈ %.4f", d, got, want)
		}
	}
	if rate := st.FallbackRate(); rate > 0.005 {
		t.Errorf("fallback rate = %.4f, want ≈ 2^-10 ≈ 0.001", rate)
	}
}

func TestFallbackRateEmpty(t *testing.T) {
	if (RehashStats{}).FallbackRate() != 0 {
		t.Error("empty stats fallback rate should be 0")
	}
}

func TestPlaceExcluding(t *testing.T) {
	tbl := genTable(t, 3)
	r, err := NewResolver(guid.MustHasher(1, 0), tbl, 0)
	if err != nil {
		t.Fatal(err)
	}
	g := guid.New("migrating")
	orig, err := r.PlaceReplica(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Excluding the original placement address must move the replica.
	entry, ok := tbl.Lookup(orig.Addr)
	if !ok {
		t.Fatal("placement not announced")
	}
	moved, err := r.PlaceExcluding(g, 0, func(a netaddr.Addr) bool {
		return entry.Prefix.Contains(a)
	})
	if err != nil {
		t.Fatal(err)
	}
	if entry.Prefix.Contains(moved.Addr) {
		t.Errorf("excluded placement still landed inside %v", entry.Prefix)
	}
	// Excluding nothing reproduces the original placement.
	same, err := r.PlaceExcluding(g, 0, func(netaddr.Addr) bool { return false })
	if err != nil {
		t.Fatal(err)
	}
	if same != orig {
		t.Errorf("PlaceExcluding(no-op) = %+v, want %+v", same, orig)
	}
}

func TestPlaceByASNumber(t *testing.T) {
	if _, err := NewASNumberResolver(guid.MustHasher(3, 0), 0); err == nil {
		t.Error("numAS=0 should fail")
	}
	r, err := NewASNumberResolver(guid.MustHasher(3, 0), 10)
	if err != nil {
		t.Fatal(err)
	}
	counts := make([]int, 10)
	for i := 0; i < 5000; i++ {
		g := guid.FromUint64(uint64(i))
		ps, err := r.Place(g)
		if err != nil {
			t.Fatal(err)
		}
		for rep, p := range ps {
			if one, _ := r.PlaceReplica(g, rep); one != p {
				t.Fatalf("PlaceReplica(%d) = %+v, Place has %+v", rep, one, p)
			}
		}
		counts[ps[0].AS]++
	}
	for as, c := range counts {
		if c < 300 || c > 700 {
			t.Errorf("AS %d count %d, want ≈500 (uniform)", as, c)
		}
	}
}

func TestLoadBalanceAcrossASs(t *testing.T) {
	// Placement counts per AS must track announced share: the core NLR
	// property of Fig. 6, asserted here at package level.
	tbl := genTable(t, 4)
	r, err := NewResolver(guid.MustHasher(5, 0), tbl, 0)
	if err != nil {
		t.Fatal(err)
	}
	hosted := make(map[int]int)
	const n = 3000
	for i := 0; i < n; i++ {
		placements, err := r.Place(guid.FromUint64(uint64(i)))
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range placements {
			hosted[p.AS]++
		}
	}
	shares := tbl.ShareByAS()
	announced := tbl.AnnouncedFraction()
	// For the biggest ASs (enough samples), NLR must be near 1.
	for as, share := range shares {
		normShare := share / announced
		if normShare < 0.05 {
			continue
		}
		nlr := (float64(hosted[as]) / float64(n*5)) / normShare
		if nlr < 0.7 || nlr > 1.3 {
			t.Errorf("AS %d: NLR = %.2f (share %.3f), want ≈1", as, nlr, normShare)
		}
	}
}
