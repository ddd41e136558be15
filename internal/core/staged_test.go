package core

import (
	"fmt"
	"math/rand"
	"testing"

	"dmap/internal/guid"
	"dmap/internal/netaddr"
	"dmap/internal/prefixtable"
)

// algorithm1 is Algorithm 1 of the paper written out plainly for one
// replica: hash, look the address up and rehash while it is a hole (or
// excluded) — M lookups at most — then take the deputy nearest in IP
// distance. The staged walk must agree with it placement for placement.
func algorithm1(h *guid.Hasher, tbl *prefixtable.Table, m int, g guid.GUID, replica int, exclude func(netaddr.Addr) bool) (Placement, error) {
	addr := netaddr.Addr(h.Hash(g, replica))
	for d := 0; d < m; d++ {
		if e, ok := tbl.Lookup(addr); ok && (exclude == nil || !exclude(addr)) {
			return Placement{AS: e.AS, Addr: addr, Replica: replica, Rehashes: d}, nil
		}
		addr = netaddr.Addr(h.Rehash(uint32(addr), replica))
	}
	e, closest, ok := tbl.Nearest(addr)
	if !ok {
		return Placement{}, ErrNoPrefixes
	}
	return Placement{AS: e.AS, Addr: closest, Replica: replica, Rehashes: m, UsedNearest: true}, nil
}

// TestStagedWalkMatchesAlgorithm1 compares every entry point of the
// staged walk with algorithm1 over the full-scale DFZ: K = 9 crosses one
// digest, the batch lengths straddle the walk's stage of 64 placements,
// M = 2 sends a fifth of the placements to the deputy, and the second
// pass runs on the table after withdrawals and re-announcements.
func TestStagedWalkMatchesAlgorithm1(t *testing.T) {
	tbl, err := prefixtable.Generate(prefixtable.DefaultGenConfig(11))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	gs := make([]guid.GUID, 4096)
	for i := range gs {
		gs[i] = guid.FromUint64(rng.Uint64())
	}
	exclude := func(a netaddr.Addr) bool { return a&0xff < 0x40 }
	nearest := map[int]int{} // M → deputy placements seen
	for pass := 0; pass < 2; pass++ {
		if pass == 1 {
			for i, e := range tbl.Entries() {
				switch {
				case i%7 == 0:
					tbl.Withdraw(e.Prefix)
				case i%11 == 0:
					if err := tbl.Announce(e.Prefix, e.AS+1); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
		for _, m := range []int{DefaultMaxRehash, 2} {
			for _, k := range []int{1, 3, 5, 9} {
				h := guid.MustHasher(k, 0)
				r, err := NewResolver(h, tbl, m)
				if err != nil {
					t.Fatal(err)
				}
				want := func(g guid.GUID, replica int, exclude func(netaddr.Addr) bool) Placement {
					p, err := algorithm1(h, tbl, m, g, replica, exclude)
					if err != nil {
						t.Fatal(err)
					}
					return p
				}
				ranges := [][2]int{{0, k}, {k - 1, k}, {0, 0}}
				if k > 2 {
					ranges = append(ranges, [2]int{1, k - 1})
				}
				for _, n := range []int{0, 1, 2, 63, 64, 65, 4096} {
					for _, fr := range ranges {
						from, to := fr[0], fr[1]
						dst := make([]Placement, n*(to-from))
						if err := r.PlaceBatch(dst, gs[:n], from, to); err != nil {
							t.Fatal(err)
						}
						for i, p := range dst {
							g, replica := gs[i/(to-from)], from+i%(to-from)
							if w := want(g, replica, nil); p != w {
								t.Fatalf("pass %d M=%d K=%d n=%d [%d,%d): %s replica %d = %+v, want %+v", pass, m, k, n, from, to, g.Short(), replica, p, w)
							}
							if p.UsedNearest && n == len(gs) && fr == [2]int{0, k} {
								nearest[m]++
							}
						}
					}
				}
				ps := make([]Placement, 0, k)
				for _, g := range gs[:256] {
					if ps, err = r.PlaceInto(g, ps[:0]); err != nil {
						t.Fatal(err)
					}
					for replica, p := range ps {
						if w := want(g, replica, nil); p != w {
							t.Fatalf("pass %d M=%d K=%d: PlaceInto %s replica %d = %+v, want %+v", pass, m, k, g.Short(), replica, p, w)
						}
						if p, err := r.PlaceReplica(g, replica); err != nil || p != ps[replica] {
							t.Fatalf("pass %d M=%d K=%d: PlaceReplica %s %d = %+v, %v; want %+v", pass, m, k, g.Short(), replica, p, err, ps[replica])
						}
						p, err := r.PlaceExcluding(g, replica, exclude)
						if w := want(g, replica, exclude); err != nil || p != w {
							t.Fatalf("pass %d M=%d K=%d: PlaceExcluding %s %d = %+v, %v; want %+v", pass, m, k, g.Short(), replica, p, err, w)
						}
					}
				}
			}
		}
	}
	for _, m := range []int{DefaultMaxRehash, 2} {
		if nearest[m] == 0 {
			t.Errorf("M=%d: no placement took the nearest deputy; the fallback went unexercised", m)
		}
	}
	t.Logf("deputy placements over the full batches: %v", nearest)
}

// TestPlaceBatchEmptyTable: the staged walk reports an empty table, in
// a batch as for one GUID.
func TestPlaceBatchEmptyTable(t *testing.T) {
	r, err := NewResolver(guid.MustHasher(3, 0), prefixtable.New(), 0)
	if err != nil {
		t.Fatal(err)
	}
	gs := []guid.GUID{guid.New("a"), guid.New("b")}
	if err := r.PlaceBatch(make([]Placement, 6), gs, 0, 3); err != ErrNoPrefixes {
		t.Errorf("PlaceBatch = %v, want ErrNoPrefixes", err)
	}
	dst := make([]Placement, 1, 4)
	if out, err := r.PlaceInto(gs[0], dst); err != ErrNoPrefixes || len(out) != 1 {
		t.Errorf("PlaceInto = %d placements, %v; want dst unextended and ErrNoPrefixes", len(out), err)
	}
}

// TestPlaceBatchRejectsBadShapes: a replica range outside [0, K] or a
// dst too short for it is a caller's bug, and says so.
func TestPlaceBatchRejectsBadShapes(t *testing.T) {
	r, err := NewResolver(guid.MustHasher(3, 0), genTable(t, 1), 0)
	if err != nil {
		t.Fatal(err)
	}
	gs := []guid.GUID{guid.New("a"), guid.New("b")}
	for _, c := range []struct{ dst, from, to int }{{6, -1, 2}, {6, 0, 4}, {6, 2, 1}, {5, 0, 3}} {
		t.Run(fmt.Sprintf("dst%d_%d_%d", c.dst, c.from, c.to), func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Error("no panic")
				}
			}()
			_ = r.PlaceBatch(make([]Placement, c.dst), gs, c.from, c.to)
		})
	}
}
