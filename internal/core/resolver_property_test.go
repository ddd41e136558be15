package core

import (
	"math"
	"math/rand"
	"testing"

	"dmap/internal/guid"
	"dmap/internal/netaddr"
	"dmap/internal/prefixtable"
)

// Property-based checks of Algorithm 1: for random GUID populations and
// random announce/withdraw churn, placements must always land on
// announced prefixes with the matching AS, be deterministic for a fixed
// table, and be independent per replica index (a K-replica placement is
// a prefix of any larger-K placement).

// randomTable announces n random disjoint-ish prefixes and returns the
// churn pool of spare prefixes for later announcements.
func randomTable(t *testing.T, rng *rand.Rand, n int) (*prefixtable.Table, []netaddr.Prefix) {
	t.Helper()
	table := prefixtable.New()
	var announced []netaddr.Prefix
	for len(announced) < n {
		bits := 8 + rng.Intn(13) // /8 .. /20
		addr := netaddr.Addr(rng.Uint32())
		p, err := netaddr.NewPrefix(addr, bits)
		if err != nil {
			t.Fatal(err)
		}
		if err := table.Announce(p, len(announced)+1); err != nil {
			continue // overlap with an existing announcement: skip
		}
		announced = append(announced, p)
	}
	// A spare pool for churn re-announcements.
	var spares []netaddr.Prefix
	for len(spares) < n/2 {
		bits := 8 + rng.Intn(13)
		p, err := netaddr.NewPrefix(netaddr.Addr(rng.Uint32()), bits)
		if err != nil {
			t.Fatal(err)
		}
		spares = append(spares, p)
	}
	return table, spares
}

// checkPlacements asserts the core soundness property for every GUID:
// the selected address is actually announced and owned by the reported
// AS — including the nearest-deputy fallback, whose closest address must
// itself resolve to the deputy.
func checkPlacements(t *testing.T, r *Resolver, guids []guid.GUID) {
	t.Helper()
	for _, g := range guids {
		ps, err := r.Place(g)
		if err != nil {
			t.Fatalf("place %s: %v", g.Short(), err)
		}
		for _, p := range ps {
			if !p.UsedNearest {
				// Direct (re)hash hit: the AS is the LPM owner of the
				// hashed address.
				e, ok := r.Table().Lookup(p.Addr)
				if !ok {
					t.Fatalf("guid %s replica %d: placement addr %s not announced",
						g.Short(), p.Replica, p.Addr)
				}
				if e.AS != p.AS {
					t.Fatalf("guid %s replica %d: placement AS %d but %s is announced by AS %d",
						g.Short(), p.Replica, p.AS, p.Addr, e.AS)
				}
				continue
			}
			// Deputy fallback: the address is the closest point of the
			// nearest announced prefix, which must belong to the deputy.
			// (LPM at that point may name a nested more-specific of
			// another AS, so containment — not Lookup — is the
			// invariant.)
			if p.Rehashes != r.MaxRehash() {
				t.Fatalf("guid %s replica %d: deputy fallback after %d < M rehashes",
					g.Short(), p.Replica, p.Rehashes)
			}
			owned := false
			for _, e := range r.Table().Entries() {
				if e.AS == p.AS && e.Prefix.Contains(p.Addr) {
					owned = true
					break
				}
			}
			if !owned {
				t.Fatalf("guid %s replica %d: deputy AS %d announces no prefix containing %s",
					g.Short(), p.Replica, p.AS, p.Addr)
			}
		}
	}
}

func TestPlacementSoundUnderChurn(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	table, spares := randomTable(t, rng, 60)
	r, err := NewResolver(guid.MustHasher(5, 0), table, 0)
	if err != nil {
		t.Fatal(err)
	}

	guids := make([]guid.GUID, 200)
	for i := range guids {
		guids[i] = guid.FromUint64(rng.Uint64())
	}

	// Interleave placement checks with random announce/withdraw churn.
	// After every batch of events the invariant must still hold for the
	// whole population against the *current* table.
	live := append([]netaddr.Prefix(nil), spares...)
	for round := 0; round < 15; round++ {
		checkPlacements(t, r, guids)
		for ev := 0; ev < 5; ev++ {
			if rng.Intn(2) == 0 && len(live) > 0 {
				i := rng.Intn(len(live))
				p := live[i]
				if err := table.Announce(p, 1000+round*10+ev); err == nil {
					live = append(live[:i], live[i+1:]...)
				}
			} else if es := table.Entries(); len(es) > 1 {
				victim := es[rng.Intn(len(es))].Prefix
				if table.Withdraw(victim) {
					live = append(live, victim)
				}
			}
		}
	}
	checkPlacements(t, r, guids)
}

// For a fixed table, placement is a pure function of the GUID: repeated
// resolution — and resolution through an independently constructed
// resolver over the same hash family — must agree exactly.
func TestPlacementDeterministicForFixedTable(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	table, _ := randomTable(t, rng, 40)
	r1, err := NewResolver(guid.MustHasher(3, 9), table, 0)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := NewResolver(guid.MustHasher(3, 9), table, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 300; i++ {
		g := guid.FromUint64(rng.Uint64())
		a, err := r1.Place(g)
		if err != nil {
			t.Fatal(err)
		}
		b, err := r1.Place(g)
		if err != nil {
			t.Fatal(err)
		}
		c, err := r2.Place(g)
		if err != nil {
			t.Fatal(err)
		}
		for k := range a {
			if a[k] != b[k] || a[k] != c[k] {
				t.Fatalf("guid %s replica %d: placements diverge: %+v / %+v / %+v",
					g.Short(), k, a[k], b[k], c[k])
			}
		}
	}
}

// Replica hash functions are domain-separated on the replica index, so
// the K=2 placement of a GUID is exactly the first two entries of its
// K=5 placement: growing K never reshuffles existing replicas.
func TestReplicaPlacementsExtend(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	table, _ := randomTable(t, rng, 40)
	small, err := NewResolver(guid.MustHasher(2, 0), table, 0)
	if err != nil {
		t.Fatal(err)
	}
	big, err := NewResolver(guid.MustHasher(5, 0), table, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 300; i++ {
		g := guid.FromUint64(rng.Uint64())
		ps, err := small.Place(g)
		if err != nil {
			t.Fatal(err)
		}
		pb, err := big.Place(g)
		if err != nil {
			t.Fatal(err)
		}
		for k := range ps {
			if ps[k] != pb[k] {
				t.Fatalf("guid %s replica %d: K=2 placement %+v != K=5 prefix %+v",
					g.Short(), k, ps[k], pb[k])
			}
		}
	}
}

// Distinct replicas of one GUID must be placed independently: the rate at
// which replica 0 and replica 1 of the same GUID land on one AS must
// equal the rate at which replica 0 of one GUID and replica 1 of another
// do — independent by construction, whatever the table's geometry and
// however much of it the Nearest fallback decides. The cross-GUID rate
// is taken over all pairs (Σ_AS P₀(AS)·P₁(AS) from the two marginals), so
// the band is the same-GUID rate's own 4σ binomial spread.
func TestReplicaSpreadMatchesShare(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	table, _ := randomTable(t, rng, 80)
	r, err := NewResolver(guid.MustHasher(2, 0), table, 0)
	if err != nil {
		t.Fatal(err)
	}
	const n = 50000
	same := 0
	var byAS [2]map[int]float64
	byAS[0], byAS[1] = map[int]float64{}, map[int]float64{}
	ps := make([]Placement, 0, 2)
	for i := 0; i < n; i++ {
		if ps, err = r.PlaceInto(guid.FromUint64(uint64(i)+1), ps[:0]); err != nil {
			t.Fatal(err)
		}
		if ps[0].AS == ps[1].AS {
			same++
		}
		byAS[0][ps[0].AS]++
		byAS[1][ps[1].AS]++
	}
	cross := 0.0
	for as, c := range byAS[0] {
		cross += c / n * byAS[1][as] / n
	}
	got := float64(same) / n
	if band := 4 * math.Sqrt(cross*(1-cross)/n); math.Abs(got-cross) > band {
		t.Errorf("same-GUID replica collision rate %.4f, cross-GUID rate %.4f: apart by more than %.4f, replicas correlate",
			got, cross, band)
	}
}
