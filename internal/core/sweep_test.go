package core

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"dmap/internal/guid"
	"dmap/internal/store"
	"dmap/internal/wire"
)

func mustSharded(t *testing.T, shards int) *store.Store {
	t.Helper()
	st, err := store.NewSharded(shards)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// sweepOver runs one whole sweep of a (over scopeA) against b through
// an in-memory transport: every page goes to DiffRangeIn at b (over
// scopeB, truncated at respMax), the pull comes back through Advance,
// the wants go to b. visit sees each exchange's answer.
func sweepOver(t *testing.T, a, b *store.Store, scopeA, scopeB func(guid.GUID) bool, pageMax, respMax int,
	visit func(newer []store.Entry, want []guid.GUID)) (exchanges int) {
	t.Helper()
	sw := NewSweep(a, scopeA)
	sw.max = pageMax
	for {
		after, through, page, ok := sw.Next()
		if !ok {
			return exchanges
		}
		if exchanges++; exchanges > 100_000 {
			t.Fatal("sweep does not terminate")
		}
		newer, want, covered := DiffRangeIn(b, after, through, page, true, respMax, scopeB)
		if visit != nil {
			visit(newer, want)
		}
		if _, err := sw.Advance(covered, newer); err != nil {
			t.Fatal(err)
		}
		if _, err := ApplyEntries(b, sw.Wanted(want, nil)); err != nil {
			t.Fatal(err)
		}
	}
}

// TestSweepConvergesScope is the sweep's property: over seeded random
// divergence — one side ahead, behind, missing the GUID, or having
// deleted it — one sweep from a alone leaves both stores holding the
// freshest copy of every in-scope GUID, and moves nothing outside the
// scope in either direction, at every page size and responder bound.
// The two stores are sharded differently: pages are keyspace ranges,
// not shard numbers.
func TestSweepConvergesScope(t *testing.T) {
	scope := func(g guid.GUID) bool { return g[guid.Size-1]%4 != 0 }
	for _, pageMax := range []int{1, 3, wire.MaxRepairDigests} {
		for _, respMax := range []int{1, 3, wire.MaxBatch} {
			for seed := int64(1); seed <= 6; seed++ {
				t.Run(fmt.Sprintf("page%d/resp%d/seed%d", pageMax, respMax, seed), func(t *testing.T) {
					rng := rand.New(rand.NewSource(seed))
					a, b := mustSharded(t, 8), mustSharded(t, 2)
					var universe []guid.GUID
					for i := 0; i < 300; i++ {
						g := guid.New(fmt.Sprintf("prop-%d-%d", seed, i))
						universe = append(universe, g)
						va, vb := uint64(1+rng.Intn(4)), uint64(1+rng.Intn(4))
						switch rng.Intn(6) {
						case 0: // only a
							mustPut(t, a, store.Entry{GUID: g, NAs: []store.NA{{AS: 1}}, Version: va})
						case 1: // only b
							mustPut(t, b, store.Entry{GUID: g, NAs: []store.NA{{AS: 2}}, Version: vb})
						case 2: // deleted at one side
							mustPut(t, a, store.Entry{GUID: g, NAs: []store.NA{{AS: 1}}, Version: va})
							mustPut(t, b, store.Entry{GUID: g, NAs: []store.NA{{AS: 2}}, Version: vb})
							[]*store.Store{a, b}[rng.Intn(2)].Delete(g)
						default: // both, ahead / behind / equal
							mustPut(t, a, store.Entry{GUID: g, NAs: []store.NA{{AS: 1}}, Version: va})
							mustPut(t, b, store.Entry{GUID: g, NAs: []store.NA{{AS: 2}}, Version: vb})
						}
					}
					version := func(st *store.Store, g guid.GUID) uint64 {
						v, _ := st.Version(g)
						return v
					}
					before := map[guid.GUID][2]uint64{}
					for _, g := range universe {
						before[g] = [2]uint64{version(a, g), version(b, g)}
					}

					sweepOver(t, a, b, scope, scope, pageMax, respMax, nil)

					for _, g := range universe {
						va, vb := version(a, g), version(b, g)
						was := before[g]
						if !scope(g) {
							if va != was[0] || vb != was[1] {
								t.Fatalf("%s outside scope moved: (%d,%d) -> (%d,%d)", g.Short(), was[0], was[1], va, vb)
							}
							continue
						}
						if want := max(was[0], was[1]); va != want || vb != want {
							t.Fatalf("%s: (%d,%d) -> (%d,%d), want both at %d", g.Short(), was[0], was[1], va, vb, want)
						}
					}
				})
			}
		}
	}
}

// TestSweepScopesDisagree: each end decides scope from its own copies,
// so the sweeper's page can name a GUID the responder's scope leaves
// out (a copy outside the current replica set: the inserting AS's local
// copy, a former attachment AS). Every named GUID is still compared, so
// a stale sweeper copy is healed from the responder; a GUID the page
// does not name is pushed only if the responder's scope holds it.
func TestSweepScopesDisagree(t *testing.T) {
	scopeA := func(g guid.GUID) bool { return g[guid.Size-1]%3 != 0 }
	scopeB := func(g guid.GUID) bool { return g[guid.Size-1]%5 != 0 }
	for seed := int64(1); seed <= 6; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			a, b := mustSharded(t, 8), mustSharded(t, 4)
			var universe []guid.GUID
			for i := 0; i < 400; i++ {
				g := guid.New(fmt.Sprintf("disagree-%d-%d", seed, i))
				universe = append(universe, g)
				if rng.Intn(4) != 0 {
					mustPut(t, a, store.Entry{GUID: g, NAs: []store.NA{{AS: 1}}, Version: uint64(1 + rng.Intn(4))})
				}
				if rng.Intn(4) != 0 {
					mustPut(t, b, store.Entry{GUID: g, NAs: []store.NA{{AS: 2}}, Version: uint64(1 + rng.Intn(4))})
				}
			}
			version := func(st *store.Store, g guid.GUID) uint64 {
				v, _ := st.Version(g)
				return v
			}
			before := map[guid.GUID][2]uint64{}
			for _, g := range universe {
				before[g] = [2]uint64{version(a, g), version(b, g)}
			}

			sweepOver(t, a, b, scopeA, scopeB, 3, wire.MaxBatch, nil)

			healed := 0
			for _, g := range universe {
				was := before[g]
				want := was
				switch {
				case was[0] > 0 && scopeA(g): // named in a's page: compared
					want = [2]uint64{max(was[0], was[1]), max(was[0], was[1])}
					if !scopeB(g) && was[1] > was[0] {
						healed++
					}
				case was[1] > 0 && scopeB(g): // b's, unnamed: pushed
					want[0] = max(was[0], was[1])
				}
				if got := [2]uint64{version(a, g), version(b, g)}; got != want {
					t.Fatalf("%s (scopes %t/%t): (%d,%d) -> (%d,%d), want (%d,%d)", g.Short(),
						scopeA(g), scopeB(g), was[0], was[1], got[0], got[1], want[0], want[1])
				}
			}
			if healed == 0 {
				t.Fatal("no stale sweeper copy outside the responder's scope: the case is untested")
			}
		})
	}
}

// TestSweepResumesAtCovered: a responder that truncates its push list
// at max makes the sweep re-cut its page from covered, and across the
// whole sweep every diverged GUID is transferred exactly once — pushed
// or wanted, never both, never twice.
func TestSweepResumesAtCovered(t *testing.T) {
	a, b := mustSharded(t, 8), mustSharded(t, 8)
	var diverged []guid.GUID
	for i := 0; i < 120; i++ {
		g := guid.New(fmt.Sprintf("resume-%d", i))
		diverged = append(diverged, g)
		switch i % 3 {
		case 0: // b ahead: b pushes
			mustPut(t, a, store.Entry{GUID: g, NAs: []store.NA{{AS: 1}}, Version: 1})
			mustPut(t, b, store.Entry{GUID: g, NAs: []store.NA{{AS: 1}}, Version: 2})
		case 1: // a ahead: b wants
			mustPut(t, a, store.Entry{GUID: g, NAs: []store.NA{{AS: 1}}, Version: 2})
			mustPut(t, b, store.Entry{GUID: g, NAs: []store.NA{{AS: 1}}, Version: 1})
		case 2: // only b: b pushes
			mustPut(t, b, store.Entry{GUID: g, NAs: []store.NA{{AS: 1}}, Version: 1})
		}
	}
	seen := map[guid.GUID]int{}
	truncated := 0
	exchanges := sweepOver(t, a, b, nil, nil, wire.MaxRepairDigests, 3, func(newer []store.Entry, want []guid.GUID) {
		if len(newer) == 3 {
			truncated++
		}
		for _, e := range newer {
			seen[e.GUID]++
		}
		for _, g := range want {
			seen[g]++
		}
	})
	if truncated == 0 || exchanges <= a.ShardCount() {
		t.Fatalf("%d exchanges, %d truncated: the responder bound never bit", exchanges, truncated)
	}
	for _, g := range diverged {
		if seen[g] != 1 {
			t.Fatalf("%s transferred %d times, want exactly once", g.Short(), seen[g])
		}
	}
	if len(seen) != len(diverged) {
		t.Fatalf("%d GUIDs transferred, %d diverged", len(seen), len(diverged))
	}
}

// TestSweepAdvanceRejectsStuckCursor: a peer whose covered does not
// move past the page's start would loop the sweep forever, and one past
// the page's end would skip keyspace; both abort it.
func TestSweepAdvanceRejectsStuckCursor(t *testing.T) {
	sw := NewSweep(mustSharded(t, 8), nil)
	after, through, _, ok := sw.Next()
	if !ok {
		t.Fatal("an empty store's sweep has no first page")
	}
	if _, err := sw.Advance(after, nil); err == nil {
		t.Fatal("a covered that does not advance was accepted")
	}
	if through == guid.Max() {
		t.Fatal("first page of eight shards ends the keyspace")
	}
	if _, err := sw.Advance(guid.Max(), nil); err == nil {
		t.Fatal("a covered past the page's end was accepted")
	}
	if _, err := sw.Advance(through, nil); err != nil {
		t.Fatalf("a complete answer was refused: %v", err)
	}
}

// TestSweepNilScopeIsShardPaging pins the unscoped sweep to plain shard
// paging, written out as the reference: every shard in order, max
// digests per page, a page ending at its last selected GUID while the
// shard has more and at the shard bound after.
func TestSweepNilScopeIsShardPaging(t *testing.T) {
	type cut struct {
		after, through guid.GUID
		page           []store.Digest
	}
	st := mustSharded(t, 8)
	for i := 0; i < 1500; i++ {
		mustPut(t, st, aeEntry(fmt.Sprintf("paging-%d", i), uint64(1+i%5)))
	}
	for _, batch := range []int{3, wire.MaxRepairDigests} {
		var want []cut
		var page []store.Digest
		for shard := 0; shard < st.ShardCount(); shard++ {
			cursor, shardThrough := st.ShardRange(shard)
			for guid.Compare(cursor, shardThrough) < 0 {
				var more bool
				page, more = st.ShardDigests(shard, cursor, batch, page[:0])
				pageThrough := shardThrough
				if more && len(page) > 0 {
					pageThrough = page[len(page)-1].GUID
				}
				want = append(want, cut{cursor, pageThrough, slices.Clone(page)})
				cursor = pageThrough
			}
		}

		var got []cut
		sw := NewSweep(st, nil)
		sw.max = batch
		for {
			after, through, page, ok := sw.Next()
			if !ok {
				break
			}
			got = append(got, cut{after, through, slices.Clone(page)})
			if _, err := sw.Advance(through, nil); err != nil {
				t.Fatal(err)
			}
		}
		if len(got) != len(want) {
			t.Fatalf("batch %d: %d pages, want %d", batch, len(got), len(want))
		}
		for i := range want {
			if got[i].after != want[i].after || got[i].through != want[i].through || !slices.Equal(got[i].page, want[i].page) {
				t.Fatalf("batch %d: page %d differs from the shard paging", batch, i)
			}
		}
	}
}
