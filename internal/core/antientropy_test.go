package core

import (
	"fmt"
	"testing"

	"dmap/internal/guid"
	"dmap/internal/store"
)

func aeEntry(name string, version uint64) store.Entry {
	return store.Entry{
		GUID:    guid.New(name),
		NAs:     []store.NA{{AS: 1}},
		Version: version,
	}
}

func mustPut(t *testing.T, st *store.Store, e store.Entry) {
	t.Helper()
	if _, err := st.Put(e); err != nil {
		t.Fatal(err)
	}
}

func TestDiffRangeDetectsMissingOnBothSides(t *testing.T) {
	st := store.New()
	mustPut(t, st, aeEntry("only-local", 4))
	mustPut(t, st, aeEntry("shared-fresh", 8))
	mustPut(t, st, aeEntry("shared-stale", 1))

	page := []store.Digest{
		{GUID: guid.New("shared-fresh"), Version: 2},
		{GUID: guid.New("shared-stale"), Version: 6},
		{GUID: guid.New("only-remote"), Version: 3},
	}
	// DiffRange needs the page in keyspace order.
	sortDigests(page)

	newer, want, covered := DiffRange(st, guid.GUID{}, guid.Max(), page, true, 0)
	if covered != guid.Max() {
		t.Fatalf("complete merge covered %s, want max", covered)
	}
	got := map[guid.GUID]uint64{}
	for _, e := range newer {
		got[e.GUID] = e.Version
	}
	// Range-completeness makes only-local a push: reverse detection.
	if len(got) != 2 || got[guid.New("only-local")] != 4 || got[guid.New("shared-fresh")] != 8 {
		t.Fatalf("newer = %+v", newer)
	}
	ws := map[guid.GUID]bool{}
	for _, g := range want {
		ws[g] = true
	}
	if len(ws) != 2 || !ws[guid.New("shared-stale")] || !ws[guid.New("only-remote")] {
		t.Fatalf("want = %+v", want)
	}
}

func TestDiffRangeTruncatesWithCoveredCursor(t *testing.T) {
	st := store.New()
	const n = 40
	for i := 0; i < n; i++ {
		mustPut(t, st, aeEntry(fmt.Sprintf("bulk-%d", i), 1))
	}

	// Empty page over the full keyspace: an empty peer sweeping a full
	// one. With max=7 the merge must truncate and hand back a resume
	// cursor; paging from it must eventually surface every entry.
	seen := map[guid.GUID]bool{}
	after := guid.GUID{}
	rounds := 0
	for {
		rounds++
		if rounds > n+2 {
			t.Fatal("covered cursor is not advancing")
		}
		newer, _, covered := DiffRange(st, after, guid.Max(), nil, true, 7)
		if len(newer) > 7 {
			t.Fatalf("truncated merge returned %d pushes, max 7", len(newer))
		}
		for _, e := range newer {
			if seen[e.GUID] {
				t.Fatalf("entry %s pushed twice", e.GUID.Short())
			}
			seen[e.GUID] = true
		}
		if covered == guid.Max() {
			break
		}
		if guid.Compare(covered, after) <= 0 {
			t.Fatalf("covered %s did not advance past %s", covered, after)
		}
		after = covered
	}
	if len(seen) != n {
		t.Fatalf("resumed sweep surfaced %d entries, want %d", len(seen), n)
	}
}

func TestApplyEntriesFreshestWins(t *testing.T) {
	st := store.New()
	mustPut(t, st, aeEntry("held", 5))
	applied, err := ApplyEntries(st, []store.Entry{
		aeEntry("held", 3),  // stale: no-op
		aeEntry("held", 9),  // fresher: applies
		aeEntry("novel", 1), // missing: applies
	})
	if err != nil {
		t.Fatal(err)
	}
	if applied != 2 {
		t.Fatalf("applied = %d, want 2", applied)
	}
	if e, ok := st.Get(guid.New("held")); !ok || e.Version != 9 {
		t.Fatalf("held = %+v, %v", e, ok)
	}
}

// sortDigests orders a page by GUID — insertion sort, test-sized input.
func sortDigests(ds []store.Digest) {
	for i := 1; i < len(ds); i++ {
		for j := i; j > 0 && guid.Compare(ds[j].GUID, ds[j-1].GUID) < 0; j-- {
			ds[j], ds[j-1] = ds[j-1], ds[j]
		}
	}
}
