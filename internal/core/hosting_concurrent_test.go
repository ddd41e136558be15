package core_test

import (
	"fmt"
	"sync"
	"testing"

	"dmap/internal/core"
)

// TestSystemConcurrentHammer drives preloads, deletes, replica reads and
// the read-side inspectors from many goroutines at once. Run under -race
// it exercises the node table's lazy node creation and its atomic loads;
// afterwards the surviving GUIDs must still pass the consistency audit.
func TestSystemConcurrentHammer(t *testing.T) {
	nodes, r := newTestNodes(t, 3, true)

	const (
		goroutines = 8
		guidsPer   = 40
	)
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for gr := 0; gr < goroutines; gr++ {
		gr := gr
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < guidsPer; i++ {
				// The §III-C local copy lands at the entry's attachment
				// AS, a different one for every GUID.
				srcAS := gr*guidsPer + i
				e := testEntry(fmt.Sprintf("hammer-%d-%d", gr, i), 1, srcAS)
				if err := nodes.Preload(e); err != nil {
					errs <- err
					return
				}
				if _, err := replicaCopies(nodes, r, e.GUID); err != nil {
					errs <- err
					return
				}
				e.Version = 2
				if err := nodes.Preload(e); err != nil {
					errs <- err
					return
				}
				// Read-side inspectors race against writers on other
				// goroutines' stores.
				hosted(nodes, 500)
				// Every fourth GUID is deleted again, from its replicas
				// and its local copy, so the audit also sees stores that
				// shrank concurrently.
				if i%4 == 3 {
					placements, err := r.Place(e.GUID)
					if err != nil {
						errs <- err
						return
					}
					for _, as := range append([]int{srcAS}, placementASs(placements)...) {
						st, err := storeAt(nodes, as)
						if err != nil {
							errs <- err
							return
						}
						st.Delete(e.GUID)
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	rep, err := nodes.VerifyConsistency()
	if err != nil {
		t.Fatal(err)
	}
	wantGUIDs := goroutines * guidsPer * 3 / 4
	if rep.Mappings != wantGUIDs {
		t.Errorf("audit saw %d GUIDs, want %d", rep.Mappings, wantGUIDs)
	}
	if !rep.Ok() {
		t.Errorf("consistency audit failed after concurrent hammer: %+v", rep)
	}
}

// TestSystemConcurrentSameGUID hammers one GUID from every goroutine:
// the node table's creation path and per-store locking must serialize
// version-checked updates without losing the entry.
func TestSystemConcurrentSameGUID(t *testing.T) {
	nodes, r := newTestNodes(t, 3, false)
	e := testEntry("contended", 1, 42)
	insert(t, nodes, r, e)

	const goroutines = 8
	var wg sync.WaitGroup
	for range goroutines {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for v := uint64(2); v < 20; v++ {
				up := e
				up.Version = v
				// Stale versions are rejected by the store; racing
				// writers only ever move the version forward.
				_ = nodes.Preload(up)
				if _, err := replicaCopies(nodes, r, e.GUID); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()

	copies, err := replicaCopies(nodes, r, e.GUID)
	if err != nil {
		t.Fatal(err)
	}
	for i, got := range copies {
		if got.Version != 19 {
			t.Errorf("final version at replica %d = %d, want 19", i, got.Version)
		}
	}
	rep, err := nodes.VerifyConsistency()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Ok() {
		t.Errorf("audit failed: %+v", rep)
	}
}

// placementASs lists the ASs that placements name.
func placementASs(placements []core.Placement) []int {
	ases := make([]int, len(placements))
	for i, p := range placements {
		ases[i] = p.AS
	}
	return ases
}
