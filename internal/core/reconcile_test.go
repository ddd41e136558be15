package core

import (
	"testing"

	"dmap/internal/guid"
	"dmap/internal/store"
)

// TestReconcileAfterRestart models the §III-D1 rejoin: a replica AS
// crashes, recovers from a durable image that predates some updates, and
// must reconcile with its deputies by §III-D2 version numbers before it
// can serve reads — zero stale reads afterwards.
func TestReconcileAfterRestart(t *testing.T) {
	sys := newTestSystem(t, 3, false)

	// Populate, then pick a victim AS that hosts several mappings.
	var entries []store.Entry
	for i := 1; i <= 80; i++ {
		e := store.Entry{
			GUID:    guid.FromUint64(uint64(i)),
			NAs:     []store.NA{{AS: i % 100}},
			Version: 1,
		}
		entries = append(entries, e)
		if _, err := sys.Insert(e, i%100); err != nil {
			t.Fatal(err)
		}
	}
	// Lowest AS index, not map order: ranging over the map made the victim
	// vary by run, and one eligible AS (169) holds all three replicas of
	// GUID 4 — nothing a peer could heal — which failed ~5 % of runs.
	counts := sys.HostedCounts()
	victim := -1
	for as := 0; as < 500 && victim < 0; as++ {
		if counts[as] >= 3 {
			victim = as
		}
	}
	if victim < 0 {
		t.Fatal("no AS hosts >= 3 mappings")
	}

	// Snapshot the victim's pre-update state: this is what its durable
	// store will recover after the crash.
	recovered := store.New()
	st, err := sys.Store(victim)
	if err != nil {
		t.Fatal(err)
	}
	hosted := 0
	st.Range(func(e store.Entry) bool {
		hosted++
		if hosted%3 != 0 { // every third mapping lost with the WAL tail
			if _, err := recovered.Put(e); err != nil {
				t.Fatal(err)
			}
		}
		return true
	})

	// While the victim is "down", every mapping moves to version 2.
	for i := range entries {
		entries[i].Version = 2
		if _, err := sys.Update(entries[i], 0); err != nil {
			t.Fatal(err)
		}
	}

	// Restart: the victim comes back with its stale recovered image.
	sys.stores[victim].Store(recovered)
	rep, err := sys.VerifyConsistency()
	if err != nil {
		t.Fatal(err)
	}
	if rep.VersionSkews == 0 && rep.MissingReplicas == 0 {
		t.Fatal("test setup produced no divergence to reconcile")
	}

	pulled, err := sys.ReconcileAS(victim)
	if err != nil {
		t.Fatal(err)
	}
	if pulled != hosted {
		t.Errorf("ReconcileAS pulled %d, want %d (every hosted mapping was stale or missing)", pulled, hosted)
	}

	// Zero stale reads: everything the victim hosts is at max version.
	stale := 0
	recovered.Range(func(e store.Entry) bool {
		if e.Version != 2 {
			stale++
		}
		return true
	})
	if stale != 0 {
		t.Errorf("%d stale mappings served post-reconciliation", stale)
	}
	rep, err = sys.VerifyConsistency()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Ok() {
		t.Errorf("post-reconcile consistency: %v", rep)
	}

	// Reconciling again is a no-op (idempotent).
	pulled, err = sys.ReconcileAS(victim)
	if err != nil {
		t.Fatal(err)
	}
	if pulled != 0 {
		t.Errorf("second ReconcileAS pulled %d, want 0", pulled)
	}

	if _, err := sys.ReconcileAS(-1); err == nil {
		t.Error("negative AS accepted")
	}
	if _, err := sys.ReconcileAS(sys.NumAS()); err == nil {
		t.Error("out-of-range AS accepted")
	}
}

// A restarted node holding local replicas (§III-C) must refresh those
// too, not only its Algorithm-1 global placements.
func TestReconcilePullsLocalReplicas(t *testing.T) {
	sys := newTestSystem(t, 2, true)
	src := 7
	e := store.Entry{
		GUID:    guid.New("mobile"),
		NAs:     []store.NA{{AS: src}},
		Version: 1,
	}
	if _, err := sys.Insert(e, src); err != nil {
		t.Fatal(err)
	}
	if _, ok := mustStore(t, sys, src).Get(e.GUID); !ok {
		t.Fatal("local replica not stored at srcAS")
	}
	e.Version = 2
	if _, err := sys.Update(e, src); err != nil {
		t.Fatal(err)
	}
	// src crashes and loses the local replica entirely.
	sys.stores[src].Store(store.New())
	if _, err := sys.ReconcileAS(src); err != nil {
		t.Fatal(err)
	}
	got, ok := mustStore(t, sys, src).Get(e.GUID)
	if !ok || got.Version != 2 {
		t.Fatalf("local replica after reconcile = (%+v, %v), want v2", got, ok)
	}
}

func mustStore(t *testing.T, sys *System, as int) *store.Store {
	t.Helper()
	st, err := sys.Store(as)
	if err != nil {
		t.Fatal(err)
	}
	return st
}
