package nodesim

import (
	"fmt"
	"slices"
	"testing"

	"dmap/internal/guid"
	"dmap/internal/simnet"
	"dmap/internal/store"
)

// replicasOf returns every AS that should hold e.
func replicasOf(t *testing.T, d *Deployment, e store.Entry) []int {
	t.Helper()
	reps, err := d.nodes.ReplicaASs(e, nil)
	if err != nil {
		t.Fatal(err)
	}
	return reps
}

// versionAt reads the stored version of g at as (0 when absent).
func versionAt(t *testing.T, d *Deployment, as int, g guid.GUID) uint64 {
	t.Helper()
	st, err := d.nodes.store(as)
	if err != nil {
		t.Fatal(err)
	}
	v, _ := st.Version(g)
	return v
}

func TestGossipSweepConvergesBothDirections(t *testing.T) {
	d, _ := testDeployment(t, 3, false)
	e := entryFor("pair", 1, 5)
	write(t, d, 5, e)
	d.Sim().Run(0)

	// Diverge the replicas behind the protocol's back: the first holds
	// v3, the second v2, the third loses the entry entirely.
	reps := replicasOf(t, d, e)
	if len(reps) != 3 {
		t.Fatalf("replicas = %v, want 3", reps)
	}
	for i, as := range reps {
		st, err := d.nodes.store(as)
		if err != nil {
			t.Fatal(err)
		}
		switch i {
		case 0:
			up := e
			up.Version = 3
			if _, err := st.Put(up); err != nil {
				t.Fatal(err)
			}
		case 1:
			up := e
			up.Version = 2
			if _, err := st.Put(up); err != nil {
				t.Fatal(err)
			}
		case 2:
			st.Delete(e.GUID)
		}
	}

	// One sweep from the stale middle replica must pull v3 from the
	// first (its copy is fresher) and push to the third, which is
	// missing the GUID: the sweeper's page names it and the third asks
	// for it on the want list.
	if err := d.GossipSweep(reps[1]); err != nil {
		t.Fatal(err)
	}
	d.Sim().Run(0)
	if v := versionAt(t, d, reps[1], e.GUID); v != 3 {
		t.Fatalf("sweeper version = %d, want 3 (pulled from fresher peer)", v)
	}
	if v := versionAt(t, d, reps[2], e.GUID); v < 2 {
		t.Fatalf("lost replica version = %d, want the sweeper's copy pushed back", v)
	}
	st := d.GossipStats()
	if st.Sweeps != 1 || st.DigestsSent == 0 || st.EntriesPulled == 0 || st.EntriesPushed == 0 {
		t.Fatalf("gossip stats = %+v", st)
	}

	// A full round settles the stragglers at the max version.
	if err := d.GossipRound(); err != nil {
		t.Fatal(err)
	}
	d.Sim().Run(0)
	for _, as := range reps {
		if v := versionAt(t, d, as, e.GUID); v != 3 {
			t.Fatalf("replica %d version = %d, want 3", as, v)
		}
	}
}

// TestGossipHealsPartitionDivergence is the chaos test for the repair
// protocol: partition the network, write divergent versions on both
// sides, heal, gossip — every replica (global placements and §III-C
// local copies alike) must converge to the §III-D2 max version within a
// bounded number of rounds.
func TestGossipHealsPartitionDivergence(t *testing.T) {
	d, _ := testDeployment(t, 3, true)
	numAS := len(d.nodes.ases)

	// Seed a population at v1 while the network is whole.
	const n = 25
	entries := make([]store.Entry, n)
	for i := range entries {
		src := (i * 13) % numAS
		entries[i] = entryFor(fmt.Sprintf("heal-%d", i), 1, src)
		write(t, d, src, entries[i])
	}
	d.Sim().Run(0)

	// Split the world in half. Until ≤ From: never heals on its own.
	group := make([]int, 0, numAS/2)
	for as := 0; as < numAS/2; as++ {
		group = append(group, as)
	}
	if err := d.Network().SetFaults(&simnet.FaultPlan{
		Partitions: []simnet.Partition{{From: d.Sim().Now(), Group: group}},
	}); err != nil {
		t.Fatal(err)
	}

	// Divergent writes: v2 from a source inside the group, then v3 from
	// one outside. Each write reaches only the replicas on its side, so
	// the two halves disagree about every entry until repair runs.
	for i := range entries {
		v2 := entries[i]
		v2.Version = 2
		_, _ = d.Write(0, v2) // a side that reaches no replica stores nothing
		v3 := entries[i]
		v3.Version = 3
		_, _ = d.Write(numAS-1, v3)
	}
	d.Sim().Run(0)
	if d.Network().FaultStats().PartitionDrops == 0 {
		t.Fatal("partition dropped nothing; the divergence setup is broken")
	}

	// Heal. Before any gossip the divergence must still be visible:
	// some replica of some entry is below the max version.
	if err := d.Network().SetFaults(nil); err != nil {
		t.Fatal(err)
	}
	const maxVersion = 3
	stale := func() int {
		c := 0
		for _, e := range entries {
			for _, as := range replicasOf(t, d, e) {
				if versionAt(t, d, as, e.GUID) != maxVersion {
					c++
				}
			}
		}
		return c
	}
	if stale() == 0 {
		t.Fatal("replicas converged without gossip; the partition did not bite")
	}

	// Bounded gossip rounds to convergence. One round reconciles every
	// pair that shares a GUID, so a handful is ample slack.
	const maxRounds = 4
	rounds := 0
	for stale() > 0 {
		if rounds++; rounds > maxRounds {
			t.Fatalf("still %d stale replica copies after %d gossip rounds", stale(), maxRounds)
		}
		if err := d.GossipRound(); err != nil {
			t.Fatal(err)
		}
		d.Sim().Run(0)
	}

	gs := d.GossipStats()
	if gs.EntriesPulled+gs.EntriesPushed == 0 {
		t.Fatal("convergence without any repaired entries; stats are lying or the setup was degenerate")
	}
	t.Logf("converged in %d round(s): %+v", rounds, gs)
}

// TestGossipDeterministic pins bit-reproducibility: two identical
// partition-heal-gossip runs must produce identical gossip stats.
func TestGossipDeterministic(t *testing.T) {
	run := func() GossipStats {
		d, _ := testDeployment(t, 2, false)
		for i := 0; i < 12; i++ {
			e := entryFor(fmt.Sprintf("det-%d", i), 1, i)
			write(t, d, i, e)
		}
		d.Sim().Run(0)
		group := []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}
		if err := d.Network().SetFaults(&simnet.FaultPlan{
			Seed:       7,
			Partitions: []simnet.Partition{{From: d.Sim().Now(), Group: group}},
		}); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 12; i++ {
			e := entryFor(fmt.Sprintf("det-%d", i), 2, i)
			_, _ = d.Write((i*3)%len(d.nodes.ases), e) // a side that reaches no replica stores nothing
		}
		d.Sim().Run(0)
		if err := d.Network().SetFaults(nil); err != nil {
			t.Fatal(err)
		}
		for r := 0; r < 2; r++ {
			if err := d.GossipRound(); err != nil {
				t.Fatal(err)
			}
			d.Sim().Run(0)
		}
		return d.GossipStats()
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("gossip runs diverged: %+v vs %+v", a, b)
	}
}

func TestGossipSkipsCrashedNodes(t *testing.T) {
	d, _ := testDeployment(t, 2, false)
	e := entryFor("crashed-sweep", 1, 3)
	write(t, d, 3, e)
	d.Sim().Run(0)
	reps := replicasOf(t, d, e)

	// Diverge, then crash the stale replica: its sweep is a no-op and
	// whatever is sent to it is lost.
	up := e
	up.Version = 2
	st, err := d.nodes.store(reps[0])
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Put(up); err != nil {
		t.Fatal(err)
	}
	crash(t, d, reps[1])
	if err := d.GossipSweep(reps[1]); err != nil {
		t.Fatal(err)
	}
	d.Sim().Run(0)
	if d.GossipStats().Sweeps != 0 {
		t.Fatal("crashed node swept")
	}
	if v := versionAt(t, d, reps[1], e.GUID); v != 1 {
		t.Fatalf("crashed replica advanced to %d", v)
	}

	// Restore: the next full round repairs it.
	restore(t, d)
	if err := d.GossipRound(); err != nil {
		t.Fatal(err)
	}
	d.Sim().Run(0)
	if v := versionAt(t, d, reps[1], e.GUID); v != 2 {
		t.Fatalf("restored replica version = %d, want 2", v)
	}
}

// TestGossipSweepFetchesWhatSweeperLacks: a replica that lost a mapping
// gets it back from its own sweep, with no peer sweeping. The sweeper's
// pages are range-complete over what it shares with each peer, so a
// peer holding a GUID the page lacks pushes it.
func TestGossipSweepFetchesWhatSweeperLacks(t *testing.T) {
	d, _ := testDeployment(t, 3, true)
	const src = 5
	g := entryFor("lost-here", 1, src)
	write(t, d, src, g)
	d.Sim().Run(0)
	a := replicasOf(t, d, g)[0] // a global placement
	if a == src {
		t.Fatal("placement landed on the source AS; pick another source")
	}

	// The source's copy moves ahead to v2; a loses g entirely. a still
	// shares a multihomed mapping with the source, so it sweeps it.
	up := g
	up.Version = 2
	stSrc, err := d.nodes.store(src)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := stSrc.Put(up); err != nil {
		t.Fatal(err)
	}
	stA, err := d.nodes.store(a)
	if err != nil {
		t.Fatal(err)
	}
	stA.Delete(g.GUID)
	h := entryFor("multihomed", 1, a)
	h.NAs = append(h.NAs, store.NA{AS: src, Addr: h.NAs[0].Addr})
	if _, err := stA.Put(h); err != nil {
		t.Fatal(err)
	}

	if err := d.GossipSweep(a); err != nil {
		t.Fatal(err)
	}
	d.Sim().Run(0)
	if v := versionAt(t, d, a, g.GUID); v != 2 {
		t.Fatalf("sweeper holds g at version %d, want 2 fetched from the peer", v)
	}
	if v := versionAt(t, d, src, h.GUID); v != 1 {
		t.Fatalf("peer holds the multihomed mapping at version %d, want it pushed", v)
	}
}

// TestGossipLostReplyAbortsOnlyThatChain: a digest reply lost to a
// partition aborts the sweep to that peer at the deployment's timeout;
// the sweep to the other peer completes, the simulator drains,
// and the next clean round converges the cut-off replica.
func TestGossipLostReplyAbortsOnlyThatChain(t *testing.T) {
	d, _ := testDeployment(t, 3, false)
	e := entryFor("aborted", 1, 7)
	write(t, d, 7, e)
	d.Sim().Run(0)
	reps := replicasOf(t, d, e)
	if len(reps) != 3 {
		t.Fatalf("replicas = %v, want 3", reps)
	}
	a, x, y := reps[0], reps[1], reps[2]
	up := e
	up.Version = 2
	st, err := d.nodes.store(a)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Put(up); err != nil {
		t.Fatal(err)
	}

	// Cut x off just after a's first pages leave: x's reply is lost.
	now := d.Sim().Now()
	if err := d.Network().SetFaults(&simnet.FaultPlan{
		Partitions: []simnet.Partition{{From: now + 1, Until: now + 1_000_000, Group: []int{x}}},
	}); err != nil {
		t.Fatal(err)
	}
	if err := d.GossipSweep(a); err != nil {
		t.Fatal(err)
	}
	d.Sim().Run(0)
	if d.Network().FaultStats().PartitionDrops == 0 {
		t.Fatal("the partition dropped nothing")
	}
	if n := d.GossipInFlight(); n != 0 {
		t.Fatalf("%d sweeps still running after the simulator drained", n)
	}
	if v := versionAt(t, d, y, e.GUID); v != 2 {
		t.Fatalf("uncut peer at version %d: the lost reply aborted its sweep too", v)
	}
	if v := versionAt(t, d, x, e.GUID); v != 1 {
		t.Fatalf("cut-off peer at version %d, want its sweep aborted", v)
	}

	if err := d.Network().SetFaults(nil); err != nil {
		t.Fatal(err)
	}
	if err := d.GossipRound(); err != nil {
		t.Fatal(err)
	}
	d.Sim().Run(0)
	for _, as := range reps {
		if v := versionAt(t, d, as, e.GUID); v != 2 {
			t.Fatalf("replica %d at version %d after a clean round, want 2", as, v)
		}
	}
}

// TestGossipHealsCopyOutsideReplicaSet: after a move, the former
// attachment AS still holds its §III-C local copy, but the fresh
// mapping's replica set no longer names it. The placements decide scope
// from their fresh copies and leave it out; the stale AS's own sweep
// still names the GUID, and the placements compare it and push the
// fresh copy. After one round no copy anywhere is stale — a lookup from
// the former attachment AS would otherwise race its stale local copy.
func TestGossipHealsCopyOutsideReplicaSet(t *testing.T) {
	d, _ := testDeployment(t, 3, true)
	const from, to = 5, 9
	e := entryFor("mover", 1, from)
	write(t, d, from, e)
	d.Sim().Run(0)
	moved := entryFor("mover", 2, to)
	reps := replicasOf(t, d, moved)
	if slices.Contains(reps, from) {
		t.Fatalf("replica set %v still names the former attachment AS %d; pick another", reps, from)
	}
	// The move reaches every replica but leaves the old local copy.
	write(t, d, to, moved)
	d.Sim().Run(0)
	if v := versionAt(t, d, from, e.GUID); v != 1 {
		t.Fatalf("former attachment AS at version %d before gossip, want its stale 1", v)
	}

	if err := d.GossipRound(); err != nil {
		t.Fatal(err)
	}
	d.Sim().Run(0)
	for as := 0; as < len(d.nodes.ases); as++ {
		if v := versionAt(t, d, as, e.GUID); v != 0 && v != 2 {
			t.Fatalf("AS %d holds version %d after a round, want 2", as, v)
		}
	}
}
