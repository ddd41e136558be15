package nodesim

import (
	"fmt"
	"testing"

	"dmap/internal/guid"
	"dmap/internal/simnet"
	"dmap/internal/store"
)

// These tests drive simnet's fault plan through the full protocol stack:
// a crash window at the network layer must look exactly like a crashed
// mapping server to the querier (§III-D3), and a lossy plan must leave
// the discrete-event run bit-reproducible.

// crash installs a fault plan that takes as down from now on.
func crash(t *testing.T, d *Deployment, as int) {
	t.Helper()
	if err := d.Network().SetFaults(&simnet.FaultPlan{
		Crashes: []simnet.CrashWindow{{Node: as, From: d.Sim().Now()}}, // Until ≤ From: down for good
	}); err != nil {
		t.Fatal(err)
	}
}

// restore removes the fault plan: every node is up again, its store as
// the crash left it.
func restore(t *testing.T, d *Deployment) {
	t.Helper()
	if err := d.Network().SetFaults(nil); err != nil {
		t.Fatal(err)
	}
}

func TestFaultPlanCrashLooksLikeDeadReplica(t *testing.T) {
	d, _ := testDeployment(t, 2, false)
	e := entryFor("netcrash", 1, 7)
	write(t, d, 7, e)
	d.Sim().Run(0)

	// The querier tries replicas in RTT order; crash the nearer one: the
	// network eats everything addressed to it.
	placements, err := d.nodes.res.Place(e.GUID)
	if err != nil {
		t.Fatal(err)
	}
	const src = 99
	first := placements[0].AS
	if d.rtt(src, placements[1].AS) < d.rtt(src, first) {
		first = placements[1].AS
	}
	if err := d.Network().SetFaults(&simnet.FaultPlan{
		Crashes: []simnet.CrashWindow{{Node: first}}, // Until ≤ From: down forever
	}); err != nil {
		t.Fatal(err)
	}

	res := read(t, d, src, e.GUID)
	if !res.Found {
		t.Fatalf("result = %+v", res)
	}
	if res.Attempts != 2 {
		t.Errorf("attempts = %d, want 2 (timeout then failover)", res.Attempts)
	}
	if res.Latency < DefaultTimeout {
		t.Errorf("latency %v should include the %v timeout", res.Latency, DefaultTimeout)
	}
	if res.ServedBy == first {
		t.Error("served by the crashed replica")
	}
	if d.Network().FaultStats().CrashDrops == 0 {
		t.Error("no crash drops recorded")
	}

	// Healing the network restores single-attempt lookups.
	if err := d.Network().SetFaults(nil); err != nil {
		t.Fatal(err)
	}
	res = read(t, d, src, e.GUID)
	if !res.Found || res.Attempts != 1 {
		t.Fatalf("post-heal result = %+v, want 1-attempt hit", res)
	}
}

// runLossyWorkload inserts a population and runs lookups under a lossy
// fault plan, returning a printable transcript of every outcome.
func runLossyWorkload(t *testing.T) (string, simnet.FaultStats) {
	t.Helper()
	d, _ := testDeployment(t, 3, false)
	for i := 0; i < 20; i++ {
		e := entryFor(fmt.Sprintf("g%d", i), 1, i)
		write(t, d, i, e)
	}
	d.Sim().Run(0)

	if err := d.Network().SetFaults(&simnet.FaultPlan{
		Seed: 12345,
		Loss: 0.25,
		Crashes: []simnet.CrashWindow{
			{Node: 3, From: d.Sim().Now(), Until: d.Sim().Now() + 10_000_000},
		},
	}); err != nil {
		t.Fatal(err)
	}

	// The lookups run at once, each the shipped client's walk on a
	// goroutine of its own; the transcript is in completion order.
	transcript := ""
	for i := 0; i < 20; i++ {
		i := i
		if err := d.Sim().Go(d.Sim().Now(), func() {
			r, err := d.Read((i*7)%len(d.nodes.ases), entryFor(fmt.Sprintf("g%d", i), 1, i).GUID)
			if err != nil {
				t.Error(err) // not Fatal: this is not the test's goroutine
			}
			transcript += fmt.Sprintf("%d: found=%v attempts=%d servedBy=%d lat=%d\n",
				i, r.Found, r.Attempts, r.ServedBy, r.Latency)
		}); err != nil {
			t.Fatal(err)
		}
	}
	d.Sim().Run(0)
	return transcript, d.Network().FaultStats()
}

func TestFaultPlanDeterministicThroughProtocol(t *testing.T) {
	t1, s1 := runLossyWorkload(t)
	t2, s2 := runLossyWorkload(t)
	if t1 != t2 {
		t.Errorf("lossy runs diverged:\n--- run 1\n%s--- run 2\n%s", t1, t2)
	}
	if s1 != s2 {
		t.Errorf("fault stats diverged: %+v vs %+v", s1, s2)
	}
	if s1.Lost == 0 {
		t.Error("loss plan dropped nothing; workload too small?")
	}
}

// runLossyBatch writes 60 entries with one InsertBatch and reads them
// back with one LookupBatch, under a seeded loss plan, and returns what
// came of it: acks, hits, error, the plan's counters and the virtual
// time the run ended at.
func runLossyBatch(t *testing.T) string {
	t.Helper()
	d, _ := testDeployment(t, 3, false)
	if err := d.Network().SetFaults(&simnet.FaultPlan{Seed: 7, Loss: 0.3}); err != nil {
		t.Fatal(err)
	}
	entries := make([]store.Entry, 60)
	gs := make([]guid.GUID, len(entries))
	for i := range entries {
		entries[i] = entryFor(fmt.Sprintf("lossy-batch-%d", i), 1, 50+i)
		gs[i] = entries[i].GUID
	}
	acks, ierr := d.clientAt(42).InsertBatch(entries)
	_, hits, lerr := d.clientAt(17).LookupBatch(gs)
	return fmt.Sprintf("acks %v (%v)\nhits %v (%v)\n%+v at %d\n",
		acks, ierr, hits, lerr, d.Network().FaultStats(), d.Sim().Now())
}

// TestBatchFaultPlanDeterministicThroughProtocol: a batch starts its
// frames in ascending AS order, so a seeded lossy run replays exactly
// (simnet draws loss in send order, so map order would not replay).
func TestBatchFaultPlanDeterministicThroughProtocol(t *testing.T) {
	first := runLossyBatch(t)
	for run := 2; run <= 4; run++ {
		if again := runLossyBatch(t); again != first {
			t.Fatalf("lossy batch run %d diverged:\n--- run 1\n%s--- run %d\n%s", run, first, run, again)
		}
	}
}
