package nodesim

import (
	"fmt"
	"runtime"
	"slices"
	"sort"
	"testing"

	"dmap/internal/core"
	"dmap/internal/guid"
	"dmap/internal/netaddr"
	"dmap/internal/prefixtable"
	"dmap/internal/simnet"
	"dmap/internal/store"
	"dmap/internal/topology"
)

// testDeployment builds a small generated world: topology, DFZ, resolver,
// node table, event-driven deployment.
func testDeployment(t *testing.T, k int, local bool) (*Deployment, *topology.Graph) {
	t.Helper()
	g, err := topology.Generate(topology.SmallGenConfig(200, 21))
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := prefixtable.Generate(prefixtable.GenConfig{
		NumAS:       g.NumAS(),
		NumPrefixes: 3000,
		Seed:        21,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.NewResolver(guid.MustHasher(k, 0), tbl, 0)
	if err != nil {
		t.Fatal(err)
	}
	nodes, err := NewNodes(res, g.NumAS(), local)
	if err != nil {
		t.Fatal(err)
	}
	cache, err := topology.NewDistCache(g, 64)
	if err != nil {
		t.Fatal(err)
	}
	d, err := NewDeployment(nodes, cache)
	if err != nil {
		t.Fatal(err)
	}
	return d, g
}

// write stores e from AS src with the shipped client on the link and
// returns the placements acked and how long it took.
func write(t *testing.T, d *Deployment, src int, e store.Entry) (int, simnet.Time) {
	t.Helper()
	start := d.Sim().Now()
	acks, err := d.Write(src, e)
	if err != nil {
		t.Fatal(err)
	}
	return acks, d.Sim().Now() - start
}

// read resolves g from AS src with the shipped client on the link.
func read(t *testing.T, d *Deployment, src int, g guid.GUID) LookupResult {
	t.Helper()
	r, err := d.Read(src, g)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func entryFor(name string, version uint64, as int) store.Entry {
	return store.Entry{
		GUID:    guid.New(name),
		NAs:     []store.NA{{AS: as, Addr: netaddr.AddrFromOctets(10, 0, 0, 1)}},
		Version: version,
	}
}

func TestInsertThenLookup(t *testing.T) {
	d, _ := testDeployment(t, 5, false)
	e := entryFor("laptop", 1, 42)

	acks, took := write(t, d, 42, e)
	if acks != 5 {
		t.Errorf("acks = %d, want 5", acks)
	}
	if took <= 0 {
		t.Error("insert latency must be positive")
	}

	res := read(t, d, 17, e.GUID)
	if !res.Found {
		t.Fatalf("lookup result = %+v", res)
	}
	if res.Entry.NAs[0].AS != 42 {
		t.Errorf("entry = %+v", res.Entry)
	}
	if res.Attempts != 1 {
		t.Errorf("attempts = %d", res.Attempts)
	}
	if res.Latency <= 0 {
		t.Error("lookup latency must be positive")
	}
}

// TestPreloadMakesNoNode: a preload fills the replica set's stores and
// makes no node; the first frame an AS serves makes its node, over the
// store the preload filled.
func TestPreloadMakesNoNode(t *testing.T) {
	d, _ := testDeployment(t, 3, true)
	e := entryFor("preloaded", 1, 42)
	if err := d.nodes.Preload(e); err != nil {
		t.Fatal(err)
	}
	reps, err := d.nodes.ReplicaASs(e, nil)
	if err != nil {
		t.Fatal(err)
	}
	for as := range d.nodes.ases {
		h := &d.nodes.ases[as]
		if h.node.Load() != nil {
			t.Fatalf("AS %d has a node before serving a frame", as)
		}
		if held := h.st.Load() != nil && h.st.Load().Len() == 1; held != slices.Contains(reps, as) {
			t.Errorf("AS %d holds the entry: %v; in its replica set %v: %v", as, held, reps, slices.Contains(reps, as))
		}
	}
	r := read(t, d, 17, e.GUID)
	if !r.Found || r.UsedLocal {
		t.Fatalf("lookup = %+v, want a replica's answer", r)
	}
	for as := range d.nodes.ases {
		n := d.nodes.ases[as].node.Load()
		if served := n != nil; served != (as == r.ServedBy) {
			t.Errorf("AS %d has a node: %v; served the lookup: %v", as, served, as == r.ServedBy)
		}
		if n != nil && n.Store() != d.nodes.ases[as].st.Load() {
			t.Errorf("AS %d's node is over another store", as)
		}
	}
}

// TestClientStartsNoGoroutine: on the link the shipped client's fan-out
// and walk run on the caller's goroutine — no dial beside it, no reader
// for its replies.
func TestClientStartsNoGoroutine(t *testing.T) {
	d, _ := testDeployment(t, 5, false)
	e := entryFor("solo", 1, 42)
	write(t, d, 42, e)
	before := runtime.NumGoroutine()
	most, samples, done := before, 0, false
	var sample func() // every 100 µs of virtual time while the lookup runs
	sample = func() {
		most, samples = max(most, runtime.NumGoroutine()), samples+1
		if !done {
			_ = d.Sim().After(100, sample)
		}
	}
	if err := d.Sim().After(0, sample); err != nil {
		t.Fatal(err)
	}
	res := read(t, d, 17, e.GUID)
	done = true
	if !res.Found || samples < 2 {
		t.Fatalf("lookup result = %+v after %d samples", res, samples)
	}
	if after := runtime.NumGoroutine(); most != before || after != before {
		t.Errorf("%d goroutines before, at most %d during the lookup, %d after", before, most, after)
	}
}

// TestLookupMissingGUID: a never-inserted GUID is missing at every
// replica, so the walk asks each distinct replica AS once, asks the
// closest once more (the all-miss re-ask), and fails.
func TestLookupMissingGUID(t *testing.T) {
	d, _ := testDeployment(t, 3, false)
	g := guid.New("ghost")
	placements, err := d.nodes.res.Place(g)
	if err != nil {
		t.Fatal(err)
	}
	distinct := map[int]bool{}
	for _, p := range placements {
		distinct[p.AS] = true
	}
	res := read(t, d, 0, g)
	if res.Found {
		t.Error("found a never-inserted GUID")
	}
	if want := len(distinct) + 1; res.Attempts != want {
		t.Errorf("attempts = %d, want %d distinct replica ASs and one re-ask", res.Attempts, want)
	}
}

func TestUpdateLatencyIsMaxOverReplicas(t *testing.T) {
	d, g := testDeployment(t, 5, false)
	e := entryFor("upd", 1, 3)
	placements, err := d.nodes.res.Place(e.GUID)
	if err != nil {
		t.Fatal(err)
	}
	cache, err := topology.NewDistCache(g, 8)
	if err != nil {
		t.Fatal(err)
	}
	var want simnet.Time
	for _, p := range placements {
		if rtt := cache.RTT(3, p.AS); rtt > want {
			want = rtt
		}
	}
	if _, took := write(t, d, 3, e); took != want {
		t.Errorf("insert latency = %v, want max replica RTT %v", took, want)
	}
}

func TestLocalReplicaWinsAtHome(t *testing.T) {
	d, g := testDeployment(t, 5, true)
	const home = 50
	e := entryFor("homebody", 1, home)
	write(t, d, home, e)
	d.Sim().Run(0)

	res := read(t, d, home, e.GUID)
	if !res.Found {
		t.Fatalf("result = %+v", res)
	}
	if !res.UsedLocal {
		// A global replica can only beat the local copy if co-located.
		if res.ServedBy != home {
			t.Errorf("expected local win, got %+v", res)
		}
	}
	if want := 2 * g.Intra(home); res.Latency > want {
		t.Errorf("latency = %v, want ≤ local RTT %v", res.Latency, want)
	}
}

// TestCrashedReplicaCostsTimeout: a replica inside a crash window answers
// nothing, so the querier pays its timeout before the next replica serves.
func TestCrashedReplicaCostsTimeout(t *testing.T) {
	d, _ := testDeployment(t, 2, false)
	e := entryFor("crashy", 1, 7)
	write(t, d, 7, e)
	d.Sim().Run(0)

	// Determine the querier's replica order and crash the first.
	placements, err := d.nodes.res.Place(e.GUID)
	if err != nil {
		t.Fatal(err)
	}
	const src = 99
	first := placements[0].AS
	if d.rtt(src, placements[1].AS) < d.rtt(src, first) {
		first = placements[1].AS
	}
	crash(t, d, first)

	res := read(t, d, src, e.GUID)
	if !res.Found {
		t.Fatalf("result = %+v", res)
	}
	if res.Attempts != 2 {
		t.Errorf("attempts = %d, want 2", res.Attempts)
	}
	if res.Latency < DefaultTimeout {
		t.Errorf("latency %v should include the %v timeout", res.Latency, DefaultTimeout)
	}
	if res.ServedBy == first {
		t.Error("served by the crashed replica")
	}
}

// TestLookupMissRetries: a replica that answers "GUID missing" (a
// churn inconsistency, §III-D1) costs its round trip, then the querier
// asks the next replica in RTT order.
func TestLookupMissRetries(t *testing.T) {
	d, _ := testDeployment(t, 5, false)
	sys := d.nodes
	e := entryFor("churny", 1, 9)
	placements, err := sys.res.Place(e.GUID)
	if err != nil {
		t.Fatal(err)
	}
	// The querier's order: RTT, then AS on ties. The first two distinct
	// ASs in it never receive the entry; every other placement does.
	const src = 50
	order := make([]int, len(placements))
	for i, p := range placements {
		order[i] = p.AS
	}
	sort.Slice(order, func(i, j int) bool {
		ri, rj := d.rtt(src, order[i]), d.rtt(src, order[j])
		if ri != rj {
			return ri < rj
		}
		return order[i] < order[j]
	})
	missing := make(map[int]bool)
	for _, as := range order {
		if len(missing) < 2 {
			missing[as] = true
		}
	}
	for _, as := range order {
		if missing[as] {
			continue
		}
		st, err := sys.store(as)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := st.Put(e); err != nil {
			t.Fatal(err)
		}
	}
	// Every leading replica in a missing AS costs its RTT; the first in
	// a holding AS answers.
	wantAttempts := 0
	var wantLatency simnet.Time
	for _, as := range order {
		wantAttempts++
		wantLatency += d.rtt(src, as)
		if !missing[as] {
			break
		}
	}
	if wantAttempts < 3 {
		t.Fatalf("replica order %v leaves no miss to retry past; pick another GUID", order)
	}

	res := read(t, d, src, e.GUID)
	if !res.Found {
		t.Fatalf("result = %+v", res)
	}
	if res.Attempts != wantAttempts {
		t.Errorf("attempts = %d, want %d", res.Attempts, wantAttempts)
	}
	if res.Latency != wantLatency {
		t.Errorf("latency = %v, want cumulative %v", res.Latency, wantLatency)
	}
	if missing[res.ServedBy] {
		t.Errorf("served by a missing AS %d", res.ServedBy)
	}
}

// TestCollidedDeadReplicaCostsOneTimeout: two placements on one crashed
// AS are one replica to the walk, asked once, so the lookup gives up
// after one timeout, not two.
func TestCollidedDeadReplicaCostsOneTimeout(t *testing.T) {
	d, _ := testDeployment(t, 2, false)
	var e store.Entry
	var as int
	for i := 0; ; i++ {
		if i == 10000 {
			t.Fatal("no GUID with both placements on one AS")
		}
		e = entryFor(fmt.Sprintf("collided-%d", i), 1, 7)
		placements, err := d.nodes.res.Place(e.GUID)
		if err != nil {
			t.Fatal(err)
		}
		if as = placements[0].AS; placements[1].AS == as && as != 99 {
			break
		}
	}
	if err := d.nodes.Preload(e); err != nil {
		t.Fatal(err)
	}
	crash(t, d, as)

	res := read(t, d, 99, e.GUID)
	if res.Found {
		t.Fatalf("result = %+v, want a failed lookup", res)
	}
	if res.Attempts != 1 || res.Latency != DefaultTimeout {
		t.Errorf("attempts %d, latency %v; want one attempt costing one %v timeout",
			res.Attempts, res.Latency, DefaultTimeout)
	}
}

// TestAllMissedAsksClosestAgain: when every replica answers "missing",
// the walk asks the closest one once more — churn is transient and
// §III-D1 pulls the copy on the first miss — and that answer counts.
func TestAllMissedAsksClosestAgain(t *testing.T) {
	d, _ := testDeployment(t, 3, false)
	const src = 50
	e := entryFor("all-missed", 1, 9)
	placements, err := d.nodes.res.Place(e.GUID)
	if err != nil {
		t.Fatal(err)
	}
	closest := placements[0].AS
	var sum simnet.Time
	seen := map[int]bool{}
	for _, p := range placements {
		if seen[p.AS] {
			continue
		}
		seen[p.AS] = true
		sum += d.rtt(src, p.AS)
		if r := d.rtt(src, p.AS); r < d.rtt(src, closest) || (r == d.rtt(src, closest) && p.AS < closest) {
			closest = p.AS
		}
	}
	// No replica holds the entry when asked; the closest gets its copy
	// back once its "missing" answer is home, before the re-ask arrives.
	st, err := d.nodes.store(closest)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Sim().At(d.rtt(src, closest), func() {
		if _, err := st.Put(e); err != nil {
			t.Error(err)
		}
	}); err != nil {
		t.Fatal(err)
	}

	res := read(t, d, src, e.GUID)
	if !res.Found || res.ServedBy != closest {
		t.Fatalf("result = %+v, want the closest replica %d to answer the re-ask", res, closest)
	}
	if want := sum + d.rtt(src, closest); res.Latency != want || res.Attempts != len(seen)+1 {
		t.Errorf("latency %v, attempts %d; want %v over %d attempts", res.Latency, res.Attempts, want, len(seen)+1)
	}
}

// TestLookupAllCrashedFallsBackToLocal: with every global replica inside
// a crash window, the §III-C local copy still answers, at its intra-AS
// round trip.
func TestLookupAllCrashedFallsBackToLocal(t *testing.T) {
	d, g := testDeployment(t, 2, true)
	sys := d.nodes
	const home = 77
	e := entryFor("resilient", 1, home)
	if err := sys.Preload(e); err != nil {
		t.Fatal(err)
	}
	placements, err := sys.res.Place(e.GUID)
	if err != nil {
		t.Fatal(err)
	}
	plan := &simnet.FaultPlan{}
	for _, p := range placements {
		if p.AS == home {
			t.Fatalf("home AS %d is a placement; pick another GUID", home)
		}
		plan.Crashes = append(plan.Crashes, simnet.CrashWindow{Node: p.AS}) // down for good
	}
	if err := d.Network().SetFaults(plan); err != nil {
		t.Fatal(err)
	}

	res := read(t, d, home, e.GUID)
	if !res.Found || !res.UsedLocal || res.Entry.GUID != e.GUID {
		t.Fatalf("result = %+v, want the local copy", res)
	}
	if want := 2 * g.Intra(home); res.Latency != want {
		t.Errorf("latency = %v, want local RTT %v", res.Latency, want)
	}
}

// TestCrashWindowStopsLocalRead: a querier inside a crash window has no
// §III-C local copy to answer from — its process is down, not only its
// links — and every request it sends is lost, so the lookup fails after
// its timeouts; once the window is gone the local copy answers again.
func TestCrashWindowStopsLocalRead(t *testing.T) {
	d, _ := testDeployment(t, 2, true)
	const home = 50
	e := entryFor("grounded", 1, home)
	write(t, d, home, e)
	d.Sim().Run(0)

	crash(t, d, home)
	down := read(t, d, home, e.GUID)
	if down.Found || down.UsedLocal {
		t.Fatalf("lookup from inside a crash window = %+v, want a miss with no local read", down)
	}

	restore(t, d)
	up := read(t, d, home, e.GUID)
	if !up.Found || (!up.UsedLocal && up.ServedBy != home) {
		t.Fatalf("lookup after the window = %+v, want the local copy", up)
	}
}

func TestMobilityRaceObservesOldThenNew(t *testing.T) {
	// §III-D2: a query issued right after a move can return the old
	// mapping; the querier marks it obsolete and re-checks.
	d, _ := testDeployment(t, 3, false)
	e1 := entryFor("vehicle", 1, 10)
	write(t, d, 10, e1)
	d.Sim().Run(0)

	// The vehicle moves to AS 20 (version 2) at t0; a distant node
	// queries at t0+1µs, racing the update's propagation: two client
	// calls, each on a goroutine of its own, concurrent in virtual time.
	e2 := entryFor("vehicle", 2, 20)
	t0 := d.Sim().Now()
	if err := d.Sim().Go(t0, func() {
		if _, err := d.Write(20, e2); err != nil {
			t.Error(err) // not Fatal: this is not the test's goroutine
		}
	}); err != nil {
		t.Fatal(err)
	}
	var raced LookupResult
	if err := d.Sim().Go(t0+1, func() {
		var err error
		if raced, err = d.Read(150, e1.GUID); err != nil {
			t.Error(err)
		}
	}); err != nil {
		t.Fatal(err)
	}
	d.Sim().Run(0)
	if !raced.Found {
		t.Fatalf("raced result = %+v", raced)
	}
	// Either version may win the race, but a version-1 answer must be
	// recognizably stale; re-querying afterwards must see version 2.
	settled := read(t, d, 150, e1.GUID)
	if !settled.Found {
		t.Fatal("settled lookup failed")
	}
	if settled.Entry.Version != 2 || settled.Entry.NAs[0].AS != 20 {
		t.Errorf("settled entry = %+v, want version 2 at AS 20", settled.Entry)
	}
}

func TestStaleUpdateNeverRollsBack(t *testing.T) {
	d, _ := testDeployment(t, 3, false)
	eNew := entryFor("rollback", 5, 30)
	eOld := entryFor("rollback", 4, 10)
	write(t, d, 30, eNew)
	d.Sim().Run(0)
	write(t, d, 10, eOld)
	d.Sim().Run(0)
	res := read(t, d, 0, eNew.GUID)
	if !res.Found || res.Entry.Version != 5 {
		t.Fatalf("result = %+v, want version 5 preserved", res)
	}
}

func TestRestore(t *testing.T) {
	d, _ := testDeployment(t, 1, false)
	e := entryFor("backup", 1, 5)
	write(t, d, 5, e)
	d.Sim().Run(0)
	placements, _ := d.nodes.res.Place(e.GUID)
	crash(t, d, placements[0].AS)

	down := read(t, d, 0, e.GUID)
	if down.Found {
		t.Fatalf("lookup against crashed sole replica = %+v, want not found", down)
	}

	restore(t, d)
	up := read(t, d, 0, e.GUID)
	if !up.Found {
		t.Fatalf("lookup after restore = %+v", up)
	}
}

func TestChurnWithdrawDuringLiveTraffic(t *testing.T) {
	// §III-D1 end to end in the event engine: insert a population, start
	// a steady lookup stream, withdraw a replica-hosting prefix (with
	// migration) mid-stream, and require every lookup to succeed.
	d, _ := testDeployment(t, 3, false)
	sys := d.nodes

	entries := make([]store.Entry, 0, 30)
	for i := 1; i <= 30; i++ {
		e := store.Entry{
			GUID:    guid.FromUint64(uint64(i)),
			NAs:     []store.NA{{AS: i % 50}},
			Version: 1,
		}
		entries = append(entries, e)
		write(t, d, i%50, e)
	}
	d.Sim().Run(0)

	// Pick a victim prefix: the one hosting entry 7's replica 1.
	pl, err := sys.res.PlaceReplica(entries[7].GUID, 1)
	if err != nil {
		t.Fatal(err)
	}
	pfx, ok := sys.res.Table().Lookup(pl.Addr)
	if !ok {
		t.Fatal("placement prefix missing")
	}

	failures := 0
	completed := 0
	// Schedule lookups before, during and after the withdrawal (the
	// clock already advanced past the inserts).
	base := d.Sim().Now()
	for i, e := range entries {
		e := e
		at := base + simnet.Time(i)*1_000_000
		if err := d.Sim().Go(at, func() {
			r, err := d.Read(90, e.GUID)
			if err != nil {
				t.Error(err)
			}
			completed++
			if !r.Found {
				failures++
			}
		}); err != nil {
			t.Fatal(err)
		}
	}
	// The withdrawal (with §III-D1 migration) fires mid-stream.
	if err := d.Sim().At(base+15_000_000, func() {
		if _, err := sys.WithdrawPrefix(pfx.Prefix, pfx.AS); err != nil {
			t.Error(err)
		}
	}); err != nil {
		t.Fatal(err)
	}
	d.Sim().Run(0)

	if completed != len(entries) {
		t.Fatalf("completed %d/%d lookups", completed, len(entries))
	}
	if failures != 0 {
		t.Fatalf("%d lookups failed across the withdrawal", failures)
	}
}
