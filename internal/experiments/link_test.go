package experiments

import (
	"sync"
	"testing"

	"dmap/internal/core"
	"dmap/internal/guid"
	"dmap/internal/netaddr"
	"dmap/internal/nodesim"
	"dmap/internal/store"
	"dmap/internal/topology"
)

// findGUID returns the first GUID whose placements under res satisfy ok.
func findGUID(t *testing.T, res *core.Resolver, ok func([]core.Placement) bool) (guid.GUID, []core.Placement) {
	t.Helper()
	for i := uint64(1); i <= 1_000_000; i++ {
		g := guid.FromUint64(i)
		ps, err := res.Place(g)
		if err != nil {
			t.Fatal(err)
		}
		if ok(ps) {
			return g, ps
		}
	}
	t.Fatal("no GUID places as asked")
	return guid.GUID{}, nil
}

// holding returns a node table over w placing with res that holds g.
func holding(t *testing.T, w *World, res *core.Resolver, g guid.GUID) *nodesim.Nodes {
	t.Helper()
	nodes, err := nodesim.NewNodes(res, w.NumAS(), false)
	if err != nil {
		t.Fatal(err)
	}
	if err := nodes.Preload(store.Entry{GUID: g, NAs: []store.NA{{AS: 1, Addr: netaddr.Addr(1)}}, Version: 1}); err != nil {
		t.Fatal(err)
	}
	return nodes
}

// rttFrom returns the round trip from src to each AS, in µs.
func rttFrom(w *World, src int) func(as int) int64 {
	dist := make([]topology.Micros, w.NumAS())
	w.Graph.Dijkstra(src, dist)
	return func(as int) int64 { return int64(w.Graph.RTT(src, as, dist)) }
}

// TestWalkAsksEachASOnce: two placements on one dead AS are one replica
// to the walk, so they cost one timeout before the next replica answers.
func TestWalkAsksEachASOnce(t *testing.T) {
	w := testWorld(t)
	res := w.resolver(3, false)
	g, ps := findGUID(t, res, func(ps []core.Placement) bool {
		return ps[0].AS == ps[2].AS && ps[0].AS != ps[1].AS && ps[0].AS != 0 && ps[1].AS != 0
	})
	const src = 0
	deadAS, liveAS := ps[0].AS, ps[1].AS
	l := w.newLink(holding(t, w, res, g), true)
	l.aim(src)
	// Least hops puts the dead AS first whatever the RTTs.
	for as := range l.hops {
		l.hops[as] = 1
	}
	l.hops[deadAS] = 0
	failed := make([]bool, w.NumAS())
	failed[deadAS] = true
	r, err := l.dep.Lookup(res, &nodesim.Faults{Failed: failed, Timeout: nodesim.DefaultTimeout}, src, 0, -1, g)
	if err != nil {
		t.Fatal(err)
	}
	want := nodesim.DefaultTimeout + w.Graph.RTT(src, liveAS, l.dist)
	if !r.Found || r.ServedBy != liveAS || r.Latency != want || r.Attempts != 2 || r.Timeouts != 1 || r.Failovers != 1 {
		t.Errorf("walk %+v, want two attempts, one timeout, one failover and AS %d at %v", r, liveAS, want)
	}
}

// TestSelectLeastHops: with hop counts the walk asks the fewest-hops
// replica first even when it is the farthest by RTT; without them, the
// lowest-RTT one.
func TestSelectLeastHops(t *testing.T) {
	w := testWorld(t)
	res := w.resolver(5, false)
	const src = 0
	rtt := rttFrom(w, src)
	var nearest, farthest int
	g, _ := findGUID(t, res, func(ps []core.Placement) bool {
		seen := map[int64]bool{}
		nearest, farthest = ps[0].AS, ps[0].AS
		for _, p := range ps {
			if p.AS == src || seen[rtt(p.AS)] {
				return false
			}
			seen[rtt(p.AS)] = true
			if rtt(p.AS) < rtt(nearest) {
				nearest = p.AS
			}
			if rtt(p.AS) > rtt(farthest) {
				farthest = p.AS
			}
		}
		return true
	})
	nodes := holding(t, w, res, g)
	for _, leastHops := range []bool{false, true} {
		l := w.newLink(nodes, leastHops)
		l.aim(src)
		want := nearest
		if leastHops {
			for as := range l.hops {
				l.hops[as] = 100
			}
			l.hops[farthest] = 1
			want = farthest
		}
		r, err := l.dep.Lookup(res, &nodesim.Faults{}, src, 0, -1, g)
		if err != nil {
			t.Fatal(err)
		}
		if int64(r.Latency) != rtt(want) || r.ServedBy != want || r.Attempts != 1 || r.UsedLocal || r.Misses != 0 {
			t.Errorf("leastHops=%v: %+v, want one attempt at AS %d", leastHops, r, want)
		}
	}
}

// TestLateRepliesTimeOut: a reply that comes at the attempt's timeout or
// later is a timeout — the client settles the attempt at its timeout and
// drops the late reply, as over TCP — so a lookup whose every replica is
// that far fails; one microsecond more and the nearest one answers.
func TestLateRepliesTimeOut(t *testing.T) {
	w := testWorld(t)
	res := w.resolver(2, false)
	const src = 0
	rtt := rttFrom(w, src)
	g, ps := findGUID(t, res, func(ps []core.Placement) bool {
		return ps[0].AS != src && ps[1].AS != src && rtt(ps[0].AS) != rtt(ps[1].AS)
	})
	near := ps[0].AS
	if rtt(ps[1].AS) < rtt(near) {
		near = ps[1].AS
	}
	l := w.newLink(holding(t, w, res, g), false)
	l.aim(src)
	at := &nodesim.Faults{Timeout: topology.Micros(rtt(near))}
	r, err := l.dep.Lookup(res, at, src, 0, -1, g)
	if err != nil {
		t.Fatal(err)
	}
	if r.Found || r.Latency != 2*at.Timeout || r.Attempts != 2 || r.Timeouts != 2 || r.Failovers != 1 {
		t.Errorf("timeout at the nearest RTT: %+v, want two timeouts and no answer", r)
	}
	after := &nodesim.Faults{Timeout: at.Timeout + 1}
	if r, err = l.dep.Lookup(res, after, src, 1, -1, g); err != nil {
		t.Fatal(err)
	}
	if !r.Found || r.ServedBy != near || r.Latency != at.Timeout || r.Timeouts != 0 {
		t.Errorf("timeout past the nearest RTT: %+v, want AS %d at %v", r, near, at.Timeout)
	}
}

// TestFigurePathIsTheClients: a figure's lookups are frames the shipped
// nodes serve. Over a fault-free RunLatency cell without local copies,
// run on several workers at once over the one shared node table, the
// nodes served exactly the lookup frames the cell's walks sent, and hit
// for exactly the lookups the cell found; and each node keeps one set of
// books: its served lookups are its store's reads.
func TestFigurePathIsTheClients(t *testing.T) {
	w := testWorld(t)
	cfg := LatencyConfig{Ks: []int{3}, NumGUIDs: 200, NumLookups: 2000, Seed: 5, Workers: 3}
	lat, err := RunLatency(w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	trace, err := w.lookupTrace(cfg.NumGUIDs, cfg.NumLookups, cfg.Seed)
	if err != nil {
		t.Fatal(err)
	}
	res := w.resolver(3, false)
	var (
		mu    sync.Mutex
		table *nodesim.Deployment // any worker's: each is over the one table
		sent  int64
	)
	sums, err := w.sweep(trace, []cell{{res: res, f: &nodesim.Faults{}}}, false, cfg.Workers,
		func(_, _ int, d *nodesim.Deployment, r nodesim.LookupResult) {
			mu.Lock()
			table = d
			sent += int64(r.Attempts)
			mu.Unlock()
		})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := sums[0].col.Summarize(), lat.PerK[3].Summarize(); got != want {
		t.Fatalf("sweep %+v, RunLatency %+v: not the figure's cell", got, want)
	}
	if table == nil {
		t.Fatal("the sweep ran no lookup")
	}
	var lookups, hits int64
	for as := 0; as < w.NumAS(); as++ {
		n, err := table.Node(as)
		if err != nil {
			t.Fatal(err)
		}
		lookups += n.Stats().Lookups
		hits += n.Stats().Hits
		if l, g := n.Metrics().Counter("server.lookups").Value(), n.Metrics().Counter("store.gets").Value(); l != g {
			t.Errorf("AS %d: node served %d lookups, its store counted %d reads", as, l, g)
		}
	}
	if found := int64(sums[0].col.N()); lookups != sent || hits != found || found == 0 {
		t.Errorf("nodes served %d lookups with %d hits; the walks sent %d and found %d", lookups, hits, sent, found)
	}
}
