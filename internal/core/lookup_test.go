package core_test

import (
	"testing"

	"dmap/internal/core"
	"dmap/internal/guid"
	"dmap/internal/netaddr"
	"dmap/internal/nodesim"
	"dmap/internal/simnet"
	"dmap/internal/store"
	"dmap/internal/topology"
)

// The lookup walk over core's placements is the shipped client's; these
// tests drive it over nodesim's simulated link on a node table built
// here, so core's K placements are what the walk tries.

// flatOracle makes the RTT between ASs a and b |a-b|+1 ms: enough
// structure for "closest replica first" to be observable.
type flatOracle struct{}

func (flatOracle) OneWay(a, b int) topology.Micros {
	d := a - b
	if d < 0 {
		d = -d
	}
	return topology.MicrosFromMillis(float64(d+1) / 2)
}

func flatRTT(a, b int) topology.Micros {
	return flatOracle{}.OneWay(a, b) + flatOracle{}.OneWay(b, a)
}

// lookupDeployment builds a K-replica node table over a generated
// 500-AS table and puts it on a simulated link.
func lookupDeployment(t *testing.T, k int) (*nodesim.Deployment, *nodesim.Nodes, *core.Resolver) {
	t.Helper()
	nodes, res := newTestNodes(t, k, false)
	d, err := nodesim.NewDeployment(nodes, flatOracle{})
	if err != nil {
		t.Fatal(err)
	}
	return d, nodes, res
}

// lookup resolves g from AS src with the shipped client on the link.
func lookup(t *testing.T, d *nodesim.Deployment, src int, g guid.GUID) nodesim.LookupResult {
	t.Helper()
	res, err := d.Read(src, g)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestLookupNotFound(t *testing.T) {
	d, _, _ := lookupDeployment(t, 3)
	res := lookup(t, d, 0, guid.New("ghost"))
	if res.Found {
		t.Fatal("found a never-inserted GUID")
	}
	// Every replica answers "missing" ("ghost"'s three placements are on
	// three ASs), then the walk asks the closest once more.
	if res.Attempts != 4 {
		t.Errorf("attempts = %d, want K=3 replicas tried and one re-ask", res.Attempts)
	}
	if res.Latency <= 0 {
		t.Error("failed lookup still costs time")
	}
}

func TestLookupCrashTimeout(t *testing.T) {
	d, nodes, r := lookupDeployment(t, 2)
	e := store.Entry{
		GUID:    guid.New("crash"),
		NAs:     []store.NA{{AS: 9, Addr: netaddr.AddrFromOctets(10, 0, 0, 1)}},
		Version: 1,
	}
	placements := insert(t, nodes, r, e)
	// Crash the closer replica, for good.
	first, second := placements[0].AS, placements[1].AS
	if flatRTT(0, second) < flatRTT(0, first) || (flatRTT(0, second) == flatRTT(0, first) && second < first) {
		first, second = second, first
	}
	if err := d.Network().SetFaults(&simnet.FaultPlan{
		Crashes: []simnet.CrashWindow{{Node: first, From: d.Sim().Now()}},
	}); err != nil {
		t.Fatal(err)
	}

	res := lookup(t, d, 0, e.GUID)
	if !res.Found || res.ServedBy != second {
		t.Fatalf("result = %+v, want served by AS %d", res, second)
	}
	if want := nodesim.DefaultTimeout + flatRTT(0, second); res.Latency != want {
		t.Errorf("latency = %v, want timeout+retry %v", res.Latency, want)
	}
	if res.Attempts != 2 {
		t.Errorf("attempts = %d", res.Attempts)
	}
}
