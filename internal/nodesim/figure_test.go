package nodesim

import (
	"math/rand"
	"testing"

	"dmap/internal/core"
	"dmap/internal/guid"
	"dmap/internal/netaddr"
	"dmap/internal/prefixtable"
	"dmap/internal/store"
	"dmap/internal/topology"
)

// figureGUIDs is how many GUIDs a figureWorld holds; its lookups cycle
// over them.
const figureGUIDs = 256

// figureWorld is the figure path's inner loop at unit scale: a 2,000-AS
// world whose node table holds figureGUIDs mappings at K = 3 with §III-C
// local copies, and one deployment aimed at one querier, whose Dijkstra
// row answers every latency — what an engine worker runs a source's
// lookups on.
type figureWorld struct {
	d     *Deployment
	res   *core.Resolver
	src   int
	homes []int
	f     Faults
}

// row is a LatencyOracle from one querier's Dijkstra row: every message
// of a lookup runs between the querier and a replica.
type row struct {
	g    *topology.Graph
	src  int
	dist []topology.Micros
}

func (r *row) OneWay(a, b int) topology.Micros {
	if b == r.src {
		a, b = b, a
	}
	return r.g.OneWay(a, b, r.dist)
}

func newFigureWorld(tb testing.TB) *figureWorld {
	tb.Helper()
	const numAS = 2000
	g, err := topology.Generate(topology.SmallGenConfig(numAS, 3))
	if err != nil {
		tb.Fatal(err)
	}
	tbl, err := prefixtable.Generate(prefixtable.GenConfig{NumAS: numAS, NumPrefixes: 12000, Seed: 3})
	if err != nil {
		tb.Fatal(err)
	}
	res, err := core.NewResolver(guid.MustHasher(3, 0), tbl, 0)
	if err != nil {
		tb.Fatal(err)
	}
	nodes, err := NewNodes(res, numAS, true)
	if err != nil {
		tb.Fatal(err)
	}
	w := &figureWorld{res: res, src: 17, homes: make([]int, figureGUIDs)}
	rng := rand.New(rand.NewSource(3))
	es := make([]store.Entry, figureGUIDs)
	for i := range es {
		w.homes[i] = rng.Intn(numAS)
		es[i] = store.Entry{
			GUID:    guid.FromUint64(uint64(i) + 1),
			NAs:     []store.NA{{AS: w.homes[i], Addr: netaddr.Addr(i)}},
			Version: 1,
		}
	}
	if err := nodes.Preload(es...); err != nil {
		tb.Fatal(err)
	}
	o := &row{g: g, src: w.src, dist: make([]topology.Micros, numAS)}
	g.Dijkstra(w.src, o.dist)
	if w.d, err = NewDeployment(nodes, o); err != nil {
		tb.Fatal(err)
	}
	return w
}

// lookup is trace lookup i: GUID i mod figureGUIDs from the querier.
func (w *figureWorld) lookup(tb testing.TB, i int) {
	gi := i % figureGUIDs
	r, err := w.d.Lookup(w.res, &w.f, w.src, i, w.homes[gi], guid.FromUint64(uint64(gi)+1))
	if err != nil || !r.Found {
		tb.Fatalf("lookup %d: %+v, %v", i, r, err)
	}
}

// BenchmarkFigureLookup is the figure path's owner benchmark: one
// Deployment.Lookup, the shipped client's walk over the link to the
// table's nodes, as every Fig. 4/5 and Table I lookup runs.
func BenchmarkFigureLookup(b *testing.B) {
	w := newFigureWorld(b)
	for i := 0; i < figureGUIDs; i++ {
		w.lookup(b, i) // the client, every serving node
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.lookup(b, i)
	}
}

// figureLookupAllocs is what a warm figure lookup allocates, as
// measured: the link's reply, its timer and the request's copy, the
// simulator's two deliveries, the node's encoded reply and its copy, and
// the entry the client decodes.
const figureLookupAllocs = 14

// TestFigureLookupAllocs gates BenchmarkFigureLookup's allocs/op.
func TestFigureLookupAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; the alloc budget is asserted in non-race builds")
	}
	w := newFigureWorld(t)
	for i := 0; i < figureGUIDs; i++ {
		w.lookup(t, i)
	}
	i := 0
	allocs := testing.AllocsPerRun(figureGUIDs, func() { w.lookup(t, i); i++ })
	t.Logf("%v allocs/op", allocs)
	if allocs > figureLookupAllocs {
		t.Fatalf("figure lookup allocs/op = %v, want ≤ %d", allocs, figureLookupAllocs)
	}
}
