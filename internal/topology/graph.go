// Package topology models the AS-level Internet that DMap runs over: a
// graph of autonomous systems with per-link inter-AS latencies, per-AS
// intra-AS latencies, and per-AS end-node populations.
//
// It substitutes for the DIMES measurement dataset used in the paper
// (§IV-B1, [25]): a connectivity graph of 26,424 ASs and 90,267 links,
// median intra-AS latency 3.5 ms with a heavy tail (including rare stubs
// with multi-second access latency, like the paper's AS 23951), and
// end-node counts used to weight where inserts and queries originate.
//
// Latencies are carried as integer microseconds to keep arithmetic exact
// and allocation-free on the simulator hot path.
package topology

import (
	"fmt"
	"math"
)

// Micros is a latency in integer microseconds.
type Micros int64

// Millis returns m in floating-point milliseconds (for reporting).
func (m Micros) Millis() float64 { return float64(m) / 1000 }

// MicrosFromMillis converts floating-point milliseconds to Micros.
func MicrosFromMillis(ms float64) Micros { return Micros(math.Round(ms * 1000)) }

type edge struct {
	to  int32
	lat Micros
}

// Graph is an undirected AS-level topology. AS indices are dense in
// [0, NumAS), shared with internal/prefixtable. Graph is immutable after
// construction and safe for concurrent readers.
type Graph struct {
	adj      [][]edge
	intra    []Micros  // per-AS intra-AS one-way latency
	endNodes []float64 // per-AS end-node population (sampling weight)
	region   []int16   // per-AS geographic region
	numLinks int
}

// NewGraph builds an empty graph with n ASs; links are added by the
// generator. intra latencies default to zero.
func newGraph(n int) *Graph {
	return &Graph{
		adj:      make([][]edge, n),
		intra:    make([]Micros, n),
		endNodes: make([]float64, n),
		region:   make([]int16, n),
	}
}

// Region returns the geographic region index of as.
func (g *Graph) Region(as int) int { return int(g.region[as]) }

// NumAS returns the number of autonomous systems.
func (g *Graph) NumAS() int { return len(g.adj) }

// NumLinks returns the number of undirected inter-AS links.
func (g *Graph) NumLinks() int { return g.numLinks }

// Degree returns the number of inter-AS links at as.
func (g *Graph) Degree(as int) int { return len(g.adj[as]) }

// Intra returns the one-way intra-AS latency of as.
func (g *Graph) Intra(as int) Micros { return g.intra[as] }

// EndNodeWeights returns the per-AS end-node weights (shared slice; do not
// modify).
func (g *Graph) EndNodeWeights() []float64 { return g.endNodes }

// Neighbors calls fn for every link incident to as.
func (g *Graph) Neighbors(as int, fn func(to int, lat Micros)) {
	for _, e := range g.adj[as] {
		fn(int(e.to), e.lat)
	}
}

// hasEdge reports whether an a–b link exists (scan is fine: degrees are
// small except in the core, and this is generator-side only).
func (g *Graph) hasEdge(a, b int) bool {
	x, y := a, b
	if len(g.adj[a]) > len(g.adj[b]) {
		x, y = b, a
	}
	for _, e := range g.adj[x] {
		if int(e.to) == y {
			return true
		}
	}
	return false
}

// addEdge inserts an undirected link; duplicate and self links are
// rejected with an error.
func (g *Graph) addEdge(a, b int, lat Micros) error {
	if a == b {
		return fmt.Errorf("topology: self link at AS %d", a)
	}
	if g.hasEdge(a, b) {
		return fmt.Errorf("topology: duplicate link %d–%d", a, b)
	}
	g.adj[a] = append(g.adj[a], edge{to: int32(b), lat: lat})
	g.adj[b] = append(g.adj[b], edge{to: int32(a), lat: lat})
	g.numLinks++
	return nil
}

// InfMicros marks an unreachable AS in distance vectors.
const InfMicros = Micros(math.MaxInt64)

// Dijkstra fills dist with the minimum inter-AS path latency (sum of link
// latencies, excluding endpoint intra-AS terms) from src to every AS.
// dist must have length NumAS. Unreachable ASs get InfMicros.
func (g *Graph) Dijkstra(src int, dist []Micros) {
	if len(dist) != g.NumAS() {
		panic(fmt.Sprintf("topology: Dijkstra dist length %d, want %d", len(dist), g.NumAS()))
	}
	for i := range dist {
		dist[i] = InfMicros
	}
	dist[src] = 0
	// Hand-rolled binary heap: container/heap's interface{} boxing would
	// allocate per push, and Dijkstra dominates every figure-scale run.
	pq := distHeap{items: []distItem{{as: int32(src), d: 0}}}
	for len(pq.items) > 0 {
		top := pq.pop()
		if top.d > dist[top.as] {
			continue // stale entry
		}
		for _, e := range g.adj[top.as] {
			if nd := top.d + e.lat; nd < dist[e.to] {
				dist[e.to] = nd
				pq.push(distItem{as: e.to, d: nd})
			}
		}
	}
}

// HopBFS fills hops with the minimum AS-hop count from src to every AS
// (least-hop-count replica selection, §IV-B2a). hops must have length
// NumAS. Unreachable ASs get -1.
func (g *Graph) HopBFS(src int, hops []int32) {
	if len(hops) != g.NumAS() {
		panic(fmt.Sprintf("topology: HopBFS hops length %d, want %d", len(hops), g.NumAS()))
	}
	for i := range hops {
		hops[i] = -1
	}
	hops[src] = 0
	queue := make([]int32, 0, 64)
	queue = append(queue, int32(src))
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for _, e := range g.adj[cur] {
			if hops[e.to] < 0 {
				hops[e.to] = hops[cur] + 1
				queue = append(queue, e.to)
			}
		}
	}
}

// OneWay returns the end-to-end one-way latency from a requester in AS s
// to a server in AS t: half the intra-AS latency at each end plus the
// inter-AS path, matching the latency model in DESIGN.md. dist must be a
// Dijkstra vector computed from s (or from t; the metric is symmetric).
func (g *Graph) OneWay(s, t int, dist []Micros) Micros {
	if s == t {
		return g.intra[s]
	}
	d := dist[t]
	if d == InfMicros {
		return InfMicros
	}
	return d + g.intra[s]/2 + g.intra[t]/2
}

// RTT returns the round-trip time for a request from AS s served at AS t.
func (g *Graph) RTT(s, t int, dist []Micros) Micros {
	ow := g.OneWay(s, t, dist)
	if ow == InfMicros {
		return InfMicros
	}
	return 2 * ow
}

type distItem struct {
	as int32
	d  Micros
}

// distHeap is a minimal typed binary min-heap on d.
type distHeap struct {
	items []distItem
}

func (h *distHeap) push(it distItem) {
	h.items = append(h.items, it)
	i := len(h.items) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if h.items[parent].d <= h.items[i].d {
			break
		}
		h.items[parent], h.items[i] = h.items[i], h.items[parent]
		i = parent
	}
}

func (h *distHeap) pop() distItem {
	top := h.items[0]
	last := len(h.items) - 1
	h.items[0] = h.items[last]
	h.items = h.items[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < last && h.items[l].d < h.items[smallest].d {
			smallest = l
		}
		if r < last && h.items[r].d < h.items[smallest].d {
			smallest = r
		}
		if smallest == i {
			return top
		}
		h.items[i], h.items[smallest] = h.items[smallest], h.items[i]
		i = smallest
	}
}
