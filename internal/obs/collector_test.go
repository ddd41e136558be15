package obs

import (
	"net/http/httptest"
	"testing"
	"time"

	"dmap/internal/metrics"
)

// fakeClock steps time manually so window math is exact in tests.
type fakeClock struct{ t time.Time }

func (c *fakeClock) now() time.Time       { return c.t }
func (c *fakeClock) step(d time.Duration) { c.t = c.t.Add(d) }

func newTestCollector(t *testing.T, regs map[string]*metrics.Registry) (*Collector, *fakeClock) {
	t.Helper()
	clock := &fakeClock{t: time.Date(2026, 8, 7, 9, 0, 0, 0, time.UTC)}
	var sources []Source
	for name, reg := range regs {
		srv := httptest.NewServer(metrics.Handler(reg))
		t.Cleanup(srv.Close)
		sources = append(sources, Source{Name: name, URL: srv.URL})
	}
	c := NewCollector(CollectorConfig{Sources: sources})
	c.now = clock.now
	return c, clock
}

func TestCollectorWindowsAndClusterMerge(t *testing.T) {
	a := metrics.NewRegistry()
	b := metrics.NewRegistry()
	a.Counter("server.lookups").Add(100)
	b.Counter("server.lookups").Add(50)
	a.Histogram("server.op.lookup_us").Observe(10)
	b.Histogram("server.op.lookup_us").Observe(1000)
	a.Gauge("server.inflight").Set(4)

	c, clock := newTestCollector(t, map[string]*metrics.Registry{"a": a, "b": b})

	v1 := c.Collect()
	if v1.NodesUp != 2 {
		t.Fatalf("nodes up = %d, want 2: %+v", v1.NodesUp, v1.Nodes)
	}
	// First round: levels and cluster, but no windows yet.
	if v1.Cluster.Counters["server.lookups"] != 150 {
		t.Errorf("cluster counter = %d, want 150", v1.Cluster.Counters["server.lookups"])
	}
	h := v1.Cluster.Histograms["server.op.lookup_us"]
	if h.Count != 2 || h.Min != 10 || h.Max != 1000 {
		t.Errorf("cluster histogram = count %d [%g,%g], want 2 [10,1000]", h.Count, h.Min, h.Max)
	}
	if len(v1.Cluster.Gauges) != 0 {
		t.Errorf("cluster gauges %v present; gauges must stay per-node", v1.Cluster.Gauges)
	}
	for _, n := range v1.Nodes {
		if n.Rates != nil {
			t.Errorf("node %s has rates on the first scrape", n.Name)
		}
		if n.Name == "a" && n.Gauges["server.inflight"] != 4 {
			t.Errorf("node a inflight = %g, want 4", n.Gauges["server.inflight"])
		}
	}

	// Second round, 10s later: a served 20 more lookups → 2/s.
	a.Counter("server.lookups").Add(20)
	clock.step(10 * time.Second)
	v2 := c.Collect()
	for _, n := range v2.Nodes {
		if n.Name != "a" {
			continue
		}
		if n.WindowS != 10 {
			t.Errorf("window = %gs, want 10", n.WindowS)
		}
		if got := n.Rates["server.lookups"]; got != 2 {
			t.Errorf("rate = %g/s, want 2", got)
		}
	}
}

func TestCollectorDownNode(t *testing.T) {
	a := metrics.NewRegistry()
	a.Counter("server.lookups").Add(1)
	c, clock := newTestCollector(t, map[string]*metrics.Registry{"a": a})
	c.cfg.Sources = append(c.cfg.Sources, Source{Name: "dead", URL: "http://127.0.0.1:1/debug/metrics"})

	v := c.Collect()
	if v.NodesUp != 1 {
		t.Fatalf("nodes up = %d, want 1", v.NodesUp)
	}
	var dead *NodeView
	for i := range v.Nodes {
		if v.Nodes[i].Name == "dead" {
			dead = &v.Nodes[i]
		}
	}
	if dead == nil || dead.Up || dead.Err == "" {
		t.Fatalf("dead node not reported down with error: %+v", dead)
	}
	// The cluster view is the up nodes only.
	if v.Cluster.Counters["server.lookups"] != 1 {
		t.Errorf("cluster counter = %d, want 1", v.Cluster.Counters["server.lookups"])
	}

	// A down round keeps the window anchored: when the node is scraped
	// again the delta spans both intervals.
	a.Counter("server.lookups").Add(6)
	clock.step(2 * time.Second)
	v2 := c.Collect()
	for _, n := range v2.Nodes {
		if n.Name == "a" && n.Rates["server.lookups"] != 3 {
			t.Errorf("rate = %g/s, want 3 (6 events over 2s)", n.Rates["server.lookups"])
		}
	}
}

func TestCollectorOutliers(t *testing.T) {
	regs := map[string]*metrics.Registry{
		"n0": metrics.NewRegistry(),
		"n1": metrics.NewRegistry(),
		"n2": metrics.NewRegistry(),
	}
	for _, r := range regs {
		r.Counter("server.sheds_global")
	}
	c, clock := newTestCollector(t, regs)
	c.Collect()
	// n2 sheds 100/s while the others shed ~1/s.
	regs["n0"].Counter("server.sheds_global").Add(1)
	regs["n1"].Counter("server.sheds_global").Add(1)
	regs["n2"].Counter("server.sheds_global").Add(100)
	clock.step(time.Second)
	v := c.Collect()
	found := false
	for _, o := range v.Outliers {
		if o.Node == "n2" && o.Metric == "rate:server.sheds_global" {
			found = true
			if o.Median != 1 || o.Value != 100 {
				t.Errorf("outlier = %+v, want value 100 median 1", o)
			}
		}
	}
	if !found {
		t.Fatalf("shedding outlier not flagged: %+v", v.Outliers)
	}
}

func TestCollectorRejectsInvalidBody(t *testing.T) {
	srv := httptest.NewServer(httpHandlerFunc(`{"counters":{},"gauges":{},"histograms":{},"bogus":1}`))
	defer srv.Close()
	c := NewCollector(CollectorConfig{Sources: []Source{{Name: "bad", URL: srv.URL}}})
	v := c.Collect()
	if v.NodesUp != 0 || v.Nodes[0].Err == "" {
		t.Fatalf("invalid snapshot body not rejected: %+v", v.Nodes[0])
	}
}
