// End-to-end tests for the distributed-tracing extension: trace
// contexts crossing the real wire path, slow-op capture on both sides,
// interop with peers that never negotiated the extension, and the
// determinism guarantee for identically-seeded runs.
package client

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"dmap/internal/core"
	"dmap/internal/guid"
	"dmap/internal/prefixtable"
	"dmap/internal/server"
	"dmap/internal/trace"
)

// startTracingNodes starts numAS nodes, each with its own tracer (to
// join incoming contexts) and hot-key trackers.
func startTracingNodes(t *testing.T, numAS int, slowOp time.Duration) ([]*server.Node, map[int]string) {
	t.Helper()
	nodes := make([]*server.Node, numAS)
	addrs := make(map[int]string, numAS)
	for as := 0; as < numAS; as++ {
		n := server.NewWithOptions(nil, server.Options{
			Tracer:  trace.New(trace.Config{SlowOp: slowOp}),
			HotKeys: trace.NewHotKeys(8),
		})
		addr, err := n.Start("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		nodes[as] = n
		addrs[as] = addr
		t.Cleanup(func() { n.Close() })
	}
	return nodes, addrs
}

func tracingClient(t *testing.T, numAS, k int, addrs map[int]string, cfg Config) *Cluster {
	t.Helper()
	tbl, err := prefixtable.Generate(prefixtable.GenConfig{
		NumAS: numAS, NumPrefixes: numAS * 12, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	resolver, err := core.NewResolver(guid.MustHasher(k, 0), tbl, 0)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Timeout == 0 {
		cfg.Timeout = time.Second
	}
	c, err := NewWithConfig(resolver, addrs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c
}

// TestTraceEndToEnd drives a sampled lookup through real TCP and checks
// the two halves of the distributed trace: the client ring holds the op
// trace with its attempt span, and exactly the replica that served the
// request holds a joined server span under the SAME trace ID, parented
// (via the remote span ID) at the client's attempt span.
func TestTraceEndToEnd(t *testing.T) {
	nodes, addrs := startTracingNodes(t, 8, 0)
	tr := trace.New(trace.Config{Sample: 1, Seed: 7})
	c := tracingClient(t, 8, 1, addrs, Config{Tracer: tr})

	e := clusterEntry("traced-object", 1)
	if _, err := c.Insert(e); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Lookup(e.GUID); err != nil {
		t.Fatal(err)
	}

	views := tr.Traces()
	if len(views) != 2 {
		t.Fatalf("client traces = %d, want 2 (insert + lookup)", len(views))
	}
	lkp := views[1]
	tree := lkp.Tree(false)
	if !strings.Contains(tree, "- client.lookup") || !strings.Contains(tree, "- attempt") {
		t.Fatalf("client lookup tree missing op/attempt spans:\n%s", tree)
	}

	// Exactly the serving replicas hold joined spans; every joined span
	// shares the client's trace ID and names a remote parent.
	joined := 0
	for as, n := range nodes {
		for _, sv := range n.Tracer().Traces() {
			joined++
			if sv.Trace != lkp.Trace && sv.Trace != views[0].Trace {
				t.Errorf("AS %d joined trace %016x, not a client trace ID", as, uint64(sv.Trace))
			}
			if sv.Spans[0].Remote == 0 {
				t.Errorf("AS %d server root span has no remote parent", as)
			}
			st := sv.Tree(false)
			if !strings.Contains(st, "remote parent span") {
				t.Errorf("server tree does not note the remote parent:\n%s", st)
			}
			if !strings.Contains(st, "- server.") || !strings.Contains(st, "- store.") {
				t.Errorf("server tree missing server/store spans:\n%s", st)
			}
		}
	}
	if joined != 2 {
		t.Errorf("server-side joined traces = %d, want 2 (one per client op, K=1)", joined)
	}

	// The hot-key profile saw the lookup and the insert.
	lookupSeen, insertSeen := false, false
	for _, n := range nodes {
		for _, hk := range n.HotKeys().TopLookups(0) {
			if hk.GUID == e.GUID {
				lookupSeen = true
			}
		}
		for _, hk := range n.HotKeys().TopInserts(0) {
			if hk.GUID == e.GUID {
				insertSeen = true
			}
		}
	}
	if !lookupSeen || !insertSeen {
		t.Errorf("hot-key trackers: lookup seen=%t insert seen=%t, want both", lookupSeen, insertSeen)
	}
}

// TestTraceSlowOpEndToEnd sets a zero-distance slow threshold on both
// sides so every op is "slow": the client logs its op (even though
// sampling is off — sp is nil throughout), and the server logs the
// frame with a trace ID derived from the wire request ID, keeping slow
// frames correlatable without sampling.
func TestTraceSlowOpEndToEnd(t *testing.T) {
	nodes, addrs := startTracingNodes(t, 4, time.Nanosecond)
	tr := trace.New(trace.Config{Sample: 0, SlowOp: time.Nanosecond})
	c := tracingClient(t, 4, 1, addrs, Config{Tracer: tr})

	e := clusterEntry("slow-object", 1)
	if _, err := c.Insert(e); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Lookup(e.GUID); err != nil {
		t.Fatal(err)
	}

	slow := tr.SlowOps()
	if len(slow) < 2 {
		t.Fatalf("client slow ops = %d, want >= 2", len(slow))
	}
	ops := make(map[string]bool)
	for _, so := range slow {
		ops[so.Op] = true
		if so.Sampled {
			t.Errorf("slow op %q marked sampled with sampling off", so.Op)
		}
	}
	if !ops["insert"] || !ops["lookup"] {
		t.Errorf("client slow ops = %v, want insert and lookup", ops)
	}

	serverSlow := 0
	for as, n := range nodes {
		for _, so := range n.Tracer().SlowOps() {
			serverSlow++
			if !strings.HasPrefix(so.Op, "server.") {
				t.Errorf("AS %d slow op %q lacks server. prefix", as, so.Op)
			}
			if so.Trace == 0 {
				t.Errorf("AS %d slow op has zero trace ID; want one derived from the request ID", as)
			}
		}
	}
	if serverSlow == 0 {
		t.Error("no server recorded a slow op")
	}
}

// TestTraceNonTracingServerInterop is the node-without-a-tracer interop
// test: a plain server.New node strips the trace context the tracing
// client's frames carry, and everything round-trips; the client still
// records its own spans.
func TestTraceNonTracingServerInterop(t *testing.T) {
	nodes, addrs := startNodes(t, 8)
	tr := trace.New(trace.Config{Sample: 1})
	c := tracingClient(t, 8, 3, addrs, Config{Tracer: tr})

	e := clusterEntry("plain-server-traced", 1)
	if _, err := c.Insert(e); err != nil {
		t.Fatal(err)
	}
	got, err := c.Lookup(e.GUID)
	if err != nil || got.GUID != e.GUID {
		t.Fatalf("lookup = %+v, %v", got, err)
	}
	if views := tr.Traces(); len(views) != 2 {
		t.Errorf("client traces = %d, want 2", len(views))
	}
	for as, n := range nodes {
		if n.Tracer() != nil {
			t.Errorf("AS %d: plain node unexpectedly has a tracer", as)
		}
	}
	// And the reverse asymmetry: a non-tracing client sends no trace
	// context, so no server joins anything.
	c2 := tracingClient(t, 8, 3, addrs, Config{})
	if _, err := c2.Lookup(e.GUID); err != nil {
		t.Fatal(err)
	}
}

// TestTraceDeterministicAcrossRuns is the acceptance criterion: two
// identically-seeded tracers driving the identical sequential workload
// against the same cluster render byte-identical span trees (times
// excluded — offsets are wall-clock, structure is not).
func TestTraceDeterministicAcrossRuns(t *testing.T) {
	_, addrs := startTracingNodes(t, 8, 0)

	run := func(seed uint64) string {
		tr := trace.New(trace.Config{Sample: 1, Seed: seed})
		c := tracingClient(t, 8, 2, addrs, Config{Tracer: tr})
		for i := 0; i < 5; i++ {
			e := clusterEntry(fmt.Sprintf("det-%d", i), 1)
			if _, err := c.Insert(e); err != nil {
				t.Fatal(err)
			}
			if _, err := c.Lookup(e.GUID); err != nil {
				t.Fatal(err)
			}
		}
		var sb strings.Builder
		for _, v := range tr.Traces() {
			sb.WriteString(v.Tree(false))
		}
		c.Close()
		return sb.String()
	}

	a, b := run(42), run(42)
	if a != b {
		t.Errorf("identically-seeded runs rendered different span trees:\n--- run A\n%s--- run B\n%s", a, b)
	}
	if other := run(43); other == a {
		t.Error("differently-seeded runs rendered identical trace IDs")
	}
}
