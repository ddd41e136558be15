// Package dmap_test holds the repository benchmark harness: one
// testing.B benchmark per table and figure of the paper (run the full
// versions through cmd/dmapsim), plus micro-benchmarks for the hot
// paths: hashing, prefix matching, placement, routing and the wire
// protocol.
//
// Run with: go test -bench=. -benchmem
package dmap_test

import (
	"fmt"
	"os"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dmap/internal/client"
	"dmap/internal/core"
	"dmap/internal/dht"
	"dmap/internal/experiments"
	"dmap/internal/guid"
	"dmap/internal/metrics"
	"dmap/internal/netaddr"
	"dmap/internal/nodesim"
	"dmap/internal/prefixtable"
	"dmap/internal/server"
	"dmap/internal/simnet"
	"dmap/internal/stats"
	"dmap/internal/store"
	"dmap/internal/topology"
	"dmap/internal/trace"
	"dmap/internal/wire"
)

// benchWorld memoizes one mid-sized world for all macro benchmarks so
// per-benchmark setup stays out of the measured loops.
var (
	benchOnce  sync.Once
	benchWorld *experiments.World
	benchErr   error
)

func world(b *testing.B) *experiments.World {
	b.Helper()
	benchOnce.Do(func() {
		benchWorld, benchErr = experiments.NewWorld(experiments.TestScale(2000, 1))
	})
	if benchErr != nil {
		b.Fatal(benchErr)
	}
	return benchWorld
}

// BenchmarkFig4QueryLatency regenerates Figure 4 (query response time CDF
// for K = 1, 3, 5) at benchmark scale.
func BenchmarkFig4QueryLatency(b *testing.B) {
	w := world(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunLatency(w, experiments.LatencyConfig{
			Ks: []int{1, 3, 5}, NumGUIDs: 1000, NumLookups: 10000,
			LocalReplica: true, Seed: int64(i),
		})
		if err != nil {
			b.Fatal(err)
		}
		if res.PerK[5].N() != 10000 {
			b.Fatal("short run")
		}
	}
}

// BenchmarkTable1LatencyStats regenerates Table I (mean/median/95th for
// K = 1 and K = 5).
func BenchmarkTable1LatencyStats(b *testing.B) {
	w := world(b)
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunLatency(w, experiments.LatencyConfig{
			Ks: []int{1, 5}, NumGUIDs: 1000, NumLookups: 10000,
			LocalReplica: true, Seed: int64(i),
		})
		if err != nil {
			b.Fatal(err)
		}
		rows := res.Table1()
		if len(rows) != 2 || !(rows[1].P95 < rows[0].P95) {
			b.Fatalf("Table I shape violated: %+v", rows)
		}
	}
}

// BenchmarkFig5ChurnLatency regenerates Figure 5 (response times under
// 5% BGP-churn lookup failures, K = 5).
func BenchmarkFig5ChurnLatency(b *testing.B) {
	w := world(b)
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunLatency(w, experiments.LatencyConfig{
			Ks: []int{5}, NumGUIDs: 1000, NumLookups: 10000,
			LocalReplica: true, MissRate: 0.05, Seed: int64(i),
		})
		if err != nil {
			b.Fatal(err)
		}
		if res.Retries[5] == 0 {
			b.Fatal("no retries under churn")
		}
	}
}

// BenchmarkFig6LoadDistribution regenerates Figure 6 (normalized load
// ratio distribution, K = 5).
func BenchmarkFig6LoadDistribution(b *testing.B) {
	w := world(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunLoad(w, experiments.LoadConfig{
			GUIDCounts: []int{50000}, K: 5,
		})
		if err != nil {
			b.Fatal(err)
		}
		if res.PerCount[50000].N() == 0 {
			b.Fatal("empty NLR")
		}
	}
}

// BenchmarkFig7AnalyticalBound regenerates Figure 7 (the §V analytical
// sweep over K = 1..20 for three Internet scenarios).
func BenchmarkFig7AnalyticalBound(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunFig7(20)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Series) != 3 {
			b.Fatal("missing series")
		}
	}
}

// BenchmarkOverheadClosedForm regenerates the §IV-A storage/traffic
// arithmetic.
func BenchmarkOverheadClosedForm(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunOverhead(26424, 5e9, 5, 100); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkHolesRehash regenerates the §III-B hole statistics.
func BenchmarkHolesRehash(b *testing.B) {
	w := world(b)
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunHoles(w, 1, 10, 5000); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBaselines regenerates the A4 scheme comparison (DMap vs
// Chord vs one-hop DHT vs home agent).
func BenchmarkBaselines(b *testing.B) {
	w := world(b)
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunBaselines(w, experiments.BaselinesConfig{
			K: 5, NumGUIDs: 200, NumLookups: 1000, Seed: int64(i),
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEngineWorkers sweeps the evaluation engine's worker count on
// the Fig. 4 workload. Results are bit-identical at every setting
// (internal/engine's determinism guarantee); only wall-clock differs.
// On a single-core host the sweep documents the engine's overhead
// neutrality instead of its speedup.
func BenchmarkEngineWorkers(b *testing.B) {
	w := world(b)
	counts := []int{1, 2, 4}
	if n := runtime.NumCPU(); n > 4 {
		counts = append(counts, n)
	}
	for _, workers := range counts {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err := experiments.RunLatency(w, experiments.LatencyConfig{
					Ks: []int{1, 3, 5}, NumGUIDs: 1000, NumLookups: 10000,
					LocalReplica: true, Seed: int64(i), Workers: workers,
				})
				if err != nil {
					b.Fatal(err)
				}
				if res.PerK[5].N() != 10000 {
					b.Fatal("short run")
				}
			}
		})
	}
}

// ---- micro-benchmarks: the hot paths under the experiments ----

func benchResolver(b *testing.B) *core.Resolver {
	b.Helper()
	w := world(b)
	r, err := core.NewResolver(guid.MustHasher(5, 0), w.Table, 0)
	if err != nil {
		b.Fatal(err)
	}
	return r
}

// BenchmarkHashGUID measures one replica-hash evaluation.
func BenchmarkHashGUID(b *testing.B) {
	h := guid.MustHasher(5, 0)
	g := guid.New("bench")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = h.Hash(g, i%5)
	}
}

// BenchmarkLPMLookup measures longest-prefix matching against the
// generated DFZ (~24k prefixes at bench scale).
func BenchmarkLPMLookup(b *testing.B) {
	w := world(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		w.Table.Lookup(netaddr.Addr(uint32(i) * 2654435761))
	}
}

// BenchmarkNearestPrefix measures the deputy-AS XOR-nearest search on
// addresses that are mostly holes.
func BenchmarkNearestPrefix(b *testing.B) {
	w := world(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		w.Table.Nearest(netaddr.Addr(uint32(i)*2654435761 | 0xE0000000))
	}
}

// BenchmarkPlaceReplica measures one full Algorithm 1 placement
// (hash + LPM + rehashes).
func BenchmarkPlaceReplica(b *testing.B) {
	r := benchResolver(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := r.PlaceReplica(guid.FromUint64(uint64(i)+1), i%5); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDijkstra measures one single-source shortest-path pass over
// the 2000-AS benchmark topology.
func BenchmarkDijkstra(b *testing.B) {
	w := world(b)
	dist := make([]topology.Micros, w.NumAS())
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		w.Graph.Dijkstra(i%w.NumAS(), dist)
	}
}

// BenchmarkChordLookupPath measures one multi-hop Chord route.
func BenchmarkChordLookupPath(b *testing.B) {
	c, err := dht.NewChord(2000, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := c.LookupPath(i%2000, guid.FromUint64(uint64(i))); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStorePutGet measures the per-AS mapping store.
func BenchmarkStorePutGet(b *testing.B) {
	s := store.New()
	nas := []store.NA{{AS: 1, Addr: netaddr.AddrFromOctets(10, 0, 0, 1)}}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		g := guid.FromUint64(uint64(i%1024) + 1)
		if _, err := s.Put(store.Entry{GUID: g, NAs: nas, Version: uint64(i + 1)}); err != nil {
			b.Fatal(err)
		}
		if _, ok := s.Get(g); !ok {
			b.Fatal("miss")
		}
	}
}

// BenchmarkStorePutGetInstrumented is BenchmarkStorePutGet with the
// store's metrics instrumentation attached; scripts/bench.sh smoke
// asserts the pair stays within the observability overhead budget
// (<5%, DESIGN.md §6).
func BenchmarkStorePutGetInstrumented(b *testing.B) {
	s := store.New()
	s.Instrument(metrics.NewRegistry(), "store")
	nas := []store.NA{{AS: 1, Addr: netaddr.AddrFromOctets(10, 0, 0, 1)}}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		g := guid.FromUint64(uint64(i%1024) + 1)
		if _, err := s.Put(store.Entry{GUID: g, NAs: nas, Version: uint64(i + 1)}); err != nil {
			b.Fatal(err)
		}
		if _, ok := s.Get(g); !ok {
			b.Fatal("miss")
		}
	}
}

// BenchmarkWireEntryRoundTrip measures encode+decode of a 5-NA entry.
func BenchmarkWireEntryRoundTrip(b *testing.B) {
	e := store.Entry{GUID: guid.New("wire"), Version: 1}
	for i := 0; i < 5; i++ {
		e.NAs = append(e.NAs, store.NA{AS: i, Addr: netaddr.Addr(i)})
	}
	buf := make([]byte, 0, 128)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		enc, err := wire.AppendEntry(buf[:0], e)
		if err != nil {
			b.Fatal(err)
		}
		if _, _, err := wire.DecodeEntry(enc); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWireEntryRoundTripInstrumented adds exactly the per-op
// instrumentation the server wraps around the wire path — two clock
// reads and one histogram observation — so the smoke gate measures the
// true marginal cost of observing a request.
func BenchmarkWireEntryRoundTripInstrumented(b *testing.B) {
	e := store.Entry{GUID: guid.New("wire"), Version: 1}
	for i := 0; i < 5; i++ {
		e.NAs = append(e.NAs, store.NA{AS: i, Addr: netaddr.Addr(i)})
	}
	h := metrics.NewRegistry().Histogram("wire.roundtrip_us")
	buf := make([]byte, 0, 128)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		start := time.Now()
		enc, err := wire.AppendEntry(buf[:0], e)
		if err != nil {
			b.Fatal(err)
		}
		if _, _, err := wire.DecodeEntry(enc); err != nil {
			b.Fatal(err)
		}
		h.ObserveSince(start)
	}
}

// BenchmarkMetricsCounter measures one hot-path counter increment.
func BenchmarkMetricsCounter(b *testing.B) {
	c := metrics.NewRegistry().Counter("bench.ops")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
	if c.Value() != int64(b.N) {
		b.Fatal("lost increments")
	}
}

// BenchmarkMetricsHistogramObserve measures one hot-path histogram
// observation (bucket search + atomics), the unit of cost every
// instrumented operation pays.
func BenchmarkMetricsHistogramObserve(b *testing.B) {
	h := metrics.NewRegistry().Histogram("bench.lat_us")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(float64(i & 0xffff))
	}
}

// BenchmarkMetricsRequestOverhead measures exactly what the server adds
// to one served request: two clock reads, one histogram observation and
// two counter increments. scripts/bench.sh smoke divides this by
// BenchmarkTCPLookup (a real served wire round trip) to assert the
// wire-path observability budget (<5%, DESIGN.md §6).
func BenchmarkMetricsRequestOverhead(b *testing.B) {
	reg := metrics.NewRegistry()
	lookups := reg.Counter("bench.lookups")
	hits := reg.Counter("bench.hits")
	h := reg.Histogram("bench.op_us")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		start := time.Now()
		lookups.Inc()
		hits.Inc()
		h.ObserveSince(start)
	}
}

// BenchmarkPercentile measures the stats kernel used by every figure.
func BenchmarkPercentile(b *testing.B) {
	c := stats.NewCollector(100000)
	for i := 0; i < 100000; i++ {
		c.Add(float64(i%977) * 1.3)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = c.Percentile(95)
	}
}

// BenchmarkGenerateDFZ measures synthetic prefix-table generation.
func BenchmarkGenerateDFZ(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := prefixtable.Generate(prefixtable.GenConfig{
			NumAS: 500, NumPrefixes: 6000, AnnouncedFraction: 0.52, Seed: int64(i),
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGenerateTopology measures synthetic AS-graph generation.
func BenchmarkGenerateTopology(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := topology.Generate(topology.SmallGenConfig(1000, int64(i))); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimnetEvents measures raw event-engine throughput.
func BenchmarkSimnetEvents(b *testing.B) {
	s := simnet.New()
	b.ReportAllocs()
	var chain func()
	n := 0
	chain = func() {
		n++
		if n < b.N {
			_ = s.After(1, chain)
		}
	}
	_ = s.After(1, chain)
	b.ResetTimer()
	s.Run(0)
	if n != b.N {
		b.Fatalf("executed %d events, want %d", n, b.N)
	}
}

// BenchmarkNodesimLookup measures one full message-level DMap lookup
// (request, response, timers) in the event engine.
func BenchmarkNodesimLookup(b *testing.B) {
	w := world(b)
	resolver, err := core.NewResolver(guid.MustHasher(5, 0), w.Table, 0)
	if err != nil {
		b.Fatal(err)
	}
	sys, err := core.NewSystem(core.SystemConfig{Resolver: resolver, NumAS: w.NumAS()})
	if err != nil {
		b.Fatal(err)
	}
	cache, err := topology.NewDistCache(w.Graph, 256)
	if err != nil {
		b.Fatal(err)
	}
	dep, err := nodesim.NewDeployment(sys, simnet.New(), cache, 0)
	if err != nil {
		b.Fatal(err)
	}
	e := store.Entry{
		GUID:    guid.New("bench"),
		NAs:     []store.NA{{AS: 1, Addr: netaddr.AddrFromOctets(10, 0, 0, 1)}},
		Version: 1,
	}
	if err := dep.Insert(1, e, func(nodesim.InsertResult) {}); err != nil {
		b.Fatal(err)
	}
	dep.Sim().Run(0)
	b.ReportAllocs()
	b.ResetTimer()
	found := 0
	for i := 0; i < b.N; i++ {
		if err := dep.Lookup(i%w.NumAS(), e.GUID, func(r nodesim.LookupResult) {
			if r.Found {
				found++
			}
		}); err != nil {
			b.Fatal(err)
		}
		dep.Sim().Run(0)
	}
	if found != b.N {
		b.Fatalf("found %d/%d", found, b.N)
	}
}

// BenchmarkTCPLookup measures a full client→server→client lookup over
// loopback TCP with the binary wire protocol.
func BenchmarkTCPLookup(b *testing.B) {
	tbl := prefixtable.New()
	p, err := netaddr.NewPrefix(0, 0)
	if err != nil {
		b.Fatal(err)
	}
	if err := tbl.Announce(p, 0); err != nil { // one AS owns everything
		b.Fatal(err)
	}
	resolver, err := core.NewResolver(guid.MustHasher(1, 0), tbl, 0)
	if err != nil {
		b.Fatal(err)
	}
	node := server.New(nil, nil)
	addr, err := node.Start("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer node.Close()
	cl, err := client.New(resolver, map[int]string{0: addr}, 0)
	if err != nil {
		b.Fatal(err)
	}
	defer cl.Close()
	e := store.Entry{
		GUID:    guid.New("tcp-bench"),
		NAs:     []store.NA{{AS: 0, Addr: netaddr.AddrFromOctets(10, 0, 0, 1)}},
		Version: 1,
	}
	if _, err := cl.Insert(e); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cl.Lookup(e.GUID); err != nil {
			b.Fatal(err)
		}
	}
}

// benchTraceCluster starts one trace-capable mapping node owning the
// whole address space (K=1) plus a cluster client with the given
// tracer, pre-loaded with one entry. It is the fixture for the
// request-tracing overhead benchmarks.
func benchTraceCluster(b *testing.B, clientTracer *trace.Tracer, opts server.Options) (*client.Cluster, guid.GUID) {
	b.Helper()
	tbl := prefixtable.New()
	p, err := netaddr.NewPrefix(0, 0)
	if err != nil {
		b.Fatal(err)
	}
	if err := tbl.Announce(p, 0); err != nil {
		b.Fatal(err)
	}
	resolver, err := core.NewResolver(guid.MustHasher(1, 0), tbl, 0)
	if err != nil {
		b.Fatal(err)
	}
	node := server.NewWithOptions(nil, opts)
	addr, err := node.Start("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { node.Close() })
	cl, err := client.NewWithConfig(resolver, map[int]string{0: addr}, client.Config{Tracer: clientTracer})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { cl.Close() })
	e := store.Entry{
		GUID:    guid.New("trace-bench"),
		NAs:     []store.NA{{AS: 0, Addr: netaddr.AddrFromOctets(10, 0, 0, 1)}},
		Version: 1,
	}
	if _, err := cl.Insert(e); err != nil {
		b.Fatal(err)
	}
	return cl, e.GUID
}

// BenchmarkRequestTraceOff measures a served lookup through the
// trace-capable request path with tracing disabled — nil tracer on both
// sides, so every per-op trace hook is a nil check and no trace context
// reaches the wire. scripts/bench.sh trace compares this against
// BenchmarkTCPLookup (the pre-tracing baseline) to assert the
// tracing-off budget (<5%, DESIGN.md §8); allocs/op is reported so the
// allocation-free-when-off claim stays checkable.
func BenchmarkRequestTraceOff(b *testing.B) {
	cl, g := benchTraceCluster(b, nil, server.Options{})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cl.Lookup(g); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRequestTraceOn is the same served lookup with the full
// tracing stack engaged: the client samples every op (Sample=1), the
// trace context rides the v2 frame, and the server joins each frame as
// a child span, observes exemplars and feeds the hot-GUID tracker. The
// delta over BenchmarkRequestTraceOff is the worst-case (100% sampled)
// cost of a distributed trace.
func BenchmarkRequestTraceOn(b *testing.B) {
	cl, g := benchTraceCluster(b,
		trace.New(trace.Config{Sample: 1, Seed: 1}),
		server.Options{Tracer: trace.New(trace.Config{Seed: 2}), HotKeys: trace.NewHotKeys(32)})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cl.Lookup(g); err != nil {
			b.Fatal(err)
		}
	}
}

// benchLookupCluster starts one mapping node owning the whole address
// space (K=1, so every lookup is one wire round trip) plus a cluster
// client, pre-loaded with numGUIDs entries. It is the fixture for the
// sustained-throughput benchmarks.
func benchLookupCluster(b *testing.B, numGUIDs int) (*client.Cluster, []guid.GUID) {
	b.Helper()
	tbl := prefixtable.New()
	p, err := netaddr.NewPrefix(0, 0)
	if err != nil {
		b.Fatal(err)
	}
	if err := tbl.Announce(p, 0); err != nil {
		b.Fatal(err)
	}
	resolver, err := core.NewResolver(guid.MustHasher(1, 0), tbl, 0)
	if err != nil {
		b.Fatal(err)
	}
	node := server.New(nil, nil)
	addr, err := node.Start("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { node.Close() })
	cl, err := client.New(resolver, map[int]string{0: addr}, 0)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { cl.Close() })
	gs := make([]guid.GUID, numGUIDs)
	entries := make([]store.Entry, numGUIDs)
	for i := range gs {
		gs[i] = guid.New(fmt.Sprintf("bench-%d", i))
		entries[i] = store.Entry{
			GUID:    gs[i],
			NAs:     []store.NA{{AS: 0, Addr: netaddr.AddrFromOctets(10, 0, byte(i>>8), byte(i))}},
			Version: 1,
		}
	}
	if _, err := cl.InsertBatch(entries); err != nil {
		b.Fatal(err)
	}
	return cl, gs
}

// envInt reads a positive integer from the environment, falling back to
// def when unset or unparsable.
func envInt(name string, def int) int {
	if s := os.Getenv(name); s != "" {
		if n, err := strconv.Atoi(s); err == nil && n > 0 {
			return n
		}
	}
	return def
}

// benchConcurrentClients is the concurrent-client work dispenser size:
// each simulated client pulls lookup indices off a shared atomic counter
// until b.N operations have been issued, so the measured quantity is
// sustained cluster throughput, not per-caller latency. The historical
// default of 64 (the benchmark names keep it) can be overridden with
// BENCH_CLIENTS for sweeps without recompiling.
func benchConcurrentClients() int { return envInt("BENCH_CLIENTS", 64) }

func runConcurrentLookups(b *testing.B, do func(i int) error) {
	var next int64
	var wg sync.WaitGroup
	b.ReportAllocs()
	b.ResetTimer()
	for c := 0; c < benchConcurrentClients(); c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(atomic.AddInt64(&next, 1)) - 1
				if i >= b.N {
					return
				}
				if err := do(i); err != nil {
					b.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// BenchmarkLookup64ClientsV2 measures sustained lookups/sec with 64
// concurrent clients: all of them pipeline their requests on one shared
// connection, demultiplexed by request ID.
func BenchmarkLookup64ClientsV2(b *testing.B) {
	cl, gs := benchLookupCluster(b, 1024)
	runConcurrentLookups(b, func(i int) error {
		_, err := cl.Lookup(gs[i%len(gs)])
		return err
	})
}

// BenchmarkLookup64ClientsV2Batch adds batching on top of multiplexing:
// each of the 64 clients resolves blocks of 64 GUIDs per LookupBatch
// call, so a whole block shares one wire frame. ns/op is still reported
// per individual GUID resolved.
func BenchmarkLookup64ClientsV2Batch(b *testing.B) {
	const block = 64
	cl, gs := benchLookupCluster(b, 1024)
	var next int64
	var wg sync.WaitGroup
	b.ReportAllocs()
	b.ResetTimer()
	for c := 0; c < benchConcurrentClients(); c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			batch := make([]guid.GUID, 0, block)
			for {
				start := int(atomic.AddInt64(&next, block)) - block
				if start >= b.N {
					return
				}
				n := min(block, b.N-start)
				batch = batch[:0]
				for i := start; i < start+n; i++ {
					batch = append(batch, gs[i%len(gs)])
				}
				_, found, err := cl.LookupBatch(batch)
				if err != nil {
					b.Error(err)
					return
				}
				for _, ok := range found {
					if !ok {
						b.Error("batch lookup miss")
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}

// BenchmarkLookupSoakConns soaks one node under BENCH_SOAK_CONNS
// (default 1024) concurrent v2 connections, each carrying its own
// pipelined lookup stream. A Cluster multiplexes everything to one
// address onto a single shared connection, so the fixture builds one
// Cluster per connection against a single node — the server sees ≥1k
// live multiplexed conns, each with its own reader, worker pool and
// coalescing writer drawing from the shared buffer pools. Gated behind
// BENCH_SOAK=1 (scripts/bench.sh soak sets it): the fixture dials
// thousands of sockets, which is soak territory, not a smoke gate.
func BenchmarkLookupSoakConns(b *testing.B) {
	if os.Getenv("BENCH_SOAK") == "" {
		b.Skip("set BENCH_SOAK=1 (and optionally BENCH_SOAK_CONNS) to run the high-connection soak")
	}
	conns := envInt("BENCH_SOAK_CONNS", 1024)
	tbl := prefixtable.New()
	p, err := netaddr.NewPrefix(0, 0)
	if err != nil {
		b.Fatal(err)
	}
	if err := tbl.Announce(p, 0); err != nil {
		b.Fatal(err)
	}
	resolver, err := core.NewResolver(guid.MustHasher(1, 0), tbl, 0)
	if err != nil {
		b.Fatal(err)
	}
	node := server.New(nil, nil)
	addr, err := node.Start("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { node.Close() })
	e := store.Entry{
		GUID:    guid.New("soak-bench"),
		NAs:     []store.NA{{AS: 0, Addr: netaddr.AddrFromOctets(10, 0, 0, 1)}},
		Version: 1,
	}
	clusters := make([]*client.Cluster, conns)
	for i := range clusters {
		cl, err := client.New(resolver, map[int]string{0: addr}, 0)
		if err != nil {
			b.Fatal(err)
		}
		clusters[i] = cl
		b.Cleanup(func() { cl.Close() })
	}
	if _, err := clusters[0].Insert(e); err != nil {
		b.Fatal(err)
	}
	// Warm every connection before the timer: the measured region is
	// steady-state soak, not dial/handshake throughput.
	for _, cl := range clusters {
		if _, err := cl.Lookup(e.GUID); err != nil {
			b.Fatal(err)
		}
	}
	var next int64
	var wg sync.WaitGroup
	b.ReportAllocs()
	b.ResetTimer()
	for _, cl := range clusters {
		wg.Add(1)
		go func(cl *client.Cluster) {
			defer wg.Done()
			for {
				i := int(atomic.AddInt64(&next, 1)) - 1
				if i >= b.N {
					return
				}
				if _, err := cl.Lookup(e.GUID); err != nil {
					b.Error(err)
					return
				}
			}
		}(cl)
	}
	wg.Wait()
}

// BenchmarkLookupInto64ClientsV2 is BenchmarkLookup64ClientsV2 with a
// caller-supplied entry buffer per simulated client: the full TCP round
// trip with zero heap allocations (the last alloc — the returned NAs
// slice — dies in the reused buffer). scripts/bench.sh alloc gates it
// at 0 allocs/op.
func BenchmarkLookupInto64ClientsV2(b *testing.B) {
	cl, gs := benchLookupCluster(b, 1024)
	var next int64
	var wg sync.WaitGroup
	b.ReportAllocs()
	b.ResetTimer()
	for c := 0; c < benchConcurrentClients(); c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var e store.Entry
			e.NAs = make([]store.NA, 0, store.MaxNAs)
			for {
				i := int(atomic.AddInt64(&next, 1)) - 1
				if i >= b.N {
					return
				}
				if err := cl.LookupInto(gs[i%len(gs)], &e); err != nil {
					b.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// buildRecoveryDir writes a data dir whose whole population lives in
// the WALs (snapshots disabled), so recovery must replay every record.
func buildRecoveryDir(b *testing.B, entries int) string {
	b.Helper()
	dir := b.TempDir()
	st, err := store.Open(store.Options{Dir: dir, SnapshotBytes: -1})
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < entries; i++ {
		e := store.Entry{
			GUID:    guid.FromUint64(uint64(i) + 1),
			NAs:     []store.NA{{AS: 0, Addr: netaddr.AddrFromOctets(10, 0, byte(i>>8), byte(i))}},
			Version: 1,
		}
		if _, err := st.Put(e); err != nil {
			b.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		b.Fatal(err)
	}
	return dir
}

// BenchmarkWALReplay measures cold-start recovery throughput: Open
// replays BENCH_RECOVER_ENTRIES WAL records (default 50k) per
// iteration. The extra metric is replayed entries per second.
func BenchmarkWALReplay(b *testing.B) {
	entries := envInt("BENCH_RECOVER_ENTRIES", 50000)
	dir := buildRecoveryDir(b, entries)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st, err := store.Open(store.Options{Dir: dir, SnapshotBytes: -1})
		if err != nil {
			b.Fatal(err)
		}
		if st.Len() != entries {
			b.Fatalf("recovered %d entries, want %d", st.Len(), entries)
		}
		if err := st.Close(); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(entries)*float64(b.N)/b.Elapsed().Seconds(), "entries/s")
}

// BenchmarkRecoverTimeToServe measures restart-to-first-answer: open
// the durable store (full WAL replay), start the TCP listener, and
// serve one lookup over a fresh connection. ns/op is the
// time-to-serve after a crash.
func BenchmarkRecoverTimeToServe(b *testing.B) {
	entries := envInt("BENCH_RECOVER_ENTRIES", 50000)
	dir := buildRecoveryDir(b, entries)
	payload := wire.AppendGUID(nil, guid.FromUint64(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		node, err := server.Open(server.Options{DataDir: dir, SnapshotBytes: -1})
		if err != nil {
			b.Fatal(err)
		}
		addr, err := node.Start("127.0.0.1:0")
		if err != nil {
			b.Fatal(err)
		}
		conn, err := wire.Dial(addr, time.Second, 0)
		if err != nil {
			b.Fatal(err)
		}
		typ, body, err := conn.RoundTrip(wire.MsgLookup, payload, time.Second)
		if err != nil || typ != wire.MsgLookupResp {
			b.Fatalf("first lookup = (%v, %v)", typ, err)
		}
		resp, err := wire.DecodeLookupResp(body)
		if err != nil || !resp.Found {
			b.Fatalf("first lookup decode = (%+v, %v)", resp, err)
		}
		b.StopTimer()
		conn.Close()
		if err := node.Close(); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
}
