// Command dmapnode runs the networked DMap stack.
//
// Serve one mapping node (the per-AS role), optionally with a debug
// endpoint exposing live metrics (counters, p50/p95/p99 latency
// histograms) and pprof:
//
//	dmapnode serve -addr :4500 -debug-addr :6060
//	curl :6060/debug/metrics            # text
//	curl ':6060/debug/metrics?format=json'
//	go tool pprof http://:6060/debug/pprof/profile
//
// Or run a self-contained demo cluster: n nodes on loopback, a shared
// synthetic prefix table, inserts and lookups through the real TCP path:
//
//	dmapnode demo -nodes 8 -k 3 -objects 100 -metrics
//
// Watch a whole cluster: scrape every node's metrics into one merged
// view and black-box probe the serving addresses with sentinel GUIDs:
//
//	dmapnode fleet -scrape a=:6060,b=:6061 -probe a=:4500,b=:4501
//	dmapnode fleet -scrape a=:6060 -listen :7070   # serves /fleet
package main

import (
	"cmp"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"dmap/internal/client"
	"dmap/internal/core"
	"dmap/internal/guid"
	"dmap/internal/metrics"
	"dmap/internal/netaddr"
	"dmap/internal/obs"
	"dmap/internal/prefixtable"
	"dmap/internal/server"
	"dmap/internal/store"
	"dmap/internal/trace"
)

// startDebugServer serves reg on /debug/metrics, the tracer on
// /debug/traces, the hot-GUID trackers on /debug/hotkeys and the pprof
// suite on addr, returning the bound address and a shutdown func. tr
// and hot may be nil (the handlers answer with an "off" notice).
func startDebugServer(addr string, reg *metrics.Registry, tr *trace.Tracer, hot *trace.HotKeys) (string, func() error, error) {
	mux := http.NewServeMux()
	mux.Handle("/debug/metrics", metrics.Handler(reg))
	mux.Handle("/debug/traces", trace.TracesHandler(tr))
	mux.Handle("/debug/hotkeys", trace.HotKeysHandler(hot))
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", nil, fmt.Errorf("debug listen %s: %w", addr, err)
	}
	srv := &http.Server{Handler: mux}
	go srv.Serve(ln)
	return ln.Addr().String(), srv.Close, nil
}

func main() {
	if len(os.Args) < 2 {
		fmt.Fprintln(os.Stderr, "usage: dmapnode serve|demo|fleet [flags]")
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "serve":
		err = serve(os.Args[2:])
	case "demo":
		err = demo(os.Args[2:])
	case "fleet":
		err = fleet(os.Args[2:])
	default:
		err = fmt.Errorf("unknown subcommand %q", os.Args[1])
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "dmapnode:", err)
		os.Exit(1)
	}
}

// splitPeers parses the -gossip-peers list, dropping empty elements so
// trailing commas don't become dial targets.
func splitPeers(s string) []string {
	var peers []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			peers = append(peers, p)
		}
	}
	return peers
}

// stderrLogger is serve's -log-level: slog's level names (any case),
// "warning" for warn, and "off" or "none" for no logger at all.
func stderrLogger(name string) (*slog.Logger, error) {
	var level slog.Level
	switch strings.ToLower(name) {
	case "off", "none":
		return nil, nil
	case "warning":
		name = "warn"
	}
	if err := level.UnmarshalText([]byte(name)); err != nil {
		return nil, fmt.Errorf("-log-level: %w", err)
	}
	return slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: level})), nil
}

func serve(args []string) error {
	fs := flag.NewFlagSet("serve", flag.ContinueOnError)
	addr := fs.String("addr", ":4500", "listen address")
	debugAddr := fs.String("debug-addr", "", "debug HTTP address serving /debug/metrics, /debug/traces, /debug/hotkeys and /debug/pprof (empty = off)")
	logLevel := fs.String("log-level", "warn", "minimum log level: debug, info, warn, error or off")
	traceSample := fs.Int("trace-sample", 0, "join 1 in N traced requests into /debug/traces (0 = tracing off)")
	slowOpMs := fs.Int("slow-op-ms", 0, "log any request slower than this many milliseconds (0 = off)")
	hotKeys := fs.Int("hotkeys", 32, "track the hottest N GUIDs per class at /debug/hotkeys (0 = off)")
	dataDir := fs.String("data-dir", "", "durable store directory: one WAL for the node + per-shard snapshots, recovered on restart (empty = memory-only)")
	fsyncMode := fs.String("fsync", "os", "WAL flush policy: os (write-only, survives process crash), always (fsync per log write: one per burst of inserts), interval (periodic fsync)")
	shards := fs.Int("shards", 0, "store shard count, power of two (0 = default; must match an existing -data-dir)")
	snapshotMB := fs.Int("snapshot-mb", 0, "per shard's share of the node log: MiB one shard logs before a background compaction snapshots the shards and retires the log (0 = default 4, negative = disabled)")
	maxInflight := fs.Int("max-inflight", 0, "shed requests beyond this many in flight node-wide (0 = unbounded)")
	maxConnInflight := fs.Int("max-conn-inflight", 0, "shed requests beyond this many in flight per connection (0 = unbounded)")
	gossipPeers := fs.String("gossip-peers", "", "comma-separated replica addresses for background anti-entropy repair (empty = off)")
	gossipInterval := fs.Duration("gossip-interval", time.Second, "pause between anti-entropy sweeps (one peer per tick)")
	runtimeMetrics := fs.Bool("runtime-metrics", true, "bridge Go runtime telemetry (heap, goroutines, GC pauses, scheduler latency) into /debug/metrics")
	if err := fs.Parse(args); err != nil {
		return err
	}
	logger, err := stderrLogger(*logLevel)
	if err != nil {
		return err
	}
	fsync, err := store.ParseFsyncMode(*fsyncMode)
	if err != nil {
		return err
	}
	var tracer *trace.Tracer
	if *traceSample > 0 || *slowOpMs > 0 {
		tracer = trace.New(trace.Config{
			Sample: *traceSample,
			SlowOp: time.Duration(*slowOpMs) * time.Millisecond,
		})
	}
	var hot *trace.HotKeys
	if *hotKeys > 0 {
		hot = trace.NewHotKeys(*hotKeys)
	}
	st, err := serveStore(*dataDir, *shards, fsync, *snapshotMB)
	if err != nil {
		return err
	}
	node := server.NewWithOptions(st, server.Options{
		Logger:          logger,
		Tracer:          tracer,
		HotKeys:         hot,
		MaxInflight:     *maxInflight,
		MaxConnInflight: *maxConnInflight,
		Gossip: server.GossipOptions{
			Peers:    splitPeers(*gossipPeers),
			Interval: *gossipInterval,
		},
	})
	// The node's handlers drain before the store is flushed and closed, so
	// a clean shutdown needs no WAL replay beyond the last snapshot.
	shutdown := func() error {
		err := node.Close()
		if cerr := node.Store().Close(); err == nil {
			err = cerr
		}
		return err
	}
	if *runtimeMetrics {
		obs.RegisterRuntime(node.Metrics())
	}
	bound, err := node.Start(*addr)
	if err != nil {
		shutdown()
		return err
	}
	fmt.Printf("mapping node listening on %s\n", bound)
	if *dataDir != "" {
		rec := st.Recovery()
		fmt.Printf("recovered %d mappings from %s (%d snapshot entries, %d WAL records replayed, %d torn bytes discarded) in %v\n",
			st.Len(), *dataDir, rec.SnapshotEntries, rec.ReplayedRecords, rec.TornBytes, rec.Elapsed.Round(time.Millisecond))
	}
	if *debugAddr != "" {
		dbgBound, stop, err := startDebugServer(*debugAddr, node.Metrics(), tracer, hot)
		if err != nil {
			shutdown()
			return err
		}
		defer stop()
		fmt.Printf("debug endpoint on http://%s/debug/metrics\n", dbgBound)
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	fmt.Println("shutting down")
	return shutdown()
}

// serveStore builds serve's store with the given shard count (0 =
// store.DefaultShards). Under a data directory it is durable (WAL +
// snapshots): acknowledged writes survive a crash and are recovered here
// on the next start. Without one it is memory-only.
func serveStore(dataDir string, shards int, fsync store.FsyncMode, snapshotMB int) (*store.Store, error) {
	if dataDir == "" {
		return store.NewSharded(cmp.Or(shards, store.DefaultShards))
	}
	return store.Open(store.Options{
		Dir:           dataDir,
		Shards:        shards,
		Fsync:         fsync,
		SnapshotBytes: int64(snapshotMB) << 20,
	})
}

func demo(args []string) error {
	fs := flag.NewFlagSet("demo", flag.ContinueOnError)
	var (
		nodes       = fs.Int("nodes", 8, "number of mapping nodes (ASs)")
		k           = fs.Int("k", 3, "replication factor")
		objects     = fs.Int("objects", 100, "objects to insert and look up")
		seed        = fs.Int64("seed", 1, "prefix table seed")
		batch       = fs.Int("batch", 1, "ops per wire frame: > 1 uses the v2 batched InsertBatch/LookupBatch path")
		showMetrics = fs.Bool("metrics", false, "print client and server metrics snapshots after the run")
		traceSample = fs.Int("trace-sample", 0, "sample 1 in N client ops into a trace and print the last span tree (0 = off)")
		slowOpMs    = fs.Int("slow-op-ms", 0, "record ops slower than this many milliseconds in the slow-op log (0 = off)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *nodes < 2 || *k < 1 || *objects < 1 {
		return fmt.Errorf("need nodes >= 2, k >= 1, objects >= 1")
	}

	tbl, err := prefixtable.Generate(prefixtable.GenConfig{
		NumAS:       *nodes,
		NumPrefixes: *nodes * 16,
		Seed:        *seed,
	})
	if err != nil {
		return err
	}
	resolver, err := core.NewResolver(guid.MustHasher(*k, 0), tbl, 0)
	if err != nil {
		return err
	}

	slowOp := time.Duration(*slowOpMs) * time.Millisecond
	var tracer *trace.Tracer
	if *traceSample > 0 || slowOp > 0 {
		tracer = trace.New(trace.Config{Sample: *traceSample, SlowOp: slowOp, Seed: uint64(*seed)})
	}

	srvs := make([]*server.Node, *nodes)
	addrs := make(map[int]string, *nodes)
	for as := range srvs {
		var opts server.Options
		if tracer != nil {
			// Server-side tracers join whatever sampled contexts arrive;
			// their own sampler is never consulted for joined spans.
			opts.Tracer = trace.New(trace.Config{SlowOp: slowOp, Seed: uint64(*seed)})
			opts.HotKeys = trace.NewHotKeys(16)
		}
		srvs[as] = server.NewWithOptions(nil, opts)
		bound, err := srvs[as].Start("127.0.0.1:0")
		if err != nil {
			return err
		}
		addrs[as] = bound
		defer srvs[as].Close()
	}
	fmt.Printf("started %d mapping nodes, K=%d, %d prefixes (%.0f%% of space announced)\n",
		*nodes, *k, tbl.Len(), 100*tbl.AnnouncedFraction())

	c, err := client.NewWithConfig(resolver, addrs, client.Config{Tracer: tracer})
	if err != nil {
		return err
	}
	defer c.Close()

	entries := make([]store.Entry, *objects)
	for i := range entries {
		entries[i] = store.Entry{
			GUID:    guid.New(fmt.Sprintf("object-%d", i)),
			NAs:     []store.NA{{AS: i % *nodes, Addr: netaddr.AddrFromOctets(10, 0, byte(i>>8), byte(i))}},
			Version: 1,
		}
	}

	start := time.Now()
	if *batch > 1 {
		acks, err := c.InsertBatch(entries)
		if err != nil {
			return fmt.Errorf("batch insert: %w", err)
		}
		for i, n := range acks {
			if n == 0 {
				return fmt.Errorf("insert %d: no replica stored it", i)
			}
		}
	} else {
		for i, e := range entries {
			if _, err := c.Insert(e); err != nil {
				return fmt.Errorf("insert %d: %w", i, err)
			}
		}
	}
	insertDur := time.Since(start)

	start = time.Now()
	if *batch > 1 {
		gs := make([]guid.GUID, *objects)
		for i := range gs {
			gs[i] = entries[i].GUID
		}
		got, found, err := c.LookupBatch(gs)
		if err != nil {
			return fmt.Errorf("batch lookup: %w", err)
		}
		for i := range gs {
			if !found[i] {
				return fmt.Errorf("object %d not found", i)
			}
			if want := i % *nodes; got[i].NAs[0].AS != want {
				return fmt.Errorf("object %d resolved to AS %d, want %d", i, got[i].NAs[0].AS, want)
			}
		}
	} else {
		for i := 0; i < *objects; i++ {
			e, err := c.Lookup(entries[i].GUID)
			if err != nil {
				return fmt.Errorf("lookup %d: %w", i, err)
			}
			if want := i % *nodes; e.NAs[0].AS != want {
				return fmt.Errorf("object %d resolved to AS %d, want %d", i, e.NAs[0].AS, want)
			}
		}
	}
	lookupDur := time.Since(start)

	fmt.Printf("%d inserts in %v (%.0f/s), %d lookups in %v (%.0f/s)\n",
		*objects, insertDur.Round(time.Millisecond), float64(*objects)/insertDur.Seconds(),
		*objects, lookupDur.Round(time.Millisecond), float64(*objects)/lookupDur.Seconds())

	fmt.Println("\nper-node load (mappings hosted):")
	for as, s := range srvs {
		st := s.Stats()
		fmt.Printf("  AS %2d @ %s: %4d mappings, %d lookups served (%d hits)\n",
			as, addrs[as], s.Store().Len(), st.Lookups, st.Hits)
	}
	if *showMetrics {
		fmt.Println("\n# client metrics")
		if err := c.Metrics().Snapshot().WriteText(os.Stdout); err != nil {
			return err
		}
		fmt.Println("\n# AS 0 server metrics")
		if err := srvs[0].Metrics().Snapshot().WriteText(os.Stdout); err != nil {
			return err
		}
	}
	if tracer != nil {
		st := tracer.Stats()
		fmt.Printf("\n# tracing: %d ops, %d sampled, %d slow\n", st.Ops, st.Sampled, st.SlowOps)
		if tvs := tracer.Traces(); len(tvs) > 0 {
			fmt.Println("last sampled client trace:")
			fmt.Print(tvs[len(tvs)-1].Tree(true))
		}
		joined := 0
		for _, s := range srvs {
			joined += len(s.Tracer().Traces())
		}
		fmt.Printf("server-side spans joined across nodes: %d\n", joined)
	}
	return nil
}
