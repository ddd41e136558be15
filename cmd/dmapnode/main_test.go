package main

import (
	"context"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"strings"
	"testing"
	"time"

	"dmap/internal/client"
	"dmap/internal/core"
	"dmap/internal/guid"
	"dmap/internal/metrics"
	"dmap/internal/netaddr"
	"dmap/internal/prefixtable"
	"dmap/internal/server"
	"dmap/internal/store"
)

func TestDemoRoundTrip(t *testing.T) {
	if err := demo([]string{"-nodes", "4", "-k", "2", "-objects", "20", "-metrics"}); err != nil {
		t.Fatal(err)
	}
}

func TestDemoValidation(t *testing.T) {
	cases := [][]string{
		{"-nodes", "1"},
		{"-k", "0"},
		{"-objects", "0"},
	}
	for _, args := range cases {
		if err := demo(args); err == nil {
			t.Errorf("demo(%v) should fail", args)
		}
	}
	if err := demo([]string{"-bogus"}); err == nil {
		t.Error("bad flag should fail")
	}
}

// TestLogLevelNames: serve's -log-level takes slog's level names in any
// case, "warning" for warn, "off" and "none" for no logger, and refuses
// anything else before it opens a listener.
func TestLogLevelNames(t *testing.T) {
	ctx := context.Background()
	for _, tc := range []struct {
		name string
		want slog.Level
	}{
		{"debug", slog.LevelDebug}, {"INFO", slog.LevelInfo},
		{"warn", slog.LevelWarn}, {"warning", slog.LevelWarn},
		{"error", slog.LevelError},
	} {
		lg, err := stderrLogger(tc.name)
		if err != nil {
			t.Fatalf("-log-level %s: %v", tc.name, err)
		}
		if !lg.Enabled(ctx, tc.want) || lg.Enabled(ctx, tc.want-1) {
			t.Fatalf("-log-level %s is not enabled from %v up", tc.name, tc.want)
		}
	}
	for _, name := range []string{"off", "none", "OFF"} {
		if lg, err := stderrLogger(name); lg != nil || err != nil {
			t.Fatalf("-log-level %s = %v, %v; want no logger", name, lg, err)
		}
	}
	if _, err := stderrLogger("bogus"); err == nil {
		t.Fatal("-log-level bogus was accepted")
	}
	if err := serve([]string{"-addr", "127.0.0.1:0", "-log-level", "bogus"}); err == nil {
		t.Fatal("serve -log-level bogus was accepted")
	}
}

// TestServeShards: -shards sizes a memory-only store as it does a
// durable one, and a count that is not a power of two is refused before
// serve opens a listener.
func TestServeShards(t *testing.T) {
	for flag, want := range map[int]int{64: 64, 0: store.DefaultShards} {
		st, err := serveStore("", flag, store.FsyncOS, 0)
		if err != nil {
			t.Fatal(err)
		}
		if got := st.ShardCount(); got != want {
			t.Fatalf("-shards %d without -data-dir: %d shards, want %d", flag, got, want)
		}
	}
	if err := serve([]string{"-addr", "127.0.0.1:0", "-shards", "3"}); err == nil {
		t.Fatal("serve -shards 3 was accepted")
	}
}

// TestDebugMetricsEndpoint drives a live mapping node over real TCP and
// then scrapes /debug/metrics, checking that the served text exposes
// the per-op counters and latency quantiles.
func TestDebugMetricsEndpoint(t *testing.T) {
	node := server.NewWithOptions(nil, server.Options{})
	addr, err := node.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()

	dbgAddr, stop, err := startDebugServer("127.0.0.1:0", node.Metrics(), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer stop()

	// One insert + two lookups through the real wire path.
	tbl := prefixtable.New()
	p, err := netaddr.NewPrefix(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := tbl.Announce(p, 0); err != nil {
		t.Fatal(err)
	}
	resolver, err := core.NewResolver(guid.MustHasher(1, 0), tbl, 0)
	if err != nil {
		t.Fatal(err)
	}
	cl, err := client.NewWithConfig(resolver, map[int]string{0: addr}, client.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	e := store.Entry{
		GUID:    guid.New("debug-metrics"),
		NAs:     []store.NA{{AS: 0, Addr: netaddr.AddrFromOctets(10, 0, 0, 1)}},
		Version: 1,
	}
	if _, err := cl.Insert(e); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, err := cl.Lookup(e.GUID); err != nil {
			t.Fatal(err)
		}
	}

	// The server releases a request's admission claim after the reply's
	// write returns, so a client that already holds the last reply can
	// still scrape an in-flight count of 1: wait for it to settle.
	var text string
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		resp, err := http.Get("http://" + dbgAddr + "/debug/metrics")
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		text = string(body)
		if strings.Contains(text, "gauge server.inflight 0") || time.Now().After(deadline) {
			break
		}
	}
	for _, want := range []string{
		"counter server.inserts 1",
		"counter server.lookups 2",
		"counter server.hits 2",
		"hist server.op.lookup_us count=2",
		"p50=", "p95=", "p99=", "p999=",
		"gauge store.size 1",
		"counter server.sheds_conn 0",
		"counter server.sheds_global 0",
		"gauge server.inflight 0",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/debug/metrics missing %q in:\n%s", want, text)
		}
	}

	// JSON view decodes into a snapshot with the same counters.
	resp2, err := http.Get("http://" + dbgAddr + "/debug/metrics?format=json")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	var snap metrics.Snapshot
	if err := json.NewDecoder(resp2.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	if snap.Counters["server.lookups"] != 2 {
		t.Errorf("json server.lookups = %d, want 2", snap.Counters["server.lookups"])
	}
	if h := snap.Histograms["server.op.lookup_us"]; h.Count != 2 || h.Quantile(95) <= 0 {
		t.Errorf("json lookup histogram wrong: %+v", h)
	}
}
