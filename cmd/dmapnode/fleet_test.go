package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"dmap/internal/metrics"
	"dmap/internal/obs"
	"dmap/internal/server"
	"dmap/internal/trace"
)

// TestHandlersNegotiateJSONAlike: /debug/metrics, /debug/traces,
// /debug/hotkeys and /fleet answer JSON by one rule — ?format=json, or an
// Accept header that names application/json anywhere in its list.
func TestHandlersNegotiateJSONAlike(t *testing.T) {
	handlers := map[string]http.Handler{
		"/debug/metrics": metrics.Handler(metrics.NewRegistry()),
		"/debug/traces":  trace.TracesHandler(trace.New(trace.Config{Sample: 1})),
		"/debug/hotkeys": trace.HotKeysHandler(trace.NewHotKeys(4)),
		"/fleet":         obs.FleetHandler(func() (obs.FleetView, bool) { return obs.FleetView{}, true }),
	}
	asks := []struct{ query, accept string }{
		{"", "application/json; charset=utf-8"},
		{"", "text/html, application/json;q=0.9"},
		{"?format=json", ""},
	}
	for path, h := range handlers {
		for _, ask := range asks {
			req := httptest.NewRequest(http.MethodGet, path+ask.query, nil)
			if ask.accept != "" {
				req.Header.Set("Accept", ask.accept)
			}
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, req)
			if ct := rec.Header().Get("Content-Type"); ct != "application/json" || !json.Valid(rec.Body.Bytes()) {
				t.Errorf("%s%s with Accept %q: Content-Type %q, want JSON", path, ask.query, ask.accept, ct)
			}
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
		if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
			t.Errorf("%s with no Accept: Content-Type %q, want text", path, ct)
		}
	}
}

// fleetCluster starts n live mapping nodes with debug metric servers,
// returning the -scrape and -probe flag values addressing them.
func fleetCluster(t *testing.T, n int) (scrape, probe string) {
	t.Helper()
	var scrapes, probes []string
	for i := 0; i < n; i++ {
		node := server.NewWithOptions(nil, server.Options{})
		addr, err := node.Start("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { node.Close() })
		dbg := httptest.NewServer(metrics.Handler(node.Metrics()))
		t.Cleanup(dbg.Close)
		scrapes = append(scrapes, fmt.Sprintf("n%d=%s", i, dbg.URL))
		probes = append(probes, fmt.Sprintf("n%d=%s", i, addr))
	}
	return strings.Join(scrapes, ","), strings.Join(probes, ",")
}

func TestFleetOnceJSON(t *testing.T) {
	scrape, probe := fleetCluster(t, 2)
	var out bytes.Buffer
	err := fleetMain([]string{"-scrape", scrape, "-probe", probe, "-once", "-json"}, &out, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	var v obs.FleetView
	if err := json.Unmarshal(out.Bytes(), &v); err != nil {
		t.Fatalf("output is not a FleetView: %v\n%s", err, out.String())
	}
	if v.NodesUp != 2 {
		t.Fatalf("nodes up = %d, want 2: %+v", v.NodesUp, v.Nodes)
	}
	if v.Probe == nil || v.Probe.Rounds != 1 {
		t.Fatalf("probe status missing or wrong: %+v", v.Probe)
	}
	for _, ts := range v.Probe.Targets {
		if !ts.WriteOK || !ts.ReadOK {
			t.Errorf("healthy target failed probes: %+v", ts)
		}
	}
	// The sentinel writes the probe made must be visible in the scraped
	// metrics on a second round.
	out.Reset()
	if err := fleetMain([]string{"-scrape", scrape, "-once", "-json"}, &out, nil, nil); err != nil {
		t.Fatal(err)
	}
	var v2 obs.FleetView
	if err := json.Unmarshal(out.Bytes(), &v2); err != nil {
		t.Fatal(err)
	}
	if got := v2.Cluster.Counters["server.inserts"]; got < 3 {
		t.Errorf("cluster inserts = %d, want >= 3 sentinel writes per node", got)
	}
}

func TestFleetOnceTable(t *testing.T) {
	scrape, _ := fleetCluster(t, 2)
	var out bytes.Buffer
	if err := fleetMain([]string{"-scrape", scrape, "-once"}, &out, nil, nil); err != nil {
		t.Fatal(err)
	}
	text := out.String()
	for _, want := range []string{"node", "n0", "n1", "nodes up 2/2"} {
		if !strings.Contains(text, want) {
			t.Errorf("table missing %q:\n%s", want, text)
		}
	}
}

func TestFleetValidation(t *testing.T) {
	for _, args := range [][]string{
		{},
		{"-scrape", "noequals"},
		{"-probe", "=bare"},
		{"-bogus"},
	} {
		if err := fleetMain(args, io.Discard, nil, nil); err == nil {
			t.Errorf("fleet(%v) should fail", args)
		}
	}
}

// TestFleetRejectsOutOfRangeFlags: a flag value the fleet loop cannot
// honour is an error before any round runs, not a panic in the ticker
// after the first (-interval 0) or a value silently replaced by a
// default (-objective, -sentinels, -flight 1). The stop channel is
// closed, so a fleet that accepted the flags returns after one round.
func TestFleetRejectsOutOfRangeFlags(t *testing.T) {
	stop := make(chan struct{})
	close(stop)
	for _, c := range []struct{ flag, value string }{
		{"-interval", "0"},
		{"-interval", "-1s"},
		{"-objective", "0"},
		{"-objective", "1"},
		{"-objective", "1.5"},
		{"-objective", "NaN"},
		{"-sentinels", "0"},
		{"-sentinels", "-3"},
		{"-flight", "1"},
		{"-flight", "-1"},
	} {
		var out bytes.Buffer
		err := fleetMain([]string{"-probe", "x=127.0.0.1:1", c.flag, c.value}, &out, stop, nil)
		if err == nil || !strings.Contains(err.Error(), c.flag) {
			t.Errorf("fleet %s %s: err = %v, want one naming %s", c.flag, c.value, err, c.flag)
		}
		if out.Len() != 0 {
			t.Errorf("fleet %s %s: a round ran before the refusal: %q", c.flag, c.value, out.String())
		}
	}
}

// syncBuffer guards the output buffer: the fleet loop writes from its
// own goroutine while the test reads.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func TestFleetServesHTTP(t *testing.T) {
	scrape, probe := fleetCluster(t, 2)
	stop := make(chan struct{})
	bound := make(chan string, 1)
	errc := make(chan error, 1)
	go func() {
		errc <- fleetMain(
			[]string{"-scrape", scrape, "-probe", probe, "-listen", "127.0.0.1:0", "-interval", "10ms"},
			&syncBuffer{}, stop, func(addr string) { bound <- addr },
		)
	}()
	var addr string
	select {
	case addr = <-bound:
	case err := <-errc:
		t.Fatalf("fleet exited early: %v", err)
	case <-time.After(5 * time.Second):
		t.Fatal("fleet never bound its listener")
	}

	resp, err := http.Get("http://" + addr + "/fleet?format=json")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
		t.Errorf("content type = %q", ct)
	}
	var v obs.FleetView
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	if v.NodesUp != 2 || v.Probe == nil {
		t.Fatalf("served view wrong: up=%d probe=%v", v.NodesUp, v.Probe)
	}

	resp2, err := http.Get("http://" + addr + "/fleet/flight")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK {
		t.Errorf("flight endpoint status %d", resp2.StatusCode)
	}

	close(stop)
	if err := <-errc; err != nil {
		t.Fatalf("fleet returned error: %v", err)
	}
}

func TestFlightReasons(t *testing.T) {
	v := obs.FleetView{
		Outliers: []obs.Outlier{
			{Node: "n3", Metric: "rate:server.sheds_global", Value: 100, Median: 1},
			{Node: "n1", Metric: "rate:server.lookups", Value: 50, Median: 10},
		},
		Probe: &obs.ProbeStatus{
			SLOs:    []obs.SLOStatus{{Name: "availability", Breaching: true}},
			Targets: []obs.ProbeTargetStatus{{Name: "n2", Stale: true}},
		},
	}
	got := flightReasons(v)
	want := []string{"slo-breach", "staleness:n2", "shed-spike:n3"}
	if len(got) != len(want) {
		t.Fatalf("reasons = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("reason[%d] = %q, want %q", i, got[i], want[i])
		}
	}
	if rs := flightReasons(obs.FleetView{}); rs != nil {
		t.Errorf("healthy view has reasons: %v", rs)
	}
}

func TestParseNamed(t *testing.T) {
	got, err := parseNamed(" a=1, b=2,,", "scrape")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0] != [2]string{"a", "1"} || got[1] != [2]string{"b", "2"} {
		t.Fatalf("parseNamed = %v", got)
	}
	if out, err := parseNamed("", "scrape"); err != nil || out != nil {
		t.Errorf("empty list should parse to nil, got %v, %v", out, err)
	}
}
