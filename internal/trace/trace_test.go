package trace

import (
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"dmap/internal/guid"
)

// TestNilSafety exercises every public entry point on nil receivers:
// the tracing-off hot path must be inert, not panicky.
func TestNilSafety(t *testing.T) {
	var tr *Tracer
	sp := tr.StartOp("op")
	if sp != nil {
		t.Fatalf("nil tracer StartOp = %v, want nil", sp)
	}
	sp.Eventf("should not evaluate %d", 1)
	if c := sp.Context(); c != (Context{}) {
		t.Fatalf("nil span Context = %+v, want zero", c)
	}
	if id := sp.TraceID(); id != 0 {
		t.Fatalf("nil span TraceID = %d, want 0", id)
	}
	if ch := sp.NewChild("x"); ch != nil {
		t.Fatalf("nil span NewChild = %v, want nil", ch)
	}
	sp.End()
	tr.FinishOp(nil, "op", guid.GUID{}, time.Now(), nil)
	tr.ObserveServerOp("op", 1, Context{}, time.Now())
	if tr.SlowEnabled() {
		t.Fatal("nil tracer SlowEnabled = true")
	}
	if got := tr.Traces(); got != nil {
		t.Fatalf("nil tracer Traces = %v", got)
	}
	if got := tr.SlowOps(); got != nil {
		t.Fatalf("nil tracer SlowOps = %v", got)
	}
	if st := tr.Stats(); st != (Stats{}) {
		t.Fatalf("nil tracer Stats = %+v", st)
	}

	var hk *HotKeys
	hk.ObserveLookup(guid.GUID{})
	hk.ObserveInserts([]guid.GUID{{}})
	if got := hk.TopLookups(5); got != nil {
		t.Fatalf("nil hotkeys TopLookups = %v", got)
	}
}

func TestNewTraceIDDeterministic(t *testing.T) {
	a := NewTraceID(42, 7)
	b := NewTraceID(42, 7)
	if a != b {
		t.Fatalf("NewTraceID not deterministic: %x vs %x", a, b)
	}
	if a == NewTraceID(42, 8) {
		t.Fatal("distinct ops produced equal trace IDs")
	}
	if a == NewTraceID(43, 7) {
		t.Fatal("distinct seeds produced equal trace IDs")
	}
	if NewTraceID(0, 0) == 0 || FromRequestID(0) == 0 {
		t.Fatal("derived trace ID must never be zero")
	}
}

// TestSamplingRatio checks the 1-in-N deterministic sampler: with
// Sample=4, exactly ops 0, 4, 8, ... open spans.
func TestSamplingRatio(t *testing.T) {
	tr := New(Config{Sample: 4})
	var sampled []int
	for i := 0; i < 16; i++ {
		sp := tr.StartOp("op")
		if sp != nil {
			sampled = append(sampled, i)
			sp.End()
		}
	}
	want := []int{0, 4, 8, 12}
	if fmt.Sprint(sampled) != fmt.Sprint(want) {
		t.Fatalf("sampled ops = %v, want %v", sampled, want)
	}
	if got := len(tr.Traces()); got != 4 {
		t.Fatalf("published traces = %d, want 4", got)
	}
	st := tr.Stats()
	if st.Ops != 16 || st.Sampled != 4 {
		t.Fatalf("stats = %+v, want Ops=16 Sampled=4", st)
	}
}

// runCanonicalOps drives one tracer through a fixed sequence of ops
// with child spans and events, returning the rendered (timeless) trees.
func runCanonicalOps(tr *Tracer) []string {
	for i := 0; i < 6; i++ {
		sp := tr.StartOp("client.lookup")
		att := sp.NewChild("attempt")
		att.Eventf("as=%d attempt=%d", 100+i, 0)
		if i%2 == 0 {
			att.Eventf("retry: timeout")
			att2 := sp.NewChild("attempt")
			att2.Eventf("as=%d attempt=%d", 200+i, 1)
			att2.End()
		}
		att.End()
		sp.End()
	}
	var trees []string
	for _, v := range tr.Traces() {
		trees = append(trees, v.Tree(false))
	}
	return trees
}

// TestDeterministicSpanTrees is the acceptance-criteria test: identical
// seeds and identical op sequences yield byte-identical span trees
// (IDs, structure, names, events).
func TestDeterministicSpanTrees(t *testing.T) {
	a := runCanonicalOps(New(Config{Sample: 2, Seed: 99}))
	b := runCanonicalOps(New(Config{Sample: 2, Seed: 99}))
	if len(a) == 0 {
		t.Fatal("no traces produced")
	}
	if fmt.Sprint(a) != fmt.Sprint(b) {
		t.Fatalf("identical seeds produced different span trees:\n--- run A ---\n%s\n--- run B ---\n%s",
			strings.Join(a, "\n"), strings.Join(b, "\n"))
	}
	c := runCanonicalOps(New(Config{Sample: 2, Seed: 100}))
	if fmt.Sprint(a) == fmt.Sprint(c) {
		t.Fatal("different seeds produced identical trace IDs")
	}
}

func TestSpanTreeRendering(t *testing.T) {
	tr := New(Config{Sample: 1, Seed: 1})
	sp := tr.StartOp("root")
	ch := sp.NewChild("child")
	ch.Eventf("hello %s", "world")
	gr := ch.NewChild("grandchild")
	gr.End()
	ch.End()
	open := sp.NewChild("abandoned")
	_ = open
	sp.End()

	views := tr.Traces()
	if len(views) != 1 {
		t.Fatalf("traces = %d, want 1", len(views))
	}
	v := views[0]
	tree := v.Tree(false)
	// Tree(false) renders siblings in canonical (sorted) order, so
	// "abandoned" precedes "child" regardless of creation order.
	want := fmt.Sprintf("trace %016x spans=4\n- root\n  - abandoned\n  - child\n    · hello world\n    - grandchild\n", uint64(v.Trace))
	if tree != want {
		t.Fatalf("tree mismatch:\ngot:\n%s\nwant:\n%s", tree, want)
	}
	// The abandoned span stays open (DurUs == 0) in the published view,
	// and its later End must not mutate the view.
	if v.Spans[3].Name != "abandoned" || v.Spans[3].DurUs != 0 {
		t.Fatalf("abandoned span = %+v, want open", v.Spans[3])
	}
	open.End()
	if v.Spans[3].DurUs != 0 {
		t.Fatal("End after publish mutated the published view")
	}
	timed := v.Tree(true)
	if !strings.Contains(timed, "(open)") {
		t.Fatalf("timed tree should mark open spans:\n%s", timed)
	}
}

// TestRemoteParent checks server-side root spans joined to a client
// trace: same trace ID, remote parent rendered as such.
func TestRemoteParent(t *testing.T) {
	client := New(Config{Sample: 1, Seed: 7})
	server := New(Config{Sample: 1, Seed: 8})

	sp := client.StartOp("client.lookup")
	att := sp.NewChild("attempt")
	tc := att.Context()
	if !tc.Sampled || tc.Trace == 0 || tc.Span == 0 {
		t.Fatalf("attempt context = %+v", tc)
	}

	ssp := server.StartSpanFromContext("server.frame", tc)
	h := ssp.NewChild("server.handle")
	h.End()
	ssp.End()
	att.End()
	sp.End()

	sViews := server.Traces()
	if len(sViews) != 1 {
		t.Fatalf("server traces = %d, want 1", len(sViews))
	}
	sv := sViews[0]
	if sv.Trace != tc.Trace {
		t.Fatalf("server trace ID %x, want client's %x", sv.Trace, tc.Trace)
	}
	if sv.Spans[0].Remote != tc.Span || sv.Spans[0].Parent != 0 {
		t.Fatalf("server root remote parent %x (parent %x), want remote %x parent 0",
			sv.Spans[0].Remote, sv.Spans[0].Parent, tc.Span)
	}
	if tree := sv.Tree(false); !strings.Contains(tree, "remote parent span") {
		t.Fatalf("server tree should note the remote parent:\n%s", tree)
	}
	// Unsampled or empty contexts must not open spans.
	if s := server.StartSpanFromContext("x", Context{Trace: 5, Sampled: false}); s != nil {
		t.Fatal("unsampled context opened a span")
	}
	if s := server.StartSpanFromContext("x", Context{Sampled: true}); s != nil {
		t.Fatal("zero-trace context opened a span")
	}
}

// TestSlowOpCapture: slow ops land in the log even when unsampled, and
// fast ops do not.
func TestSlowOpCapture(t *testing.T) {
	tr := New(Config{Sample: 0, SlowOp: time.Microsecond})
	if !tr.SlowEnabled() {
		t.Fatal("SlowEnabled = false with threshold set")
	}
	g := guid.FromUint64(0xDEAD)
	start := time.Now().Add(-time.Millisecond)
	tr.FinishOp(nil, "lookup", g, start, fmt.Errorf("not found"))
	tr.ObserveServerOp("server.lookup", 17, Context{}, start)

	slow := tr.SlowOps()
	if len(slow) != 2 {
		t.Fatalf("slow ops = %d, want 2", len(slow))
	}
	cli := slow[0]
	if cli.Op != "lookup" || cli.GUID != g.String() || cli.Err != "not found" || cli.Sampled {
		t.Fatalf("client slow op = %+v", cli)
	}
	if cli.DurUs < 900 {
		t.Fatalf("client slow op dur = %dµs, want ≈1000", cli.DurUs)
	}
	srv := slow[1]
	if srv.Trace != FromRequestID(17) {
		t.Fatalf("server slow op trace = %x, want FromRequestID(17) = %x", srv.Trace, FromRequestID(17))
	}

	// Fast ops stay out of the log.
	fast := New(Config{SlowOp: time.Hour})
	fast.FinishOp(nil, "lookup", g, time.Now(), nil)
	fast.ObserveServerOp("x", 1, Context{}, time.Now())
	if got := len(fast.SlowOps()); got != 0 {
		t.Fatalf("fast ops recorded as slow: %d", got)
	}

	// A sampled slow op carries its real trace ID.
	both := New(Config{Sample: 1, SlowOp: time.Microsecond, Seed: 3})
	sp := both.StartOp("lookup")
	both.FinishOp(sp, "lookup", g, time.Now().Add(-time.Millisecond), nil)
	bs := both.SlowOps()
	if len(bs) != 1 || !bs[0].Sampled {
		t.Fatalf("sampled slow ops = %+v", bs)
	}
	if bs[0].Trace != both.Traces()[0].Trace {
		t.Fatalf("sampled slow op trace = %x, want %x", bs[0].Trace, both.Traces()[0].Trace)
	}
}

func TestRingWraparound(t *testing.T) {
	r := newRing[int](4)
	for i := 0; i < 10; i++ {
		v := i
		r.put(&v)
	}
	if r.total() != 10 {
		t.Fatalf("total = %d, want 10", r.total())
	}
	snap := r.snapshot()
	if len(snap) != 4 {
		t.Fatalf("snapshot len = %d, want 4", len(snap))
	}
	for i, p := range snap {
		if *p != 6+i {
			t.Fatalf("snapshot[%d] = %d, want %d (oldest-first retention)", i, *p, 6+i)
		}
	}
	// Partial fill: oldest-first from slot 0.
	r2 := newRing[int](8)
	for i := 0; i < 3; i++ {
		v := i * 10
		r2.put(&v)
	}
	snap2 := r2.snapshot()
	if len(snap2) != 3 || *snap2[0] != 0 || *snap2[2] != 20 {
		t.Fatalf("partial snapshot = %v", snap2)
	}
}

// TestRingConcurrent hammers the ring from many goroutines under -race:
// no torn entries, every retained pointer valid.
func TestRingConcurrent(t *testing.T) {
	r := newRing[uint64](32)
	var wg sync.WaitGroup
	const writers, per = 8, 500
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				v := uint64(w*per + i)
				r.put(&v)
				if i%17 == 0 {
					for _, p := range r.snapshot() {
						if p == nil {
							t.Error("nil entry in snapshot")
							return
						}
					}
				}
			}
		}(w)
	}
	wg.Wait()
	if r.total() != writers*per {
		t.Fatalf("total = %d, want %d", r.total(), writers*per)
	}
	if got := len(r.snapshot()); got != 32 {
		t.Fatalf("retained = %d, want 32", got)
	}
}

// TestSpaceSaving checks the top-K guarantee on a skewed stream: keys
// with true frequency above N/K are monitored, counts overestimate by
// at most Err, and Count-Err lower-bounds the true frequency.
func TestSpaceSaving(t *testing.T) {
	s := NewSpaceSaving(8)
	truth := map[uint64]uint64{}
	// Zipf-ish: key i appears 2^(12-i) times, plus a tail of singletons.
	var stream []uint64
	for i := uint64(1); i <= 6; i++ {
		n := uint64(1) << (12 - i)
		truth[i] = n
		for j := uint64(0); j < n; j++ {
			stream = append(stream, i)
		}
	}
	for i := uint64(1000); i < 1200; i++ {
		truth[i] = 1
		stream = append(stream, i)
	}
	// Deterministic interleave so hot keys are spread through the tail.
	for i, j := 0, len(stream)-1; i < j; i, j = i+3, j-1 {
		stream[i], stream[j] = stream[j], stream[i]
	}
	var total uint64
	for _, k := range stream {
		s.Observe(guid.FromUint64(k))
		total++
	}
	if s.Total() != total {
		t.Fatalf("Total = %d, want %d", s.Total(), total)
	}
	top := s.Top(0)
	if len(top) != 8 {
		t.Fatalf("monitored = %d, want 8", len(top))
	}
	byGUID := map[string]HotKey{}
	for _, k := range top {
		byGUID[k.GUID.String()] = k
		if k.Err > k.Count {
			t.Fatalf("entry %+v has Err > Count", k)
		}
	}
	for i := uint64(1); i <= 6; i++ {
		g := guid.FromUint64(i)
		k, ok := byGUID[g.String()]
		if !ok {
			t.Fatalf("hot key %d (freq %d > N/K=%d) not monitored", i, truth[i], total/8)
		}
		if k.Count < truth[i] {
			t.Fatalf("key %d count %d underestimates truth %d", i, k.Count, truth[i])
		}
		if k.Count-k.Err > truth[i] {
			t.Fatalf("key %d guaranteed count %d exceeds truth %d", i, k.Count-k.Err, truth[i])
		}
	}
	// Top is sorted hottest-first.
	for i := 1; i < len(top); i++ {
		if top[i].Count > top[i-1].Count {
			t.Fatalf("Top not sorted: %d before %d", top[i-1].Count, top[i].Count)
		}
	}
	if got := len(s.Top(3)); got != 3 {
		t.Fatalf("Top(3) = %d entries", got)
	}
}

func TestHotKeysClasses(t *testing.T) {
	hk := NewHotKeys(4)
	a, b := guid.FromUint64(1), guid.FromUint64(2)
	for i := 0; i < 5; i++ {
		hk.ObserveLookup(a)
	}
	hk.ObserveInserts([]guid.GUID{b})
	lk, ins := hk.TopLookups(10), hk.TopInserts(10)
	if len(lk) != 1 || lk[0].GUID != a || lk[0].Count != 5 {
		t.Fatalf("TopLookups = %+v", lk)
	}
	if len(ins) != 1 || ins[0].GUID != b || ins[0].Count != 1 {
		t.Fatalf("TopInserts = %+v", ins)
	}
}

func TestTracesHandler(t *testing.T) {
	tr := New(Config{Sample: 1, SlowOp: time.Microsecond, Seed: 5})
	sp := tr.StartOp("client.lookup")
	sp.NewChild("attempt").End()
	tr.FinishOp(sp, "lookup", guid.FromUint64(9), time.Now().Add(-time.Millisecond), nil)

	rec := httptest.NewRecorder()
	TracesHandler(tr).ServeHTTP(rec, httptest.NewRequest("GET", "/debug/traces", nil))
	body := rec.Body.String()
	if !strings.Contains(body, "client.lookup") || !strings.Contains(body, "attempt") {
		t.Fatalf("text body missing span tree:\n%s", body)
	}
	if !strings.Contains(body, "op=lookup") {
		t.Fatalf("text body missing slow-op line:\n%s", body)
	}

	rec = httptest.NewRecorder()
	TracesHandler(tr).ServeHTTP(rec, httptest.NewRequest("GET", "/debug/traces?format=json", nil))
	var doc struct {
		Stats   Stats        `json:"stats"`
		Traces  []*TraceView `json:"traces"`
		SlowOps []*SlowOp    `json:"slow_ops"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil {
		t.Fatalf("json decode: %v\n%s", err, rec.Body.String())
	}
	if len(doc.Traces) != 1 || len(doc.Traces[0].Spans) != 2 || len(doc.SlowOps) != 1 {
		t.Fatalf("json doc = %+v", doc)
	}
	if doc.Stats.Sampled != 1 {
		t.Fatalf("json stats = %+v", doc.Stats)
	}

	// n= limits to most recent.
	for i := 0; i < 4; i++ {
		s := tr.StartOp("extra")
		tr.FinishOp(s, "extra", guid.GUID{}, time.Now(), nil)
	}
	rec = httptest.NewRecorder()
	TracesHandler(tr).ServeHTTP(rec, httptest.NewRequest("GET", "/debug/traces?format=json&n=2", nil))
	doc.Traces = nil
	if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Traces) != 2 {
		t.Fatalf("n=2 returned %d traces", len(doc.Traces))
	}

	// Nil tracer serves an empty document rather than panicking.
	rec = httptest.NewRecorder()
	TracesHandler(nil).ServeHTTP(rec, httptest.NewRequest("GET", "/debug/traces", nil))
	if rec.Code != 200 {
		t.Fatalf("nil tracer handler status = %d", rec.Code)
	}
}

func TestHotKeysHandler(t *testing.T) {
	hk := NewHotKeys(4)
	g := guid.FromUint64(0xBEEF)
	for i := 0; i < 3; i++ {
		hk.ObserveLookup(g)
	}
	hk.ObserveInserts([]guid.GUID{g})

	rec := httptest.NewRecorder()
	HotKeysHandler(hk).ServeHTTP(rec, httptest.NewRequest("GET", "/debug/hotkeys", nil))
	body := rec.Body.String()
	if !strings.Contains(body, "# lookups: total=3") || !strings.Contains(body, "# inserts: total=1") {
		t.Fatalf("text body:\n%s", body)
	}
	if !strings.Contains(body, g.String()) {
		t.Fatalf("text body missing GUID:\n%s", body)
	}

	rec = httptest.NewRecorder()
	HotKeysHandler(hk).ServeHTTP(rec, httptest.NewRequest("GET", "/debug/hotkeys?format=json&n=1", nil))
	var doc hotKeysJSON
	if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil {
		t.Fatalf("json decode: %v\n%s", err, rec.Body.String())
	}
	if doc.Lookups.Total != 3 || len(doc.Lookups.Top) != 1 || doc.Lookups.Top[0].Count != 3 {
		t.Fatalf("json lookups = %+v", doc.Lookups)
	}
	if doc.Inserts.Total != 1 {
		t.Fatalf("json inserts = %+v", doc.Inserts)
	}

	rec = httptest.NewRecorder()
	HotKeysHandler(nil).ServeHTTP(rec, httptest.NewRequest("GET", "/debug/hotkeys?format=json", nil))
	if rec.Code != 200 {
		t.Fatalf("nil hotkeys handler status = %d", rec.Code)
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil {
		t.Fatalf("nil hotkeys json: %v", err)
	}
}

// TestConcurrentSpans exercises span creation/events/end from many
// goroutines against one trace under -race.
func TestConcurrentSpans(t *testing.T) {
	tr := New(Config{Sample: 1, Seed: 2})
	sp := tr.StartOp("root")
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ch := sp.NewChild(fmt.Sprintf("worker-%d", i))
			ch.Eventf("step %d", i)
			ch.End()
		}(i)
	}
	wg.Wait()
	sp.End()
	views := tr.Traces()
	if len(views) != 1 || len(views[0].Spans) != 9 {
		t.Fatalf("views = %d spans = %d", len(views), len(views[0].Spans))
	}
}
