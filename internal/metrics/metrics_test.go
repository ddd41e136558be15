package metrics

import (
	"encoding/json"
	"io"
	"math"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestConcurrentWriters proves counter/gauge/histogram correctness
// under parallel load: G goroutines × N events each must land exactly
// G×N increments, histogram samples and gauge adjustments. Run under
// -race by scripts/check.sh.
func TestConcurrentWriters(t *testing.T) {
	reg := NewRegistry()
	const (
		goroutines = 8
		perG       = 10000
	)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Resolve handles concurrently too: lookup-or-create must be
			// safe and return the same metric to every goroutine.
			c := reg.Counter("test.ops")
			ga := reg.Gauge("test.level")
			h := reg.Histogram("test.lat_us")
			for i := 0; i < perG; i++ {
				c.Inc()
				ga.Add(1)
				h.Observe(float64(g*perG+i) / 100)
			}
		}()
	}
	wg.Wait()

	snap := reg.Snapshot()
	total := int64(goroutines * perG)
	if got := snap.Counters["test.ops"]; got != total {
		t.Errorf("counter = %d, want %d", got, total)
	}
	if got := snap.Gauges["test.level"]; got != float64(total) {
		t.Errorf("gauge = %g, want %d", got, total)
	}
	h := snap.Histograms["test.lat_us"]
	if h.Count != uint64(total) {
		t.Errorf("hist count = %d, want %d", h.Count, total)
	}
	var bucketSum uint64
	for _, c := range h.Counts {
		bucketSum += c
	}
	if bucketSum != h.Count {
		t.Errorf("bucket sum %d != count %d", bucketSum, h.Count)
	}
	// Sum of 0/100 .. (total-1)/100 = total*(total-1)/200; float CAS
	// accumulation must not lose updates (order varies, so allow tiny
	// rounding slack).
	wantSum := float64(total) * float64(total-1) / 200
	if math.Abs(h.Sum-wantSum) > wantSum*1e-9 {
		t.Errorf("hist sum = %g, want %g", h.Sum, wantSum)
	}
	if h.Min != 0 || h.Max != float64(total-1)/100 {
		t.Errorf("extrema = [%g, %g], want [0, %g]", h.Min, h.Max, float64(total-1)/100)
	}
}

// TestSnapshotDeterminism: equal metric state must produce byte-equal
// text and JSON encodings, and repeated snapshots of quiescent state
// must be identical.
func TestSnapshotDeterminism(t *testing.T) {
	build := func() *Registry {
		reg := NewRegistry()
		reg.Counter("a.ops").Add(7)
		reg.Counter("b.ops").Add(3)
		reg.Gauge("z.level").Set(1.5)
		reg.GaugeFunc("y.size", func() float64 { return 42 })
		h := reg.Histogram("lat_us")
		for i := 0; i < 1000; i++ {
			h.Observe(float64(i % 257))
		}
		return reg
	}
	r1, r2 := build(), build()
	t1, t2 := textOf(t, r1.Snapshot()), textOf(t, r2.Snapshot())
	if t1 != t2 {
		t.Errorf("text encodings differ:\n%s\nvs\n%s", t1, t2)
	}
	if t1 != textOf(t, r1.Snapshot()) {
		t.Error("repeated snapshot of quiescent registry differs")
	}
	j1, err1 := r1.Snapshot().JSON()
	j2, err2 := r2.Snapshot().JSON()
	if err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
	if string(j1) != string(j2) {
		t.Error("JSON encodings differ")
	}
	// Text is sorted by name within each kind.
	lines := strings.Split(strings.TrimSpace(t1), "\n")
	if !strings.HasPrefix(lines[0], "counter a.ops 7") ||
		!strings.HasPrefix(lines[1], "counter b.ops 3") {
		t.Errorf("counters unsorted or wrong:\n%s", t1)
	}
}

func TestHistogramQuantiles(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("q_us")
	// Uniform 1..10000 µs: p50 ≈ 5000, p99 ≈ 9900 — geometric buckets
	// locate ranks within a factor-2 bucket, interpolation does better.
	for i := 1; i <= 10000; i++ {
		h.Observe(float64(i))
	}
	s := reg.Snapshot().Histograms["q_us"]
	for _, tc := range []struct {
		p, want, tol float64
	}{
		{0, 1, 0}, {50, 5000, 1500}, {95, 9500, 1000}, {99, 9900, 700}, {100, 10000, 0},
	} {
		got := s.Quantile(tc.p)
		if math.Abs(got-tc.want) > tc.tol {
			t.Errorf("p%g = %g, want %g ± %g", tc.p, got, tc.want, tc.tol)
		}
	}
	if m := s.Mean(); math.Abs(m-5000.5) > 1e-6 {
		t.Errorf("mean = %g, want 5000.5", m)
	}
	if s.Quantile(50) < s.Min || s.Quantile(50) > s.Max {
		t.Error("quantile outside observed extrema")
	}
}

func TestHistogramOverflowAndDurations(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("d_us")
	h.ObserveDuration(250 * time.Microsecond)
	h.Observe(1e12) // beyond the last edge → overflow bucket
	s := reg.Snapshot().Histograms["d_us"]
	if s.Count != 2 {
		t.Fatalf("count = %d, want 2", s.Count)
	}
	if s.Counts[len(s.Counts)-1] != 1 {
		t.Error("overflow sample not in overflow bucket")
	}
	if s.Max != 1e12 {
		t.Errorf("max = %g, want 1e12", s.Max)
	}
	if p100 := s.Quantile(100); p100 != 1e12 {
		t.Errorf("p100 = %g, want exact max", p100)
	}
}

func TestRegistryReuse(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("x")
	h := reg.Histogram("h_us")
	g := reg.Gauge("g")
	// Same-name lookups return the same metric.
	if reg.Counter("x") != c || reg.Histogram("h_us") != h || reg.Gauge("g") != g {
		t.Error("re-lookup returned a different metric")
	}
	// Cross-kind collisions panic.
	func() {
		defer func() {
			if recover() == nil {
				t.Error("cross-kind registration should panic")
			}
		}()
		reg.Gauge("x")
	}()
}

func TestHandler(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("srv.ops").Add(11)
	reg.Histogram("srv.lat_us").Observe(128)

	srv := httptest.NewServer(Handler(reg))
	defer srv.Close()

	get := func(url string) (string, string) {
		resp, err := srv.Client().Get(url)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(b), resp.Header.Get("Content-Type")
	}

	text, ct := get(srv.URL)
	if !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("content type = %q", ct)
	}
	if !strings.Contains(text, "counter srv.ops 11") || !strings.Contains(text, "p95=") {
		t.Errorf("text body missing metrics:\n%s", text)
	}

	body, ct := get(srv.URL + "?format=json")
	if ct != "application/json" {
		t.Errorf("json content type = %q", ct)
	}
	var snap Snapshot
	if err := json.Unmarshal([]byte(body), &snap); err != nil {
		t.Fatalf("bad JSON: %v", err)
	}
	if snap.Counters["srv.ops"] != 11 || snap.Histograms["srv.lat_us"].Count != 1 {
		t.Errorf("JSON snapshot wrong: %+v", snap)
	}
}

// textOf is s's WriteText encoding.
func textOf(t *testing.T, s Snapshot) string {
	t.Helper()
	var sb strings.Builder
	if err := s.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	return sb.String()
}
