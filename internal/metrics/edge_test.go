package metrics

import (
	"bytes"
	"encoding/json"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// TestEmptyHistogramQuantiles pins the empty-histogram contract: every
// quantile (and the mean) of a histogram with no samples is 0, as are
// the snapshot extrema — no NaN, no ±Inf leaking out of the unobserved
// min/max sentinels.
func TestEmptyHistogramQuantiles(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("empty")
	snap := reg.Snapshot().Histograms["empty"]
	if snap.Count != 0 {
		t.Fatalf("count = %d, want 0", snap.Count)
	}
	for _, p := range []float64{0, 50, 95, 99, 100} {
		if q := snap.Quantile(p); q != 0 {
			t.Fatalf("empty Quantile(%g) = %g, want 0", p, q)
		}
	}
	if snap.Mean() != 0 || snap.Min != 0 || snap.Max != 0 || snap.Sum != 0 {
		t.Fatalf("empty snapshot = %+v, want all-zero summary", snap)
	}
	// Out-of-range p is also 0, empty or not.
	h.Observe(5)
	snap = reg.Snapshot().Histograms["empty"]
	if snap.Quantile(-1) != 0 || snap.Quantile(101) != 0 {
		t.Fatal("out-of-range quantile not 0")
	}
}

// TestSingleObservationHistogram pins the one-sample contract: every
// quantile collapses to the single observed value (the clamp to
// [Min, Max] must defeat in-bucket interpolation), and min = mean =
// max = sum = that value.
func TestSingleObservationHistogram(t *testing.T) {
	reg := NewRegistry()
	reg.Histogram("one").Observe(37)
	snap := reg.Snapshot().Histograms["one"]
	if snap.Count != 1 {
		t.Fatalf("count = %d, want 1", snap.Count)
	}
	for _, p := range []float64{0, 1, 50, 99, 100} {
		if q := snap.Quantile(p); q != 37 {
			t.Fatalf("single-sample Quantile(%g) = %g, want 37", p, q)
		}
	}
	if snap.Min != 37 || snap.Max != 37 || snap.Sum != 37 || snap.Mean() != 37 {
		t.Fatalf("single-sample snapshot = %+v", snap)
	}
}

// TestSnapshotJSONRoundTrip is the /debug/metrics schema test: the JSON
// the handler serves must decode back into a Snapshot that is
// semantically identical to the source — names, values, bucket layout,
// exemplars — so external tooling can rely on the field names and
// shapes.
func TestSnapshotJSONRoundTrip(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("ops").Add(7)
	reg.Gauge("inflight").Set(3.5)
	h := reg.Histogram("lat_us")
	h.Observe(12)
	h.Observe(900)
	h.ObserveExemplar(3000, 0xABCDEF)

	rec := httptest.NewRecorder()
	Handler(reg).ServeHTTP(rec, httptest.NewRequest("GET", "/debug/metrics?format=json", nil))
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Fatalf("Content-Type = %q", ct)
	}

	var got Snapshot
	if err := json.Unmarshal(rec.Body.Bytes(), &got); err != nil {
		t.Fatalf("decode /debug/metrics JSON: %v\n%s", err, rec.Body.String())
	}
	if got.Counters["ops"] != 7 {
		t.Fatalf("counters = %+v", got.Counters)
	}
	if got.Gauges["inflight"] != 3.5 {
		t.Fatalf("gauges = %+v", got.Gauges)
	}
	hs, ok := got.Histograms["lat_us"]
	if !ok {
		t.Fatalf("histograms = %+v", got.Histograms)
	}
	want := reg.Snapshot().Histograms["lat_us"]
	if hs.Count != want.Count || hs.Sum != want.Sum || hs.Min != want.Min || hs.Max != want.Max {
		t.Fatalf("summary round trip: got %+v, want %+v", hs, want)
	}
	if len(hs.Edges) != len(want.Edges) || len(hs.Counts) != len(want.Counts) {
		t.Fatalf("bucket layout: %d/%d edges, %d/%d counts",
			len(hs.Edges), len(want.Edges), len(hs.Counts), len(want.Counts))
	}
	for i := range hs.Counts {
		if hs.Counts[i] != want.Counts[i] {
			t.Fatalf("counts[%d] = %d, want %d", i, hs.Counts[i], want.Counts[i])
		}
	}
	if len(hs.Exemplars) != len(hs.Counts) {
		t.Fatalf("exemplars = %d entries, want %d", len(hs.Exemplars), len(hs.Counts))
	}
	found := false
	for _, e := range hs.Exemplars {
		if e == 0xABCDEF {
			found = true
		}
	}
	if !found {
		t.Fatalf("exemplar trace ID missing from round trip: %v", hs.Exemplars)
	}
	// Re-encoding the decoded snapshot must be byte-identical — the
	// encoding itself is deterministic, not just the semantics.
	b1, err := got.JSON()
	if err != nil {
		t.Fatal(err)
	}
	b2, err := reg.Snapshot().JSON()
	if err != nil {
		t.Fatal(err)
	}
	if string(b1) != string(b2) {
		t.Fatalf("re-encoded JSON differs:\n%s\nvs\n%s", b1, b2)
	}
}

// TestExemplars covers the exemplar contract: absent until a non-zero
// trace ID is observed (keeping old JSON output byte-stable), last
// writer wins per bucket, text encoding unaffected.
func TestExemplars(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("h")
	h.Observe(3)
	h.ObserveSinceExemplar(time.Now(), 0) // zero trace ID = no exemplar
	snap := reg.Snapshot().Histograms["h"]
	if snap.Exemplars != nil {
		t.Fatalf("exemplars = %v before any trace ID", snap.Exemplars)
	}
	if b, _ := json.Marshal(snap); bytes.Contains(b, []byte(`"exemplars"`)) {
		t.Fatalf("exemplars key present in JSON without exemplars: %s", b)
	}

	h.ObserveExemplar(3, 111)
	h.ObserveExemplar(3, 222) // same bucket: last writer wins
	h.ObserveSinceExemplar(time.Now().Add(-time.Millisecond), 333)
	snap = reg.Snapshot().Histograms["h"]
	if snap.Exemplars == nil {
		t.Fatal("exemplars missing after trace-ID observations")
	}
	var seen []uint64
	for _, e := range snap.Exemplars {
		if e != 0 {
			seen = append(seen, e)
		}
	}
	if len(seen) != 2 || seen[0] != 222 && seen[1] != 222 {
		t.Fatalf("exemplars = %v, want 222 (last-wins) and 333", seen)
	}
	text := textOf(t, reg.Snapshot())
	if strings.Contains(text, "exemplar") {
		t.Fatalf("text encoding mentions exemplars:\n%s", text)
	}
}
