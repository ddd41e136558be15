package stats

import (
	"strings"
	"testing"
)

func TestHistogramBinning(t *testing.T) {
	c := collectorOf(0, 1, 2, 3, 4, 5, 6, 7, 8, 9)
	h := c.NewHistogram(5)
	if h == nil {
		t.Fatal("nil histogram")
	}
	if len(h.Buckets) != 5 || len(h.Edges) != 6 {
		t.Fatalf("shape: %d buckets, %d edges", len(h.Buckets), len(h.Edges))
	}
	total := 0
	for _, b := range h.Buckets {
		total += b
	}
	if total != 10 {
		t.Errorf("binned %d samples, want 10", total)
	}
	// Equal-width bins over 0..9: [0,1.8) gets 0 and 1, etc. The last
	// bucket must include the max.
	if h.Buckets[4] == 0 {
		t.Error("max sample must land in the last bucket")
	}
	if h.Edges[0] != 0 || h.Edges[5] != 9 {
		t.Errorf("edges = %v", h.Edges)
	}
}

func TestHistogramEmptyAndDegenerate(t *testing.T) {
	if (&Collector{}).NewHistogram(5) != nil {
		t.Error("empty collector should give nil")
	}
	c := collectorOf(1, 2, 3)
	if c.NewHistogram(0) != nil {
		t.Error("n=0 should give nil")
	}
	// All-equal samples must not divide by zero.
	same := collectorOf(7, 7, 7)
	h := same.NewHistogram(4)
	if h == nil {
		t.Fatal("nil histogram for constant samples")
	}
	total := 0
	for _, b := range h.Buckets {
		total += b
	}
	if total != 3 {
		t.Errorf("binned %d, want 3", total)
	}
}

func TestHistogramRender(t *testing.T) {
	c := collectorOf(1, 1, 1, 1, 5, 9)
	h := c.NewHistogram(3)
	out := h.Render(20)
	if !strings.Contains(out, "█") {
		t.Error("render should draw bars")
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 3 {
		t.Errorf("rendered %d lines, want 3", len(lines))
	}
	if !strings.Contains(lines[2], "100.0%") {
		t.Errorf("last line should reach 100%%: %q", lines[2])
	}
	if h.Render(0) == "" {
		t.Error("width 0 should use a default, not return empty")
	}
}
