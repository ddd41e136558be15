package obs

import (
	"math"
	"strings"
	"testing"
)

func TestSLOBurnRate(t *testing.T) {
	tr := NewSLOTracker(SLOConfig{Name: "avail", Objective: 0.9})
	// 1 bad in 10 probes = 10% error rate = exactly 1x burn at 90%.
	for i := 0; i < 9; i++ {
		tr.Observe(true)
	}
	tr.Observe(false)
	if br := tr.BurnRate(10); math.Abs(br-1) > 1e-9 {
		t.Errorf("burn rate = %g, want 1", br)
	}
	if tr.Breaching() {
		t.Error("breaching at exactly 1x burn")
	}
	// All-bad round: error rate 1.0 → 10x burn.
	tr.Advance()
	for i := 0; i < 5; i++ {
		tr.Observe(false)
	}
	if br := tr.BurnRate(1); math.Abs(br-10) > 1e-8 {
		t.Errorf("burn rate = %g, want 10", br)
	}
}

func TestSLOBreachAndRecovery(t *testing.T) {
	tr := NewSLOTracker(SLOConfig{Objective: 0.99})
	for i := 0; i < 4; i++ {
		tr.Observe(true)
	}
	if tr.Breaching() {
		t.Fatal("healthy tracker breaching")
	}
	// An outage round trips the fast window immediately: half the short
	// window's probes failed, 50 times the 1% budget.
	tr.Advance()
	for i := 0; i < 4; i++ {
		tr.Observe(false)
	}
	if !tr.Breaching() {
		t.Fatal("fast-burn outage not flagged")
	}
	// Enough healthy rounds push the bad bucket out of both windows.
	for i := 0; i < sloWindow; i++ {
		tr.Advance()
		for j := 0; j < 4; j++ {
			tr.Observe(true)
		}
	}
	if tr.Breaching() {
		st := tr.Status()
		t.Fatalf("recovered tracker still breaching: %+v", st)
	}
}

func TestSLOWindowSlides(t *testing.T) {
	tr := NewSLOTracker(SLOConfig{Objective: 0.5})
	tr.Observe(false)
	tr.Advance()
	tr.Observe(true)
	tr.Advance()
	tr.Observe(true)
	if good, bad := tr.Totals(3); good != 2 || bad != 1 {
		t.Errorf("window totals = %d/%d, want 2 good 1 bad", good, bad)
	}
	// Advancing once more slides the bad round out of the window.
	tr.Advance()
	tr.Observe(true)
	if good, bad := tr.Totals(3); good != 3 || bad != 0 {
		t.Errorf("slid totals = %d/%d, want 3 good 0 bad", good, bad)
	}
}

func TestSLOEmptyWindow(t *testing.T) {
	tr := NewSLOTracker(SLOConfig{})
	if br := tr.BurnRate(5); br != 0 {
		t.Errorf("empty tracker burn = %g, want 0", br)
	}
	if tr.Breaching() {
		t.Error("empty tracker breaching")
	}
}

func TestSLOStatusString(t *testing.T) {
	tr := NewSLOTracker(SLOConfig{Name: "staleness"})
	tr.Observe(true)
	s := tr.Status().String()
	if !strings.Contains(s, "staleness") || !strings.Contains(s, "good=1") {
		t.Errorf("status string %q missing fields", s)
	}
}
