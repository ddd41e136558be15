package experiments

import (
	"strings"
	"sync"
	"testing"
)

var (
	worldOnce sync.Once
	worldVal  *World
	worldErr  error
)

// testWorld memoizes a 2000-AS world across tests in this package.
func testWorld(t *testing.T) *World {
	t.Helper()
	worldOnce.Do(func() {
		worldVal, worldErr = NewWorld(TestScale(2000, 7))
	})
	if worldErr != nil {
		t.Fatal(worldErr)
	}
	return worldVal
}

func TestNewWorldValidation(t *testing.T) {
	if _, err := NewWorld(WorldConfig{}); err == nil {
		t.Error("zero config should fail")
	}
}

func TestWorldShape(t *testing.T) {
	w := testWorld(t)
	if w.NumAS() != 2000 {
		t.Errorf("NumAS = %d", w.NumAS())
	}
	frac := w.Table.AnnouncedFraction()
	if frac < 0.45 || frac > 0.60 {
		t.Errorf("announced fraction = %v", frac)
	}
}

func TestRunLatencyValidation(t *testing.T) {
	w := testWorld(t)
	if _, err := RunLatency(w, LatencyConfig{}); err == nil {
		t.Error("no Ks should fail")
	}
	if _, err := RunLatency(w, LatencyConfig{Ks: []int{1}, NumGUIDs: 10, NumLookups: 10, MissRate: 1.0}); err == nil {
		t.Error("miss rate 1.0 should fail")
	}
}

func TestFig4ReplicationReducesLatency(t *testing.T) {
	w := testWorld(t)
	res, err := RunLatency(w, LatencyConfig{
		Ks:           []int{1, 3, 5},
		NumGUIDs:     2000,
		NumLookups:   20000,
		LocalReplica: true,
		Seed:         1,
	})
	if err != nil {
		t.Fatal(err)
	}
	rows := res.Table1()
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	// Fig. 4's leftward shift: every summary statistic improves with K.
	for i := 1; i < len(rows); i++ {
		if rows[i].Median >= rows[i-1].Median {
			t.Errorf("median did not improve: K=%d %.1f vs K=%d %.1f",
				rows[i].K, rows[i].Median, rows[i-1].K, rows[i-1].Median)
		}
		if rows[i].P95 >= rows[i-1].P95 {
			t.Errorf("p95 did not improve: K=%d %.1f vs K=%d %.1f",
				rows[i].K, rows[i].P95, rows[i-1].K, rows[i-1].P95)
		}
	}
	// Table I's headline ratio: K=5 roughly halves the 95th percentile
	// vs K=1 (paper: 172.8 → 86.1 ms). Accept a broad band.
	ratio := rows[2].P95 / rows[0].P95
	if ratio > 0.8 || ratio < 0.3 {
		t.Errorf("p95(K=5)/p95(K=1) = %.2f, want ≈0.5", ratio)
	}
	if !strings.Contains(res.String(), "median") {
		t.Error("String should render a table")
	}
	if pts := res.CDFSeries(5, 10); len(pts) != 10 {
		t.Errorf("CDF series length %d", len(pts))
	}
	if res.CDFSeries(99, 10) != nil {
		t.Error("unknown K should give nil series")
	}
}

func TestFig5ChurnIncreasesTail(t *testing.T) {
	w := testWorld(t)
	base, err := RunLatency(w, LatencyConfig{
		Ks: []int{5}, NumGUIDs: 1000, NumLookups: 10000, LocalReplica: true, Seed: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	churn, err := RunLatency(w, LatencyConfig{
		Ks: []int{5}, NumGUIDs: 1000, NumLookups: 10000, LocalReplica: true, Seed: 2,
		MissRate: 0.05,
	})
	if err != nil {
		t.Fatal(err)
	}
	b, c := base.PerK[5], churn.PerK[5]
	// Fig. 5: 5% failures barely move the median but fatten the tail.
	if c.Percentile(95) <= b.Percentile(95) {
		t.Errorf("p95 with churn %.1f ≤ baseline %.1f", c.Percentile(95), b.Percentile(95))
	}
	medianShift := c.Median() / b.Median()
	if medianShift > 1.25 {
		t.Errorf("median shifted %.2fx under 5%% churn, want small shift", medianShift)
	}
	if churn.Retries[5] == 0 {
		t.Error("5% churn should force retries")
	}
	if base.Retries[5] != 0 {
		t.Error("0% churn should not retry")
	}
}

func TestLocalReplicaAblation(t *testing.T) {
	w := testWorld(t)
	on, err := RunLatency(w, LatencyConfig{
		Ks: []int{5}, NumGUIDs: 1000, NumLookups: 10000, LocalReplica: true, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	off, err := RunLatency(w, LatencyConfig{
		Ks: []int{5}, NumGUIDs: 1000, NumLookups: 10000, LocalReplica: false, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if on.LocalHits[5] == 0 {
		t.Error("local replica on: expected some local hits (popular GUIDs live in populous ASs)")
	}
	if off.LocalHits[5] != 0 {
		t.Error("local replica off: no local hits possible")
	}
	if on.PerK[5].Mean() > off.PerK[5].Mean() {
		t.Errorf("local replica should not hurt: on %.2f vs off %.2f",
			on.PerK[5].Mean(), off.PerK[5].Mean())
	}
}

func TestHopSelectionClose(t *testing.T) {
	w := testWorld(t)
	rtt, err := RunLatency(w, LatencyConfig{
		Ks: []int{5}, NumGUIDs: 500, NumLookups: 5000, Seed: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	hops, err := RunLatency(w, LatencyConfig{
		Ks: []int{5}, NumGUIDs: 500, NumLookups: 5000, Seed: 4,
		Selection: SelectLeastHops,
	})
	if err != nil {
		t.Fatal(err)
	}
	// §IV-B2a: "similar results albeit with marginally increased
	// latencies".
	mR, mH := rtt.PerK[5].Mean(), hops.PerK[5].Mean()
	if mH < mR {
		t.Errorf("hop selection beat RTT selection: %.2f < %.2f", mH, mR)
	}
	if mH > 2.0*mR {
		t.Errorf("hop selection %.2f far worse than RTT %.2f, want marginal", mH, mR)
	}
}

func TestFig6LoadTightensWithScale(t *testing.T) {
	w := testWorld(t)
	res, err := RunLoad(w, LoadConfig{GUIDCounts: []int{5000, 200000}, K: 5})
	if err != nil {
		t.Fatal(err)
	}
	small, big := res.PerCount[5000], res.PerCount[200000]
	if small == nil || big == nil {
		t.Fatal("missing collectors")
	}
	// The CDF sharpens around 1 as the population grows.
	spreadSmall := small.Percentile(95) - small.Percentile(5)
	spreadBig := big.Percentile(95) - big.Percentile(5)
	if spreadBig >= spreadSmall {
		t.Errorf("NLR spread did not tighten: %.2f → %.2f", spreadSmall, spreadBig)
	}
	if res.WithinBand[200000] < 0.75 {
		t.Errorf("only %.0f%% of ASs within [0.4,1.6], paper reports ≈93%%",
			100*res.WithinBand[200000])
	}
	med := big.Median()
	if med < 0.8 || med > 1.4 {
		t.Errorf("median NLR = %.2f, want ≈1 (paper: 1.16)", med)
	}
	if !strings.Contains(res.String(), "in[0.4,1.6]") {
		t.Error("String output")
	}
}

func TestRunLoadValidation(t *testing.T) {
	w := testWorld(t)
	if _, err := RunLoad(w, LoadConfig{K: 5}); err == nil {
		t.Error("no counts should fail")
	}
	if _, err := RunLoad(w, LoadConfig{GUIDCounts: []int{10}, K: 0}); err == nil {
		t.Error("K=0 should fail")
	}
}

func TestASNumberVariantBalancesUniformly(t *testing.T) {
	w := testWorld(t)
	res, err := RunLoad(w, LoadConfig{GUIDCounts: []int{100000}, K: 5, HashToASNumbers: true})
	if err != nil {
		t.Fatal(err)
	}
	col := res.PerCount[100000]
	// Uniform-over-AS placement: NLR (vs uniform shares) concentrates
	// tightly at 1 regardless of announced share.
	if med := col.Median(); med < 0.9 || med > 1.1 {
		t.Errorf("AS-number variant median NLR = %.2f", med)
	}
}

func TestOverheadMatchesPaperArithmetic(t *testing.T) {
	res, err := RunOverhead(26424, 5e9, 5, 100)
	if err != nil {
		t.Fatal(err)
	}
	if res.EntryBits != 352 {
		t.Errorf("entry bits = %d, want 352", res.EntryBits)
	}
	// 5e9 × 5 × 352 / 26424 ≈ 333 Mbit — same order as the paper's
	// 173 Mbit (which appears to average over announced share).
	if res.StoragePerASMbit < 100 || res.StoragePerASMbit > 1000 {
		t.Errorf("storage per AS = %.0f Mbit", res.StoragePerASMbit)
	}
	// §IV-A: "the worldwide combined update traffic would be ∼10 Gb/s".
	if res.UpdateTrafficGbps < 5 || res.UpdateTrafficGbps > 20 {
		t.Errorf("update traffic = %.1f Gb/s, want ≈10", res.UpdateTrafficGbps)
	}
	if !strings.Contains(res.String(), "Gb/s") {
		t.Error("String output")
	}
	if _, err := RunOverhead(0, 1, 1, 1); err == nil {
		t.Error("invalid parameters should fail")
	}
}

func TestHolesMatchesPrediction(t *testing.T) {
	w := testWorld(t)
	res, err := RunHoles(w, 1, 10, 20000)
	if err != nil {
		t.Fatal(err)
	}
	// Depth-0 fraction must match the announced fraction.
	got := float64(res.Stats.DepthCounts[0]) / float64(res.Stats.Samples)
	if diff := got - res.AnnouncedFraction; diff > 0.02 || diff < -0.02 {
		t.Errorf("depth-0 rate %.3f vs announced %.3f", got, res.AnnouncedFraction)
	}
	// §III-B: fallback probability ≈ 0.034% at M=10 with 45% holes.
	if res.Stats.FallbackRate() > 0.005 {
		t.Errorf("fallback rate = %.4f", res.Stats.FallbackRate())
	}
	if res.PredictedFallback > 0.005 {
		t.Errorf("predicted fallback = %.6f", res.PredictedFallback)
	}
	if !strings.Contains(res.String(), "fallbacks") {
		t.Error("String output")
	}
}

func TestBaselinesOrdering(t *testing.T) {
	w := testWorld(t)
	res, err := RunBaselines(w, BaselinesConfig{
		K: 5, NumGUIDs: 500, NumLookups: 3000, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	byName := make(map[string]BaselineRow)
	for _, r := range res.Rows {
		byName[r.Scheme] = r
	}
	dmap := byName["DMap (K=5)"]
	chord := byName["Chord DHT"]
	oneHop := byName["One-hop DHT"]
	// The paper's claim: one-hop hashing beats multi-hop DHTs by a wide
	// margin (DHT-MAP: ~8 hops, ~900 ms vs DMap's ~50 ms one-hop).
	if chord.RTT.Mean < 3*dmap.RTT.Mean {
		t.Errorf("Chord %.1f ms not ≫ DMap %.1f ms", chord.RTT.Mean, dmap.RTT.Mean)
	}
	if chord.OverlayHops < 3 {
		t.Errorf("Chord hops = %.1f, want O(log N)", chord.OverlayHops)
	}
	// One-hop DHT has no replica choice: slower than DMap K=5, faster
	// than Chord.
	if !(dmap.RTT.Mean < oneHop.RTT.Mean && oneHop.RTT.Mean < chord.RTT.Mean) {
		t.Errorf("ordering violated: dmap %.1f, one-hop %.1f, chord %.1f",
			dmap.RTT.Mean, oneHop.RTT.Mean, chord.RTT.Mean)
	}
	if !strings.Contains(res.String(), "Chord") {
		t.Error("String output")
	}
}

func TestRunFig7(t *testing.T) {
	res, err := RunFig7(20)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Series) != 3 {
		t.Fatalf("series = %d", len(res.Series))
	}
	for name, vals := range res.Series {
		if len(vals) != 20 {
			t.Fatalf("%s has %d points", name, len(vals))
		}
		for k := 1; k < 20; k++ {
			if vals[k] > vals[k-1]+1e-9 {
				t.Errorf("%s bound increases at K=%d", name, k+1)
			}
		}
	}
	if !strings.Contains(res.String(), "present-day") {
		t.Error("String output")
	}
}

func TestMeasuredJellyfishModel(t *testing.T) {
	w := testWorld(t)
	m, err := MeasuredJellyfishModel(w)
	if err != nil {
		t.Fatal(err)
	}
	v, err := m.ResponseTimeBoundMs(5)
	if err != nil {
		t.Fatal(err)
	}
	if v <= 0 || v > 300 {
		t.Errorf("measured-topology bound = %.1f ms", v)
	}
}

func TestRunMSweep(t *testing.T) {
	w := testWorld(t)
	rows, err := RunMSweep(w, []int{1, 4, 10}, 20000)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	// Fallback rate decays geometrically in M.
	for i := 1; i < len(rows); i++ {
		if rows[i].FallbackRate > rows[i-1].FallbackRate {
			t.Errorf("fallback rate increased: M=%d %.4f → M=%d %.4f",
				rows[i-1].M, rows[i-1].FallbackRate, rows[i].M, rows[i].FallbackRate)
		}
	}
	if rows[0].FallbackRate < 0.2 {
		t.Errorf("M=1 fallback rate = %.3f, want ≈ hole fraction", rows[0].FallbackRate)
	}
	if rows[2].FallbackRate > 0.01 {
		t.Errorf("M=10 fallback rate = %.4f, want ≈0", rows[2].FallbackRate)
	}
	if _, err := RunMSweep(w, nil, 10); err == nil {
		t.Error("empty M list should fail")
	}
}
