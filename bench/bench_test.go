package main

import (
	"math"
	"os"
	"path/filepath"
	"regexp"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dmap/internal/store"
)

func TestPercentileRule(t *testing.T) {
	seq := func(n int) []float64 {
		s := make([]float64, n)
		for i := range s {
			s[i] = float64(i + 1)
		}
		return s
	}
	cases := []struct {
		n    int
		p    float64
		want float64
		ok   bool
	}{
		{1000, 99, 990, true}, // exactly 10 beyond
		{999, 99, 990, false}, // 9 beyond
		{20, 50, 10, true},
		{19, 50, 10, false},
		{100000, 99.9, 99900, true},
		{1, 50, 1, false},
	}
	for _, c := range cases {
		v, ok := percentile(seq(c.n), c.p)
		if v != c.want || ok != c.ok {
			t.Errorf("percentile(1..%d, %v) = %v, %v; want %v, %v", c.n, c.p, v, ok, c.want, c.ok)
		}
	}
	if _, ok := percentile(nil, 50); ok {
		t.Error("empty sample reported a percentile")
	}
}

func TestSpreadIsPythonsExclusiveQuartiles(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	vs := []float64{7, 1, 9, 3, 5, 2, 10, 4, 8, 6}
	if got, want := spread(vs), (8.25-2.75)/5.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("spread = %v, want %v", got, want)
	}
}

// opStream folds a generator's first slots into counts and a hash.
func opStream(seed int64, slots int) (counts []int, hash uint64) {
	g := newSlotGen(seed, 24000, 50000)
	var keys []int
	for s := 0; s < slots; s++ {
		keys = g.next(keys)
		counts = append(counts, len(keys))
		for _, k := range keys {
			hash = mix64(hash ^ uint64(k))
		}
	}
	return counts, hash
}

func TestSlotPacerDeterminism(t *testing.T) {
	c1, h1 := opStream(7, 2000)
	c2, h2 := opStream(7, 2000)
	if h1 != h2 {
		t.Fatalf("same seed, different op-stream hash: %x vs %x", h1, h2)
	}
	total := 0
	for i := range c1 {
		if c1[i] != c2[i] {
			t.Fatalf("same seed, slot %d has %d vs %d arrivals", i, c1[i], c2[i])
		}
		total += c1[i]
	}
	// 24000/s over 2000 slots of 1 ms: 48000 expected, sd ≈ 219.
	if total < 46000 || total > 50000 {
		t.Errorf("%d arrivals in 2000 slots at 24000/s", total)
	}
	if _, h3 := opStream(8, 2000); h3 == h1 {
		t.Error("different seeds gave the same op stream")
	}
}

func TestProcParsers(t *testing.T) {
	// comm may contain spaces and parentheses.
	stat := []byte("4242 (dmap) node) S 1 4242 4242 0 -1 4194560 1203 0 0 0 731 269 0 0 20 0 5 0 1234567 1250000000 3100 18446744073709551615 1 1 0 0 0 0 0 0 2143420159 0 0 0 17 1 0 0 0 0 0 0 0 0 0 0 0 0 0\n")
	cpu, err := parseStatCPU(stat)
	if err != nil || cpu != 10*time.Second {
		t.Errorf("parseStatCPU = %v, %v; want 10s", cpu, err)
	}
	if _, err := parseStatCPU([]byte("1 (x) S 1 2")); err == nil {
		t.Error("truncated stat accepted")
	}
	rss, err := parseStatmRSS([]byte("305175 3100 812 560 0 29754 0\n"), 4096)
	if err != nil || rss != 3100*4096 {
		t.Errorf("parseStatmRSS = %v, %v", rss, err)
	}
	if _, err := parseStatmRSS([]byte("1"), 4096); err == nil {
		t.Error("truncated statm accepted")
	}
	io, err := parseIO([]byte("rchar: 100\nwchar: 2048\nsyscr: 3\nsyscw: 4\nread_bytes: 0\nwrite_bytes: 8192\ncancelled_write_bytes: 0\n"))
	if err != nil || io.wchar != 2048 || io.writeBytes != 8192 {
		t.Errorf("parseIO = %+v, %v", io, err)
	}
	if _, err := parseIO([]byte("wchar: 1\n")); err == nil {
		t.Error("io without write_bytes accepted")
	}
}

// TestYardstickGate checks the arithmetic of the speed index and that a
// reading never overlaps a worker's call.
func TestYardstickGate(t *testing.T) {
	y, err := newYardstick()
	if err != nil {
		t.Fatal(err)
	}
	defer y.close()
	ns, used, err := y.measure(2 * time.Millisecond)
	if err != nil || ns <= 0 || used <= 0 {
		t.Fatalf("measure = %v ns/iter, %v used, %v", ns, used, err)
	}

	g := startGate(y)
	var inCall, overlaps atomic.Int32
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				g.mu.RLock()
				inCall.Add(1)
				time.Sleep(time.Millisecond)
				inCall.Add(-1)
				g.mu.RUnlock()
			}
		}()
	}
	// The controller's view: while it holds the gate no call is open.
	for i := 0; i < 20; i++ {
		g.mu.Lock()
		if inCall.Load() != 0 {
			overlaps.Add(1)
		}
		g.mu.Unlock()
		time.Sleep(2 * time.Millisecond)
	}
	time.Sleep(gateWork + 50*time.Millisecond) // one reading by the clock
	close(stop)
	wg.Wait()
	speed, err := g.finish() // and one on the way out
	if err != nil {
		t.Fatal(err)
	}
	if overlaps.Load() != 0 {
		t.Errorf("%d calls were open while the gate was held exclusively", overlaps.Load())
	}
	if len(g.yardNS) < 2 || g.workS <= 0 {
		t.Fatalf("%d readings over %v s of work", len(g.yardNS), g.workS)
	}
	want := 0.0
	for _, ns := range g.yardNS {
		want += yardNominalNS / ns
	}
	want /= float64(len(g.yardNS))
	if math.Abs(speed-want) > 1e-12 {
		t.Errorf("speed index = %v, want the mean of nominal/reading = %v", speed, want)
	}
	p := &phaseResult{Completed: 1000, Seconds: 2, NodeCPUs: 0.01, Speed: 0.5}
	if p.opsPerSec() != 500 || p.opsPerSecNorm() != 1000 || p.nodeCPUPerOp() != 10 {
		t.Errorf("a machine at half speed: %v ops/s, %v normalised, %v us/op", p.opsPerSec(), p.opsPerSecNorm(), p.nodeCPUPerOp())
	}
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestMetricTableMatchesBenchmarkFile keeps metrics.go, workloads.go and
// BENCHMARK.json one list, inside the contract's limits.
func TestMetricTableMatchesBenchmarkFile(t *testing.T) {
	bf, err := readBenchmarkFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	check := func(kind string, defs []metricDef, listed []benchMetric, limit int) {
		if len(defs) != len(listed) || len(defs) > limit {
			t.Fatalf("%s: %d defined, %d in BENCHMARK.json, limit %d", kind, len(defs), len(listed), limit)
		}
		for i, d := range defs {
			if !nameRE.MatchString(d.name) || !unitRE.MatchString(d.unit) {
				t.Errorf("%s %q unit %q: outside the charset", kind, d.name, d.unit)
			}
			if seen[d.name] {
				t.Errorf("%s %q defined twice", kind, d.name)
			}
			seen[d.name] = true
			if d.better != "lower" && d.better != "higher" {
				t.Errorf("%s %q: better = %q", kind, d.name, d.better)
			}
			l := listed[i]
			if l.Name != d.name || l.Unit != d.unit || l.Better != d.better || l.Bound != d.bound {
				t.Errorf("%s #%d: table has %+v, BENCHMARK.json has %+v", kind, i, d, l)
			}
		}
	}
	check("end_to_end", endToEnd, bf.EndToEnd, 16)
	check("per_layer", perLayer, bf.PerLayer, 128)
	for _, d := range endToEnd {
		if d.bound <= 0 || d.bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.name, d.bound)
		}
	}
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("%d workloads defined, %d in BENCHMARK.json", len(workloads), len(bf.Workloads))
	}
	for i, w := range workloads {
		if bf.Workloads[i].Name != w.name || bf.Workloads[i].Why != w.why {
			t.Errorf("workload #%d: %q differs from BENCHMARK.json", i, w.name)
		}
		if !nameRE.MatchString(w.name) || len(w.why) > 200 {
			t.Errorf("workload %q: bad name or why of %d characters", w.name, len(w.why))
		}
	}
	if bf.RunSeconds < 1 || bf.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", bf.RunSeconds)
	}
}

func TestInputsDependOnSeedAlone(t *testing.T) {
	a, err := genInputs(3, 600)
	if err != nil {
		t.Fatal(err)
	}
	b, err := genInputs(3, 600)
	if err != nil {
		t.Fatal(err)
	}
	c, err := genInputs(4, 600)
	if err != nil {
		t.Fatal(err)
	}
	same := 0
	for i := range a.keys {
		if a.keys[i] != b.keys[i] || a.hosts[i] != b.hosts[i] {
			t.Fatalf("seed 3 generated two populations, key %d differs", i)
		}
		if a.replicaCount(i) < 2 {
			t.Errorf("key %d lives on %d node", i, a.replicaCount(i))
		}
		if a.keys[i] == c.keys[i] {
			same++
		}
	}
	if same > 0 {
		t.Errorf("seeds 3 and 4 share %d keys", same)
	}
	var e store.Entry
	a.fillEntry(&e, 5, 9)
	if !a.checkEntry(&e, 5, 9) || a.checkEntry(&e, 5, 10) || a.checkEntry(&e, 6, 1) {
		t.Error("checkEntry accepts what it must not, or rejects its own entry")
	}
	e.NAs[0].Addr++
	if a.checkEntry(&e, 5, 1) {
		t.Error("checkEntry accepted a foreign NA")
	}
}

// TestQuickSmoke drives all four workloads end to end against real node
// processes with test-sized populations, then one traced run.
func TestQuickSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns node processes")
	}
	repo, err := filepath.Abs("..")
	if err != nil {
		t.Fatal(err)
	}
	tmp := t.TempDir()
	bin := filepath.Join(tmp, "dmapnode")
	if err := buildNode(repo, bin); err != nil {
		t.Fatal(err)
	}
	base := runCfg{cpu: -1, seed: 11, seconds: 1.5, quick: true, nodeBin: bin, outDir: filepath.Join(tmp, "out")}
	start := time.Now()
	runs := []runCfg{}
	for _, w := range workloads {
		cfg := base
		cfg.workload = w.name
		runs = append(runs, cfg)
	}
	traced := base
	traced.workload, traced.trace = wlLookup, true
	runs = append(runs, traced)
	for _, cfg := range runs {
		out, err := runOne(cfg, repo)
		if err != nil {
			t.Fatalf("%s trace=%v: %v", cfg.workload, cfg.trace, err)
		}
		if !out.res.Correct || out.res.Failed != 0 || out.res.Attempted == 0 {
			t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d: %v",
				cfg.workload, cfg.trace, out.res.Correct, out.res.Attempted, out.res.Failed, out.err)
		}
		want := endToEnd
		if cfg.trace {
			want = perLayer
		}
		if len(out.res.Metrics) != len(want) {
			t.Errorf("%s trace=%v: %d metrics in the result, want %d", cfg.workload, cfg.trace, len(out.res.Metrics), len(want))
		}
		for _, d := range endToEnd {
			if !cfg.trace && out.res.Metrics[d.name].Value <= 0 {
				t.Errorf("%s: %s = %v", cfg.workload, d.name, out.res.Metrics[d.name].Value)
			}
		}
		if r, w := out.all["n.closed.read"], out.all["n.closed.write"]; cfg.workload == wlBatch && (w == 0 || math.Abs(r/w-(batchWriteEvery-1)) > 0.1) {
			t.Errorf("%s: %v read and %v write calls, want %d:1", cfg.workload, r, w, batchWriteEvery-1)
		}
		if cfg.trace {
			if _, err := os.Stat(filepath.Join(cfg.outDir, out.id, cfg.workload+".trace.json")); err != nil {
				t.Errorf("traced run left no trace file: %v", err)
			}
		}
		if _, err := os.Stat(filepath.Join(cfg.outDir, out.id, "record.json")); err != nil {
			t.Errorf("%s: no record: %v", cfg.workload, err)
		}
	}
	if pids := staleNodes(bin); len(pids) > 0 {
		t.Errorf("node processes left behind: %v", pids)
	}
	t.Logf("smoke took %v", time.Since(start).Round(time.Millisecond))
}
