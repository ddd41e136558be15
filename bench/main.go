// Command bench is the out-of-process cluster benchmark of this
// repository (ISSUE 12): one driver process builds cmd/dmapnode, spawns
// three `dmapnode serve` processes on loopback, generates every input
// from -seed, runs one of four named workloads, verifies every reply
// and prints every metric by name and unit. See README.md beside it.
//
//	bash bench/run.sh --workload lookup_single --seed 1 --seconds 16 --trace 0
//	bash bench/run.sh                 # all four workloads, untraced and traced
//	bash bench/run.sh -aa 2           # A/A: spreads against BENCHMARK.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"syscall"
	"time"
)

// setupReps is how many times a run sets its cluster up; setup_s and
// mem_bytes_per_entry are the medians, the last set-up is the one used.
const setupReps = 3

// active is the cluster the signal handler must take down.
var active atomic.Pointer[cluster]

func main() { os.Exit(realMain()) }

func realMain() int {
	cpu, err := pinOneCPU()
	if err != nil {
		// A sandbox that forbids it still gets numbers, comparable among
		// themselves; the record says they are not from one CPU.
		fmt.Fprintln(os.Stderr, "bench: not pinned to one CPU:", err)
		cpu = -1
	}
	var (
		workloadName = flag.String("workload", "", "one of lookup_single, batch_mobility, update_durable, restart_heal (empty: all four, untraced then traced)")
		seed         = flag.Int64("seed", 1, "every input is generated from it")
		seconds      = flag.Float64("seconds", 0, "timed budget of one run (0: run_seconds of BENCHMARK.json)")
		traceFlag    = flag.Int("trace", 0, "1: nodes serve /debug/metrics, the driver records spans and runs the layer probes; the result carries the per-layer metrics")
		aa           = flag.Int("aa", 0, "run N full untraced sets of the same code and compare their spread with the bounds in BENCHMARK.json")
		quick        = flag.Bool("quick", false, "test-sized populations and phases; the numbers mean nothing")
		repoFlag     = flag.String("repo", ".", "root of the repository checkout")
	)
	flag.Parse()
	runtime.GOMAXPROCS(driverThreads)

	repo, err := filepath.Abs(*repoFlag)
	if err != nil {
		return fail(err)
	}
	bf, err := readBenchmarkFile(filepath.Join(repo, "BENCHMARK.json"))
	if err != nil {
		return fail(err)
	}
	if *seconds == 0 {
		*seconds = float64(bf.RunSeconds)
		if *quick {
			*seconds = 3
		}
	}
	nodeBin := filepath.Join(repo, ".bench_build", "dmapnode")
	if err := buildNode(repo, nodeBin); err != nil {
		return fail(err)
	}
	if pids := staleNodes(nodeBin); len(pids) > 0 {
		return fail(fmt.Errorf("dmapnode of an earlier run still alive (pids %v): kill them first", pids))
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		if c := active.Load(); c != nil {
			c.close()
		}
		os.Exit(130)
	}()

	base := runCfg{cpu: cpu, seed: *seed, seconds: *seconds, quick: *quick, nodeBin: nodeBin, outDir: filepath.Join(repo, "bench", "out")}
	switch {
	case *aa > 0:
		return runAA(base, repo, bf, *aa)
	case *workloadName == "":
		return runAll(base, repo)
	}
	if findWorkload(*workloadName) == nil {
		return fail(fmt.Errorf("unknown workload %q", *workloadName))
	}
	cfg := base
	cfg.workload = *workloadName
	cfg.trace = *traceFlag != 0
	out, err := runOne(cfg, repo)
	if err != nil {
		return fail(err)
	}
	out.print()
	line, err := json.Marshal(out.res)
	if err != nil {
		return fail(err)
	}
	fmt.Println(string(line))
	return 0
}

func fail(err error) int {
	fmt.Fprintln(os.Stderr, "bench:", err)
	return 1
}

// buildNode compiles cmd/dmapnode from the checkout. The time is not
// part of setup_s.
func buildNode(repo, out string) error {
	cmd := exec.Command("go", "build", "-o", out, "./cmd/dmapnode")
	cmd.Dir = repo
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("go build ./cmd/dmapnode: %w", err)
	}
	return nil
}

// runOutput is what one run leaves: the contract's result line and the
// full metric set for people.
type runOutput struct {
	cfg   runCfg
	id    string
	res   result
	all   metricSet
	notes []string
	err   error // a verification failure: the run completed, incorrectly
}

func (o *runOutput) print() {
	fmt.Printf("run %s: %s seed %d, %.0f s, trace %v\n", o.id, o.cfg.workload, o.cfg.seed, o.cfg.seconds, o.cfg.trace)
	printMetrics(o.all)
	for _, n := range o.notes {
		fmt.Println("  note:", n)
	}
	if o.err != nil {
		fmt.Println("  INCORRECT:", o.err)
	}
}

// runOne sets the workload's cluster up setupReps times, runs the timed
// phases on the last one, and — traced — the layer probes. An error
// return means the harness could not run; a verification failure is
// reported in the output with correct=false.
func runOne(cfg runCfg, repo string) (*runOutput, error) {
	started := time.Now()
	r := &run{cfg: cfg, wl: findWorkload(cfg.workload), m: metricSet{}}
	r.id = fmt.Sprintf("%s-%s-s%d-t%d-%d", started.UTC().Format("20060102T150405.000"), cfg.workload, cfg.seed, b2i(cfg.trace), os.Getpid())
	r.dir = filepath.Join(cfg.outDir, r.id)
	if err := os.MkdirAll(r.dir, 0o755); err != nil {
		return nil, err
	}
	defer r.teardown()
	var err error
	if r.yard, err = newYardstick(); err != nil {
		return nil, err
	}
	defer r.yard.close()

	reps := setupReps
	if cfg.quick {
		reps = 1
	}
	var mems []float64
	for rep := 0; rep < reps; rep++ {
		if rep > 0 {
			r.teardown()
		}
		secs, mem, err := r.setup(rep)
		if r.cl != nil {
			active.Store(r.cl)
		}
		if err != nil {
			return nil, fmt.Errorf("set-up %d: %w", rep, err)
		}
		r.setups = append(r.setups, secs)
		mems = append(mems, mem)
	}
	r.m.set("setup_s", median(r.setups))
	r.m.set("mem_bytes_per_entry", median(mems))

	if cfg.trace {
		r.spans = newSpanLog()
		if err := r.scrapeMark(); err != nil {
			return nil, err
		}
	}
	bodyErr := r.wl.body(r)
	if bodyErr == nil {
		bodyErr = r.scrapeClose()
	}
	r.clientMetrics() // before the probes tear the cluster and its clients down
	if bodyErr == nil && cfg.trace {
		bodyErr = r.probes()
	}

	out := &runOutput{cfg: cfg, id: r.id, all: r.m, notes: r.notes, err: bodyErr}
	// An open-loop arrival refused at the in-flight bound was never sent:
	// it counts against its rung's limit and in fail_frac, not among the
	// ops the cluster was asked to do.
	out.res.Attempted, out.res.Failed = r.extraAttempted, r.extraFailed
	var overflow int64
	for _, p := range r.phases {
		out.res.Attempted += p.Attempted - p.Overflow
		out.res.Failed += p.Failed
		overflow += p.Overflow
	}
	if offered := out.res.Attempted + overflow; offered > 0 {
		r.m.set("fail_frac", float64(out.res.Failed+overflow)/float64(offered))
	}
	defs, strict := endToEnd, true
	if cfg.trace {
		defs, strict = perLayer, false
	}
	out.res.Metrics, err = resultFor(defs, r.m, strict && bodyErr == nil)
	if err != nil {
		return nil, err
	}
	out.res.Correct = bodyErr == nil
	if out.res.Attempted == 0 {
		out.res.Attempted = 1 // the contract wants a positive count even from a run that died early
		out.res.Failed = 1
	}

	rec := &record{Header: r.header(repo, started), Correct: out.res.Correct, SetupS: r.setups, Phases: r.phases, Notes: r.notes, Metrics: map[string]metricValue{}}
	if bodyErr != nil {
		rec.Error = bodyErr.Error()
	}
	for _, ds := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range ds {
			if v, ok := r.m[d.name]; ok {
				rec.Metrics[d.name] = metricValue{v, d.unit}
			}
		}
	}
	if err := r.writeRecord(rec); err != nil {
		return nil, err
	}
	if r.spans != nil {
		if err := r.spans.write(filepath.Join(r.dir, cfg.workload+".trace.json"), r.id); err != nil {
			return nil, err
		}
	}
	return out, nil
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// clientMetrics sums the failure-path counters of the driver's clients.
func (r *run) clientMetrics() {
	var retries, failovers, redials, sheds, timeouts int64
	for _, c := range r.clients {
		st := c.Stats()
		retries += st.Retries
		failovers += st.Failovers
		redials += st.Redials
		sheds += st.Sheds
		timeouts += st.Timeouts
	}
	r.m.set("client.retries", float64(retries))
	r.m.set("client.failovers", float64(failovers))
	r.m.set("client.redials", float64(redials))
	r.m.set("client.sheds", float64(sheds))
	r.m.set("client.timeouts", float64(timeouts))
}

// runAll is the one command that prints everything: each workload
// untraced (end-to-end metrics) and traced (per-layer metrics).
func runAll(base runCfg, repo string) int {
	code := 0
	for _, w := range workloads {
		for _, tr := range []bool{false, true} {
			cfg := base
			cfg.workload, cfg.trace = w.name, tr
			out, err := runOne(cfg, repo)
			if err != nil {
				return fail(err)
			}
			out.print()
			if !out.res.Correct {
				code = 1
			}
		}
	}
	return code
}
