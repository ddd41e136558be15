package main

import (
	"fmt"
	"sort"
)

// runAA runs n full untraced sets of the same code and prints, per
// workload and end-to-end metric, the median, extremes and relative
// spread of the n readings beside the bound BENCHMARK.json gives the
// metric. It is the A/A evidence a reviewer can rerun: a spread above
// the bound means the benchmark cannot resolve a regression of that
// size, and the exit code says so.
func runAA(base runCfg, repo string, bf *benchmarkFile, n int) int {
	bounds := map[string]float64{}
	for _, m := range bf.EndToEnd {
		bounds[m.Name] = m.Bound
	}
	breaches := 0
	for _, w := range workloads {
		readings := map[string][]float64{}
		for set := 0; set < n; set++ {
			cfg := base
			cfg.workload = w.name
			out, err := runOne(cfg, repo)
			if err != nil {
				return fail(err)
			}
			if !out.res.Correct || out.res.Failed > 0 {
				fmt.Printf("%s set %d: correct=%v failed=%d %v\n", w.name, set+1, out.res.Correct, out.res.Failed, out.err)
				breaches++
			}
			for name, v := range out.res.Metrics {
				readings[name] = append(readings[name], v.Value)
			}
		}
		fmt.Printf("%s, %d sets, seed %d\n", w.name, n, base.seed)
		fmt.Printf("  %-22s %14s %14s %14s %9s %7s\n", "metric", "median", "min", "max", "spread", "bound")
		for _, d := range endToEnd {
			vs := append([]float64(nil), readings[d.name]...)
			if len(vs) == 0 {
				continue
			}
			sort.Float64s(vs)
			sp := spreadOf(vs)
			verdict := "ok"
			// setup_s is bounded on its median across sets, not on its spread.
			if sp > bounds[d.name] && d.name != "setup_s" {
				verdict = "BREACH"
				breaches++
			}
			fmt.Printf("  %-22s %14.3f %14.3f %14.3f %8.2f%% %6.0f%% %s\n",
				d.name, median(vs), vs[0], vs[len(vs)-1], 100*sp, 100*bounds[d.name], verdict)
		}
	}
	if breaches > 0 {
		fmt.Printf("%d breaches\n", breaches)
		return 1
	}
	return 0
}

// spreadOf is the interquartile spread when there are enough readings
// for quartiles to mean anything, and the full range over the median
// below that.
func spreadOf(sorted []float64) float64 {
	if len(sorted) >= 4 {
		return spread(sorted)
	}
	m := median(sorted)
	if m == 0 {
		return 0
	}
	return (sorted[len(sorted)-1] - sorted[0]) / m
}
