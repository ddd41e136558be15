// Command dmapsim regenerates the paper's tables and figures (and the
// DESIGN.md ablations) from the DMap simulation.
//
// Usage:
//
//	dmapsim -experiment fig4 [-scale 26424] [-guids 100000] [-lookups 1000000] [-seed 1]
//
// Experiments: fig7, overhead, heal, fig4, table1, fig5, fig6, update,
// world, queryload, churnsim, caching, holes, availability, baselines,
// ablation-selection, ablation-local, ablation-m, ablation-asnum,
// ablation-k.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"dmap/internal/experiments"
	"dmap/internal/simnet"
	"dmap/internal/topology"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "dmapsim:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("dmapsim", flag.ContinueOnError)
	var (
		experiment = fs.String("experiment", "fig4", "which experiment to run")
		scale      = fs.Int("scale", 26424, "number of ASs (26424 = paper scale)")
		guids      = fs.Int("guids", 100000, "GUID population for latency experiments")
		lookups    = fs.Int("lookups", 1000000, "lookup count for latency experiments")
		seed       = fs.Int64("seed", 1, "PRNG seed")
		k          = fs.Int("k", 5, "replication factor for single-K experiments")
		workers    = fs.Int("workers", 0, "engine workers (0 = GOMAXPROCS, 1 = serial reference)")
		cdfPoints  = fs.Int("cdf", 0, "also print an n-point CDF per series")
		failFracs  = fs.String("failfracs", "0,0.05,0.10,0.20", "failed-node fractions for the availability sweep (comma-separated)")
		loss       = fs.Float64("loss", 0, "per-attempt message loss probability for the availability sweep")
		retries    = fs.Int("retries", 1, "same-replica retransmissions before failover (availability sweep)")
		timeoutMs  = fs.Int("attempt-timeout-ms", 2000, "per-attempt timeout charged for dead replicas and lost messages")
		gossipMs   = fs.String("gossip-ms", "100,500,1000,5000", "gossip intervals in ms for the partition-heal sweep (comma-separated)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	// Experiments that need no world.
	switch *experiment {
	case "fig7":
		res, err := experiments.RunFig7(20)
		if err != nil {
			return err
		}
		fmt.Println("# Figure 7: analytical RTT upper bound vs replicas")
		fmt.Print(res)
		return nil
	case "overhead":
		res, err := experiments.RunOverhead(*scale, 5e9, *k, 100)
		if err != nil {
			return err
		}
		fmt.Println("# §IV-A storage and traffic overhead")
		fmt.Print(res)
		return nil
	case "heal":
		intervals, err := parseList(*gossipMs, "gossip interval", func(p string) (simnet.Time, error) {
			ms, err := strconv.Atoi(p)
			if err != nil || ms <= 0 {
				return 0, fmt.Errorf("bad gossip interval %q (want positive ms)", p)
			}
			return simnet.Time(ms) * 1000, nil // the sim clock ticks in microseconds
		})
		if err != nil {
			return err
		}
		numAS := *scale
		if numAS > 1000 {
			numAS = 200 // event-driven sim; paper scale is not the point here
		}
		res, err := experiments.RunHeal(experiments.HealConfig{
			NumAS:           numAS,
			K:               *k,
			NumGUIDs:        *guids / 1000,
			GossipIntervals: intervals,
			Seed:            *seed,
		})
		if err != nil {
			return err
		}
		fmt.Println("# partition-heal convergence vs gossip interval (DESIGN §12)")
		fmt.Print(res)
		return nil
	}

	cfg := experiments.FullScale(*seed)
	if *scale != 26424 {
		cfg = experiments.TestScale(*scale, *seed)
	}
	start := time.Now()
	fmt.Fprintf(os.Stderr, "generating world: %d ASs...\n", *scale)
	w, err := experiments.NewWorld(cfg)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "world ready in %v (links=%d, prefixes=%d, announced=%.1f%%)\n",
		time.Since(start).Round(time.Millisecond), w.Graph.NumLinks(), w.Table.Len(), 100*w.Table.AnnouncedFraction())

	printCDFs := func(res *experiments.LatencyResult, ks []int) {
		if *cdfPoints > 0 {
			for _, kk := range ks {
				fmt.Printf("\n# CDF K=%d (RTT ms, fraction)\n", kk)
				for _, p := range res.CDFSeries(kk, *cdfPoints) {
					fmt.Printf("%10.2f %8.4f\n", p.Value, p.Fraction)
				}
			}
		}
	}

	switch *experiment {
	case "fig4", "table1":
		res, err := experiments.RunLatency(w, experiments.LatencyConfig{
			Ks: []int{1, 3, 5}, NumGUIDs: *guids, NumLookups: *lookups,
			LocalReplica: true, Seed: *seed, Workers: *workers,
		})
		if err != nil {
			return err
		}
		fmt.Println("# Figure 4 / Table I: round-trip query response time")
		fmt.Print(res)
		printCDFs(res, []int{1, 3, 5})

	case "fig5":
		fmt.Printf("# Figure 5: effect of BGP churn (K=%d)\n", *k)
		for _, rate := range []float64{0, 0.05, 0.10} {
			res, err := experiments.RunLatency(w, experiments.LatencyConfig{
				Ks: []int{*k}, NumGUIDs: *guids, NumLookups: *lookups,
				LocalReplica: true, MissRate: rate, Seed: *seed, Workers: *workers,
			})
			if err != nil {
				return err
			}
			fmt.Printf("\n## %.0f%% lookup failures\n", 100*rate)
			fmt.Print(res)
			printCDFs(res, []int{*k})
		}

	case "fig6":
		counts := []int{100000, 1000000, 10000000}
		if *scale != 26424 {
			counts = []int{10000, 100000, 1000000}
		}
		res, err := experiments.RunLoad(w, experiments.LoadConfig{GUIDCounts: counts, K: *k})
		if err != nil {
			return err
		}
		fmt.Println("# Figure 6: normalized load ratio per AS")
		fmt.Print(res)

	case "update":
		res, err := experiments.RunUpdate(w, experiments.UpdateConfig{
			Ks: []int{1, 3, 5}, NumUpdates: *guids, Seed: *seed, Workers: *workers,
		})
		if err != nil {
			return err
		}
		fmt.Println("# Update latency: max RTT over K parallel replica writes (§III-A)")
		fmt.Print(res)

	case "world":
		fmt.Println("# Generated-world statistics vs the DIMES/APNIC references")
		fmt.Print(topology.ComputeStats(w.Graph))
		fmt.Printf("prefixes: %d (paper: ~330000), announced: %.1f%% of IPv4 (paper: 52%%)\n",
			w.Table.Len(), 100*w.Table.AnnouncedFraction())

	case "queryload":
		res, err := experiments.RunQueryLoad(w, experiments.QueryLoadConfig{
			Ks: []int{1, 3, 5}, NumGUIDs: *guids, NumLookups: *lookups,
			Seed: *seed, Workers: *workers,
		})
		if err != nil {
			return err
		}
		fmt.Println("# Query-serving load concentration (replication as hot-spot relief)")
		fmt.Print(res)

	case "churnsim":
		res, err := experiments.RunChurnSim(w, experiments.ChurnSimConfig{
			K: *k, NumGUIDs: *guids, NumLookups: *lookups,
			DurationSec:    600,
			WithdrawPerSec: 0.2,
			AnnouncePerSec: 0.2,
			Seed:           *seed,
			Workers:        *workers,
		})
		if err != nil {
			return err
		}
		fmt.Println("# Protocol-level BGP churn: live withdrawals/announcements with §III-D1 migration")
		fmt.Print(res)

	case "caching":
		res, err := experiments.RunCaching(w, experiments.CachingConfig{
			K: *k, NumGUIDs: *guids, NumLookups: *lookups,
			DurationSec:      3600,
			UpdateRatePerSec: 100.0 / 86400, // the §IV-A mobility rate
			TTLs: []topology.Micros{
				0, 1_000_000, 10_000_000, 60_000_000, 600_000_000,
			},
			Seed: *seed, Workers: *workers,
		})
		if err != nil {
			return err
		}
		fmt.Println("# §VII extension: per-AS query caching (latency vs staleness)")
		fmt.Print(res)

	case "holes":
		res, err := experiments.RunHoles(w, 1, 10, *guids)
		if err != nil {
			return err
		}
		fmt.Println("# §III-B: IP-hole rehash statistics")
		fmt.Print(res)

	case "availability":
		fracs, err := parseList(*failFracs, "failure fraction", func(p string) (float64, error) {
			v, err := strconv.ParseFloat(p, 64)
			if err != nil {
				return 0, fmt.Errorf("bad failure fraction %q: %w", p, err)
			}
			return v, nil
		})
		if err != nil {
			return err
		}
		res, err := experiments.RunAvailability(w, experiments.AvailabilityConfig{
			Ks: []int{1, 3, 5}, FailFracs: fracs,
			NumGUIDs: *guids, NumLookups: *lookups,
			Timeout: topology.Micros(*timeoutMs) * 1000,
			Loss:    *loss, Retries: *retries,
			Seed: *seed, Workers: *workers,
		})
		if err != nil {
			return err
		}
		fmt.Println("# Availability under node failures: lookup success rate and added latency (§III-D3 failover)")
		fmt.Print(res)

	case "baselines":
		res, err := experiments.RunBaselines(w, experiments.BaselinesConfig{
			K: *k, NumGUIDs: *guids, NumLookups: *lookups,
			Seed: *seed, Workers: *workers,
		})
		if err != nil {
			return err
		}
		fmt.Println("# Ablation A4: DMap vs DHT and home-agent baselines")
		fmt.Print(res)

	case "ablation-selection":
		fmt.Println("# Ablation A1: replica selection policy (K=5)")
		for _, sel := range []struct {
			name string
			pol  experiments.SelectionPolicy
		}{{"lowest-RTT", experiments.SelectLowestRTT}, {"least-hops", experiments.SelectLeastHops}} {
			res, err := experiments.RunLatency(w, experiments.LatencyConfig{
				Ks: []int{*k}, NumGUIDs: *guids, NumLookups: *lookups,
				LocalReplica: true, Selection: sel.pol, Seed: *seed, Workers: *workers,
			})
			if err != nil {
				return err
			}
			fmt.Printf("\n## %s\n", sel.name)
			fmt.Print(res)
		}

	case "ablation-local":
		fmt.Println("# Ablation A2: local replica on/off (K=5)")
		for _, local := range []bool{true, false} {
			res, err := experiments.RunLatency(w, experiments.LatencyConfig{
				Ks: []int{*k}, NumGUIDs: *guids, NumLookups: *lookups,
				LocalReplica: local, Seed: *seed, Workers: *workers,
			})
			if err != nil {
				return err
			}
			fmt.Printf("\n## local replica = %v\n", local)
			fmt.Print(res)
		}

	case "ablation-m":
		rows, err := experiments.RunMSweep(w, []int{1, 2, 4, 6, 10, 16}, *guids)
		if err != nil {
			return err
		}
		fmt.Println("# Ablation A3: rehash bound M")
		fmt.Printf("%-4s %14s %10s\n", "M", "fallbackRate", "NLR p99")
		for _, r := range rows {
			fmt.Printf("%-4d %13.4f%% %10.2f\n", r.M, 100*r.FallbackRate, r.NLRp99)
		}

	case "ablation-asnum":
		fmt.Println("# Ablation A5: hash-to-AS-number variant (K=5)")
		res, err := experiments.RunLatency(w, experiments.LatencyConfig{
			Ks: []int{*k}, NumGUIDs: *guids, NumLookups: *lookups,
			LocalReplica: true, HashToASNumbers: true, Seed: *seed, Workers: *workers,
		})
		if err != nil {
			return err
		}
		fmt.Print(res)
		load, err := experiments.RunLoad(w, experiments.LoadConfig{
			GUIDCounts: []int{*guids}, K: *k, HashToASNumbers: true,
		})
		if err != nil {
			return err
		}
		fmt.Println("## load (NLR vs uniform share)")
		fmt.Print(load)

	case "ablation-k":
		fmt.Println("# Ablation A6: measured mean RTT vs K (cf. Figure 7)")
		ks := []int{1, 2, 3, 4, 5, 6, 8, 10, 12, 16, 20}
		res, err := experiments.RunLatency(w, experiments.LatencyConfig{
			Ks: ks, NumGUIDs: *guids, NumLookups: *lookups,
			LocalReplica: true, Seed: *seed, Workers: *workers,
		})
		if err != nil {
			return err
		}
		fmt.Print(res)
		m, err := experiments.MeasuredJellyfishModel(w)
		if err != nil {
			return err
		}
		fmt.Println("\n## analytical bound on this generated topology")
		fmt.Printf("%-4s %12s\n", "K", "bound(ms)")
		for _, kk := range ks {
			v, err := m.ResponseTimeBoundMs(kk)
			if err != nil {
				return err
			}
			fmt.Printf("%-4d %12.1f\n", kk, v)
		}

	default:
		return fmt.Errorf("unknown experiment %q", *experiment)
	}

	fmt.Fprintf(os.Stderr, "total %v\n", time.Since(start).Round(time.Millisecond))
	return nil
}

// parseList parses a comma-separated flag value, one element through
// conv; blank elements are skipped and an empty list is an error.
func parseList[T any](s, what string, conv func(string) (T, error)) ([]T, error) {
	var out []T
	for _, p := range strings.Split(s, ",") {
		p = strings.TrimSpace(p)
		if p == "" {
			continue
		}
		v, err := conv(p)
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no %ss in %q", what, s)
	}
	return out, nil
}
