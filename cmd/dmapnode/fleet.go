package main

import (
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"sync"
	"syscall"
	"time"

	"dmap/internal/metrics"
	"dmap/internal/obs"
)

// fleet aggregates a cluster: it scrapes every node's /debug/metrics
// endpoint into one merged view (exact global histograms, per-node rate
// windows, skew outliers) and black-box probes the serving addresses
// with sentinel writes/reads, tracking availability and staleness SLO
// burn. One round prints a table (or JSON); -listen serves the latest
// view on /fleet and the anomaly flight recorder on /fleet/flight.
func fleet(args []string) error {
	return fleetMain(args, os.Stdout, nil, nil)
}

// fleetMain is fleet with its wiring exposed for tests: out receives
// round output, stop ends the loop, ready (if non-nil) gets the bound
// -listen address once serving.
func fleetMain(args []string, out io.Writer, stop <-chan struct{}, ready func(addr string)) error {
	fs := flag.NewFlagSet("fleet", flag.ContinueOnError)
	scrape := fs.String("scrape", "", "comma-separated name=url list of node /debug/metrics endpoints to aggregate")
	probe := fs.String("probe", "", "comma-separated name=addr list of node serving addresses to black-box probe")
	interval := fs.Duration("interval", 5*time.Second, "pause between fleet rounds")
	once := fs.Bool("once", false, "run a single round, print it and exit")
	jsonOut := fs.Bool("json", false, "print rounds as JSON instead of a table")
	listen := fs.String("listen", "", "HTTP address serving /fleet and /fleet/flight (empty = off)")
	sentinels := fs.Int("sentinels", 3, "sentinel GUIDs written and read per probe round")
	maxLag := fs.Uint64("max-lag", 0, "acceptable version lag before a read counts as stale")
	objective := fs.Float64("objective", 0.999, "SLO objective for availability and staleness")
	flight := fs.Int("flight", 16, "flight recorder ring size in rounds (0 = off)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	switch {
	case *interval <= 0:
		return fmt.Errorf("-interval must be positive, got %v", *interval)
	case !(*objective > 0 && *objective < 1):
		return fmt.Errorf("-objective must be in (0,1), got %g", *objective)
	case *sentinels < 1:
		return fmt.Errorf("-sentinels must be at least 1, got %d", *sentinels)
	case *flight < 0 || *flight == 1:
		return fmt.Errorf("-flight must be 0 (off) or at least 2 rounds, got %d", *flight)
	}
	sources, err := parseNamed(*scrape, "scrape")
	if err != nil {
		return err
	}
	targets, err := parseNamed(*probe, "probe")
	if err != nil {
		return err
	}
	if len(sources) == 0 && len(targets) == 0 {
		return fmt.Errorf("fleet needs -scrape and/or -probe endpoints")
	}

	var collector *obs.Collector
	if len(sources) > 0 {
		cfg := obs.CollectorConfig{}
		for _, s := range sources {
			url := s[1]
			if !strings.Contains(url, "://") {
				url = "http://" + url + "/debug/metrics"
			}
			cfg.Sources = append(cfg.Sources, obs.Source{Name: s[0], URL: url})
		}
		collector = obs.NewCollector(cfg)
	}
	var prober *obs.Prober
	if len(targets) > 0 {
		cfg := obs.ProberConfig{
			Sentinels:    *sentinels,
			MaxLag:       *maxLag,
			Availability: obs.SLOConfig{Objective: *objective},
			Staleness:    obs.SLOConfig{Objective: *objective},
			Registry:     metrics.NewRegistry(),
		}
		for _, t := range targets {
			cfg.Targets = append(cfg.Targets, obs.ProbeTarget{Name: t[0], Addr: t[1]})
		}
		prober = obs.NewProber(cfg)
		defer prober.Close()
	}
	var rec *obs.FlightRecorder
	if *flight > 0 {
		rec = obs.NewFlightRecorder(*flight)
	}

	var mu sync.Mutex
	var latest obs.FleetView
	var haveView bool
	round := func() obs.FleetView {
		var v obs.FleetView
		if collector != nil {
			v = collector.Collect()
		} else {
			v.When = time.Now()
		}
		if prober != nil {
			st := prober.Round()
			v.Probe = &st
		}
		if rec != nil {
			rec.Note(v)
			for _, reason := range flightReasons(v) {
				rec.Trigger(reason, v.When)
			}
		}
		mu.Lock()
		latest, haveView = v, true
		mu.Unlock()
		return v
	}
	print := func(v obs.FleetView) error {
		if *jsonOut {
			b, err := v.JSON()
			if err != nil {
				return err
			}
			_, err = fmt.Fprintf(out, "%s\n", b)
			return err
		}
		return v.WriteTable(out)
	}

	if err := print(round()); err != nil {
		return err
	}
	if *once {
		return nil
	}

	if *listen != "" {
		mux := http.NewServeMux()
		mux.Handle("/fleet", obs.FleetHandler(func() (obs.FleetView, bool) {
			mu.Lock()
			defer mu.Unlock()
			return latest, haveView
		}))
		mux.Handle("/fleet/flight", obs.FlightHandler(rec))
		ln, err := net.Listen("tcp", *listen)
		if err != nil {
			return fmt.Errorf("fleet listen %s: %w", *listen, err)
		}
		srv := &http.Server{Handler: mux}
		go srv.Serve(ln)
		defer srv.Close()
		fmt.Fprintf(out, "fleet endpoint on http://%s/fleet\n", ln.Addr())
		if ready != nil {
			ready(ln.Addr().String())
		}
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sig)
	tick := time.NewTicker(*interval)
	defer tick.Stop()
	for {
		select {
		case <-tick.C:
			v := round()
			// In serving mode the view lives at /fleet; don't also spam
			// stdout with a table every interval.
			if *listen == "" {
				if err := print(v); err != nil {
					return err
				}
			}
		case <-sig:
			return nil
		case <-stop:
			return nil
		}
	}
}

// parseNamed parses a "name=value,name=value" flag list.
func parseNamed(list, kind string) ([][2]string, error) {
	var out [][2]string
	for _, item := range strings.Split(list, ",") {
		item = strings.TrimSpace(item)
		if item == "" {
			continue
		}
		name, val, ok := strings.Cut(item, "=")
		if !ok || name == "" || val == "" {
			return nil, fmt.Errorf("-%s: %q is not name=value", kind, item)
		}
		out = append(out, [2]string{name, val})
	}
	return out, nil
}

// flightReasons lists the anomalies in v that should freeze the flight
// recorder: an SLO burn breach, any stale replica, or a shed-rate
// outlier (one node load-shedding far above the fleet median).
func flightReasons(v obs.FleetView) []string {
	var rs []string
	if v.Probe != nil {
		if v.Probe.Breaching() {
			rs = append(rs, "slo-breach")
		}
		for _, t := range v.Probe.Targets {
			if t.Stale {
				rs = append(rs, "staleness:"+t.Name)
			}
		}
	}
	for _, o := range v.Outliers {
		if strings.Contains(o.Metric, "sheds") {
			rs = append(rs, "shed-spike:"+o.Node)
		}
	}
	return rs
}
