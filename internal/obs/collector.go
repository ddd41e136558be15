// Collector: scrapes every node's /debug/metrics JSON on demand and
// folds the results into a FleetView — per-node windowed rates (exact
// counter deltas, restart-clamped), current levels, windowed histogram
// tails, the exact merged cluster snapshot, and a skew report flagging
// replicas that stand apart from the fleet median.
package obs

import (
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync"
	"time"

	"dmap/internal/metrics"
)

// Source names one scrape target: URL is the node's /debug/metrics
// endpoint (the collector asks for JSON via the Accept header).
type Source struct {
	Name string
	URL  string
}

// maxScrapeBody bounds one scrape response; a debug endpoint returning
// more than this is broken and must fail the scrape, not OOM the plane.
const maxScrapeBody = 16 << 20

// The skew report's thresholds: a node is flagged when its windowed
// value exceeds outlierFactor × fleet median, and never below
// outlierMin, which silences noise on idle clusters.
const (
	outlierFactor = 4
	outlierMin    = 1
)

// CollectorConfig configures a Collector.
type CollectorConfig struct {
	Sources []Source
}

// scrapeTimeout bounds one scrape round trip.
const scrapeTimeout = 2 * time.Second

// Collector scrapes the configured sources and remembers each node's
// previous snapshot so every Collect call yields one delta window per
// node. Safe for use from one goroutine at a time.
type Collector struct {
	cfg    CollectorConfig
	client *http.Client
	now    func() time.Time // time.Now; the tests step a clock of their own

	mu   sync.Mutex
	prev map[string]scrapeState
}

type scrapeState struct {
	snap metrics.Snapshot
	when time.Time
}

// NewCollector returns a collector over cfg.Sources.
func NewCollector(cfg CollectorConfig) *Collector {
	return &Collector{cfg: cfg, client: &http.Client{Timeout: scrapeTimeout}, now: time.Now, prev: make(map[string]scrapeState)}
}

// Collect scrapes every source concurrently and returns this round's
// FleetView. A node that fails to scrape or fails snapshot validation
// is reported down for the round (its window state is kept, so one
// missed scrape just widens the next window).
func (c *Collector) Collect() FleetView {
	type result struct {
		snap metrics.Snapshot
		err  error
	}
	results := make([]result, len(c.cfg.Sources))
	var wg sync.WaitGroup
	for i, src := range c.cfg.Sources {
		wg.Add(1)
		go func(i int, src Source) {
			defer wg.Done()
			snap, err := c.scrape(src.URL)
			results[i] = result{snap: snap, err: err}
		}(i, src)
	}
	wg.Wait()
	when := c.now()

	view := FleetView{
		When:  when,
		Nodes: make([]NodeView, len(c.cfg.Sources)),
	}
	cluster := metrics.Snapshot{
		Counters:   map[string]int64{},
		Gauges:     map[string]float64{},
		Histograms: map[string]metrics.HistogramSnapshot{},
	}

	c.mu.Lock()
	for i, src := range c.cfg.Sources {
		nv := NodeView{Name: src.Name, URL: src.URL}
		if err := results[i].err; err != nil {
			nv.Err = err.Error()
			view.Nodes[i] = nv
			continue
		}
		snap := results[i].snap
		nv.Up = true
		view.NodesUp++
		nv.Gauges = snap.Gauges

		if prev, ok := c.prev[src.Name]; ok {
			window := when.Sub(prev.when).Seconds()
			nv.WindowS = window
			if window > 0 {
				delta := snap.DeltaSince(prev.snap)
				nv.Rates = make(map[string]float64, len(delta.Counters))
				for name, d := range delta.Counters {
					nv.Rates[name] = float64(d) / window
				}
				nv.P99 = make(map[string]float64, len(delta.Histograms))
				for name, h := range delta.Histograms {
					if h.Count > 0 {
						nv.P99[name] = h.Quantile(99)
					}
				}
			}
		}
		c.prev[src.Name] = scrapeState{snap: snap, when: when}

		// Merge this node into the cluster snapshot one at a time so a
		// layout-skewed node poisons only itself, not the whole view.
		merged, err := metrics.MergeSnapshots(cluster, snap)
		if err != nil {
			nv.Err = fmt.Sprintf("excluded from cluster view: %v", err)
		} else {
			cluster = merged
		}
		view.Nodes[i] = nv
	}
	c.mu.Unlock()

	view.Cluster = cluster
	view.Outliers = findOutliers(view.Nodes)
	return view
}

// scrape fetches and strictly decodes one node's snapshot.
func (c *Collector) scrape(url string) (metrics.Snapshot, error) {
	req, err := http.NewRequest("GET", url, nil)
	if err != nil {
		return metrics.Snapshot{}, err
	}
	req.Header.Set("Accept", "application/json")
	resp, err := c.client.Do(req)
	if err != nil {
		return metrics.Snapshot{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return metrics.Snapshot{}, fmt.Errorf("scrape: status %d", resp.StatusCode)
	}
	body, err := io.ReadAll(io.LimitReader(resp.Body, maxScrapeBody+1))
	if err != nil {
		return metrics.Snapshot{}, err
	}
	if len(body) > maxScrapeBody {
		return metrics.Snapshot{}, fmt.Errorf("scrape: body exceeds %d bytes", maxScrapeBody)
	}
	return DecodeSnapshot(body)
}

// findOutliers builds the skew report: for every windowed rate and p99
// present on at least three up nodes, a node whose value exceeds
// outlierFactor × fleet median (and outlierMin) is flagged. Medians need
// ≥3 nodes to mean anything; smaller fleets report no outliers.
func findOutliers(nodes []NodeView) []Outlier {
	var out []Outlier
	out = append(out, skewOver(nodes, "rate", func(n NodeView) map[string]float64 { return n.Rates })...)
	out = append(out, skewOver(nodes, "p99", func(n NodeView) map[string]float64 { return n.P99 })...)
	sort.Slice(out, func(i, j int) bool {
		if out[i].Metric != out[j].Metric {
			return out[i].Metric < out[j].Metric
		}
		return out[i].Node < out[j].Node
	})
	return out
}

func skewOver(nodes []NodeView, kind string, get func(NodeView) map[string]float64) []Outlier {
	byMetric := map[string][]float64{}
	for _, n := range nodes {
		if !n.Up {
			continue
		}
		for name, v := range get(n) {
			byMetric[name] = append(byMetric[name], v)
		}
	}
	var out []Outlier
	for name, vs := range byMetric {
		if len(vs) < 3 {
			continue
		}
		med := medianOf(vs)
		for _, n := range nodes {
			if !n.Up {
				continue
			}
			v, ok := get(n)[name]
			if !ok || v < outlierMin || v <= med*outlierFactor {
				continue
			}
			f := v / outlierMin
			if med > 0 {
				f = v / med
			}
			out = append(out, Outlier{Node: n.Name, Metric: kind + ":" + name, Value: v, Median: med, Factor: f})
		}
	}
	return out
}
