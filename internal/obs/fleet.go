// Fleet view types and the strict snapshot codec. FleetView is the one
// JSON document the telemetry plane produces: per-node window rates and
// levels, the exact merged cluster snapshot, outlier flags and prober
// SLO status, rendered either as JSON (machines) or a text table
// (humans, WriteTable).
package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"time"

	"dmap/internal/metrics"
)

// NodeView is one node's slice of a FleetView round.
type NodeView struct {
	Name string `json:"name"`
	// URL is the scrape endpoint the collector read.
	URL string `json:"url"`
	// Up reports whether the scrape succeeded; Err carries the failure.
	Up  bool   `json:"up"`
	Err string `json:"err,omitempty"`
	// WindowS is the wall-clock seconds this node's window covers (0 on
	// the first scrape, when there is no previous snapshot to diff).
	WindowS float64 `json:"window_s"`
	// Rates are windowed counter rates in events/second, keyed by
	// counter name, restart-clamped per the internal/metrics delta
	// contract. Empty until the second scrape.
	Rates map[string]float64 `json:"rates,omitempty"`
	// Gauges are current levels. Gauges keep per-node identity — they
	// are reported here and never merged into the cluster snapshot.
	Gauges map[string]float64 `json:"gauges,omitempty"`
	// P99 holds this node's windowed p99 per histogram, microseconds.
	P99 map[string]float64 `json:"p99_us,omitempty"`
}

// Outlier flags one node whose windowed value stands apart from the
// fleet median for a metric — the skew report that points at a replica
// falling behind (repair backlog, shed spike, latency tail).
type Outlier struct {
	Node   string  `json:"node"`
	Metric string  `json:"metric"`
	Value  float64 `json:"value"`
	Median float64 `json:"median"`
	// Factor is Value/Median (capped for display when Median is 0).
	Factor float64 `json:"factor"`
}

// FleetView is one collection round over the whole fleet.
type FleetView struct {
	When    time.Time  `json:"when"`
	NodesUp int        `json:"nodes_up"`
	Nodes   []NodeView `json:"nodes"`
	// Cluster is the exact merge of every up node's CUMULATIVE
	// snapshot: counters sum, histograms merge bucket-by-bucket (so
	// cluster quantiles are exactly what one global histogram would
	// answer), gauges dropped (per-node identity).
	Cluster metrics.Snapshot `json:"cluster"`
	// Outliers is the skew report for this round.
	Outliers []Outlier `json:"outliers,omitempty"`
	// Probe is the SLO prober's status, when a prober is attached.
	Probe *ProbeStatus `json:"probe,omitempty"`
}

// DecodeSnapshot strictly decodes one node's /debug/metrics JSON into a
// metrics.Snapshot: unknown fields are rejected and every histogram
// must satisfy the invariants the merge/delta code relies on (bucket
// layout shape, counts summing to the total, ordered finite edges,
// coherent extrema). This is the collector's trust boundary — a
// corrupted or version-skewed node must fail its scrape loudly rather
// than poison the merged cluster view. json.Marshal is the encoding it
// round-trips canonically: map keys sorted, no indentation, so equal
// snapshots encode byte-identically.
func DecodeSnapshot(b []byte) (metrics.Snapshot, error) {
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	var s metrics.Snapshot
	if err := dec.Decode(&s); err != nil {
		return metrics.Snapshot{}, fmt.Errorf("obs: decode snapshot: %w", err)
	}
	// Exactly one JSON value: trailing garbage is a framing bug.
	if dec.More() {
		return metrics.Snapshot{}, fmt.Errorf("obs: decode snapshot: trailing data after JSON value")
	}
	for name, g := range s.Gauges {
		if math.IsNaN(g) || math.IsInf(g, 0) {
			return metrics.Snapshot{}, fmt.Errorf("obs: gauge %q is not finite", name)
		}
	}
	for name, h := range s.Histograms {
		if err := validateHistogram(h); err != nil {
			return metrics.Snapshot{}, fmt.Errorf("obs: histogram %q: %w", name, err)
		}
	}
	return s, nil
}

// validateHistogram enforces the shape invariants a registry snapshot
// always has, so downstream merge/quantile code never sees a histogram
// it could misinterpret.
func validateHistogram(h metrics.HistogramSnapshot) error {
	if len(h.Edges) == 0 {
		// The zero snapshot (merge identity) is the only edgeless form.
		if h.Count != 0 || len(h.Counts) != 0 || len(h.Exemplars) != 0 {
			return fmt.Errorf("no edges but %d counts / count %d", len(h.Counts), h.Count)
		}
		if h.Sum != 0 || h.Min != 0 || h.Max != 0 {
			return fmt.Errorf("no edges but non-zero sum or extrema")
		}
		return nil
	}
	if len(h.Counts) != len(h.Edges)+1 {
		return fmt.Errorf("%d counts for %d edges, want %d", len(h.Counts), len(h.Edges), len(h.Edges)+1)
	}
	if len(h.Exemplars) != 0 && len(h.Exemplars) != len(h.Counts) {
		return fmt.Errorf("%d exemplars for %d buckets", len(h.Exemplars), len(h.Counts))
	}
	prev := math.Inf(-1)
	for i, e := range h.Edges {
		if math.IsNaN(e) || math.IsInf(e, 0) || e <= prev {
			return fmt.Errorf("edge %d (%g) not finite and strictly increasing", i, e)
		}
		prev = e
	}
	var total uint64
	for _, c := range h.Counts {
		if c > math.MaxUint64-total {
			return fmt.Errorf("bucket counts overflow")
		}
		total += c
	}
	if total != h.Count {
		return fmt.Errorf("count %d but buckets sum to %d", h.Count, total)
	}
	if math.IsNaN(h.Sum) || math.IsInf(h.Sum, 0) {
		return fmt.Errorf("sum not finite")
	}
	if math.IsNaN(h.Min) || math.IsInf(h.Min, 0) || math.IsNaN(h.Max) || math.IsInf(h.Max, 0) {
		return fmt.Errorf("extrema not finite")
	}
	if h.Count == 0 {
		if h.Sum != 0 || h.Min != 0 || h.Max != 0 {
			return fmt.Errorf("empty histogram with non-zero sum or extrema")
		}
	} else if h.Min > h.Max {
		return fmt.Errorf("min %g > max %g", h.Min, h.Max)
	}
	return nil
}

// JSON renders the fleet view as indented JSON.
func (v FleetView) JSON() ([]byte, error) {
	return json.MarshalIndent(v, "", "  ")
}

// Table column order for per-node rates and p99 histograms; only
// metrics present on some node are shown.
var tableRateCols = []string{
	"server.lookups", "server.inserts",
	"server.sheds_global", "server.sheds_conn",
	"server.repair.pushed", "server.repair.pulled",
}

var tableGaugeCols = []string{"server.inflight", "server.conns"}

var tableP99Cols = []string{"server.op.lookup_us", "server.op.insert_us"}

// WriteTable renders the live text table `dmapnode fleet` shows: one
// row per node, the merged cluster tail, outliers and SLO status.
func (v FleetView) WriteTable(w io.Writer) error {
	bw := &errWriter{w: w}
	fmt.Fprintf(bw, "fleet @ %s  nodes up %d/%d\n",
		v.When.Format("15:04:05"), v.NodesUp, len(v.Nodes))

	rates := activeCols(tableRateCols, v.Nodes, func(n NodeView) map[string]float64 { return n.Rates })
	gauges := activeCols(tableGaugeCols, v.Nodes, func(n NodeView) map[string]float64 { return n.Gauges })
	p99s := activeCols(tableP99Cols, v.Nodes, func(n NodeView) map[string]float64 { return n.P99 })

	fmt.Fprintf(bw, "%-12s %-5s", "node", "up")
	for _, c := range rates {
		fmt.Fprintf(bw, " %14s", shortCol(c)+"/s")
	}
	for _, c := range gauges {
		fmt.Fprintf(bw, " %10s", shortCol(c))
	}
	for _, c := range p99s {
		fmt.Fprintf(bw, " %12s", shortCol(c)+" p99")
	}
	fmt.Fprintln(bw)
	for _, n := range v.Nodes {
		up := "yes"
		if !n.Up {
			up = "NO"
		}
		fmt.Fprintf(bw, "%-12s %-5s", n.Name, up)
		for _, c := range rates {
			fmt.Fprintf(bw, " %14.1f", n.Rates[c])
		}
		for _, c := range gauges {
			fmt.Fprintf(bw, " %10.0f", n.Gauges[c])
		}
		for _, c := range p99s {
			fmt.Fprintf(bw, " %12.0f", n.P99[c])
		}
		if !n.Up && n.Err != "" {
			fmt.Fprintf(bw, "  (%s)", n.Err)
		}
		fmt.Fprintln(bw)
	}

	if h, ok := v.Cluster.Histograms["server.op.lookup_us"]; ok && h.Count > 0 {
		fmt.Fprintf(bw, "cluster lookup: n=%d p50=%.0fµs p99=%.0fµs p999=%.0fµs max=%.0fµs\n",
			h.Count, h.Quantile(50), h.Quantile(99), h.Quantile(99.9), h.Max)
	}
	for _, o := range v.Outliers {
		fmt.Fprintf(bw, "outlier: %s %s = %.1f (median %.1f, %.1fx)\n",
			o.Node, o.Metric, o.Value, o.Median, o.Factor)
	}
	if v.Probe != nil {
		for _, s := range v.Probe.SLOs {
			fmt.Fprintf(bw, "slo: %s\n", s)
		}
	}
	return bw.err
}

// activeCols filters the preferred column list down to metrics at least
// one node actually has, preserving order.
func activeCols(prefer []string, nodes []NodeView, get func(NodeView) map[string]float64) []string {
	var out []string
	for _, c := range prefer {
		for _, n := range nodes {
			if _, ok := get(n)[c]; ok {
				out = append(out, c)
				break
			}
		}
	}
	return out
}

// shortCol trims the shared "server." prefix for column headers.
func shortCol(name string) string {
	const p = "server."
	if len(name) > len(p) && name[:len(p)] == p {
		return name[len(p):]
	}
	return name
}

type errWriter struct {
	w   io.Writer
	err error
}

func (e *errWriter) Write(p []byte) (int, error) {
	if e.err != nil {
		return 0, e.err
	}
	n, err := e.w.Write(p)
	e.err = err
	return n, err
}

// medianOf returns the median of vs (not mutating the input).
func medianOf(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	mid := len(s) / 2
	if len(s)%2 == 1 {
		return s[mid]
	}
	return (s[mid-1] + s[mid]) / 2
}
