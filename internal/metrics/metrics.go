// Package metrics is the repository's observability kernel: a
// stdlib-only registry of named counters, gauges and fixed-bucket
// latency histograms, designed so that the instrumented hot paths
// (store puts, wire round trips, served frames) pay only a handful
// of uncontended atomic operations per event and zero allocations.
//
// The registry is the single source of truth for operational numbers:
// server.Stats() and client.Stats() read the same counters that
// cmd/dmapnode serves on /debug/metrics, so tests and live deployments
// observe one set of books.
//
// Concurrency model: metric handles (*Counter, *Gauge, *Histogram) are
// resolved once — typically at construction time of the instrumented
// component — and then used lock-free. Registry lookups take a mutex
// and must stay off hot paths. Snapshot() is safe at any time; it reads
// each atomic individually, so a snapshot is per-metric consistent but
// not a global instant (fine for monitoring).
package metrics

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing int64. The zero value is ready
// to use, but counters should normally be obtained from a Registry so
// they appear in snapshots.
type Counter struct{ v atomic.Int64 }

// Add increments the counter by n.
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a float64 level (a value that can go up and down: pool
// sizes, occupancy, configuration). The zero value reads 0.
type Gauge struct{ bits atomic.Uint64 }

// Set replaces the gauge's value.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add adjusts the gauge by d (lock-free CAS loop).
func (g *Gauge) Add(d float64) {
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + d)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the current level.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Registry holds named metrics. Names are flat dotted paths
// ("server.op.lookup_us"); a name identifies exactly one metric of
// exactly one kind — re-registering the same name and kind returns the
// existing metric, registering it as a different kind panics (a
// programming error worth failing loudly on).
type Registry struct {
	mu         sync.Mutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	gaugeFuncs map[string]func() float64
	hists      map[string]*Histogram
	// hooks run at the start of every Snapshot, keyed by name so
	// re-registration replaces instead of stacking. They refresh
	// metrics whose source is pulled rather than pushed (e.g. the
	// runtime/metrics bridge in internal/obs).
	hooks map[string]func()
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:   make(map[string]*Counter),
		gauges:     make(map[string]*Gauge),
		gaugeFuncs: make(map[string]func() float64),
		hists:      make(map[string]*Histogram),
		hooks:      make(map[string]func()),
	}
}

func (r *Registry) checkFree(name, kind string) {
	if name == "" {
		panic("metrics: empty metric name")
	}
	if _, ok := r.counters[name]; ok && kind != "counter" {
		panic(fmt.Sprintf("metrics: %q already registered as counter", name))
	}
	if _, ok := r.gauges[name]; ok && kind != "gauge" {
		panic(fmt.Sprintf("metrics: %q already registered as gauge", name))
	}
	if _, ok := r.gaugeFuncs[name]; ok && kind != "gaugefunc" {
		panic(fmt.Sprintf("metrics: %q already registered as gauge func", name))
	}
	if _, ok := r.hists[name]; ok && kind != "histogram" {
		panic(fmt.Sprintf("metrics: %q already registered as histogram", name))
	}
}

// Counter returns the counter registered under name, creating it if
// needed.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	if c, ok := r.counters[name]; ok {
		return c
	}
	r.checkFree(name, "counter")
	c := &Counter{}
	r.counters[name] = c
	return c
}

// Gauge returns the gauge registered under name, creating it if needed.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	if g, ok := r.gauges[name]; ok {
		return g
	}
	r.checkFree(name, "gauge")
	g := &Gauge{}
	r.gauges[name] = g
	return g
}

// GaugeFunc registers fn as a gauge evaluated at snapshot time (e.g. a
// store's current size). fn must be safe to call from any goroutine.
// Re-registering a name replaces the previous function.
func (r *Registry) GaugeFunc(name string, fn func() float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.checkFree(name, "gaugefunc")
	r.gaugeFuncs[name] = fn
}

// OnSnapshot registers fn to run at the start of every Snapshot, before
// any metric is read — the refresh point for metrics whose source must
// be pulled (the runtime/metrics bridge reads the runtime once per
// snapshot here instead of once per gauge). Re-registering a name
// replaces the previous hook, so bridges are idempotent to set up.
//
// fn runs with the registry's lock held: it must only touch
// already-resolved metric handles (Counter.Add, Gauge.Set,
// Histogram.ObserveN — all atomics) and must NOT call back into the
// registry, which would deadlock.
func (r *Registry) OnSnapshot(name string, fn func()) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.hooks[name] = fn
}

// Histogram returns the histogram registered under name with the
// default latency buckets (microseconds, see DefaultLatencyEdges),
// creating it if needed.
func (r *Registry) Histogram(name string) *Histogram {
	return r.HistogramWith(name, nil)
}

// HistogramWith is Histogram with explicit bucket upper bounds (strictly
// increasing; nil selects DefaultLatencyEdges). If name already exists
// its edges are kept and edges is ignored.
func (r *Registry) HistogramWith(name string, edges []float64) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	if h, ok := r.hists[name]; ok {
		return h
	}
	r.checkFree(name, "histogram")
	h := newHistogram(edges)
	r.hists[name] = h
	return h
}

// Snapshot captures every metric's current value. Maps are keyed by
// metric name; encoding/json marshals them in sorted order, and
// WriteText sorts explicitly, so two snapshots of identical state
// encode identically.
func (r *Registry) Snapshot() Snapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, fn := range r.hooks {
		fn()
	}
	s := Snapshot{
		Counters:   make(map[string]int64, len(r.counters)),
		Gauges:     make(map[string]float64, len(r.gauges)+len(r.gaugeFuncs)),
		Histograms: make(map[string]HistogramSnapshot, len(r.hists)),
	}
	for name, c := range r.counters {
		s.Counters[name] = c.Value()
	}
	for name, g := range r.gauges {
		s.Gauges[name] = g.Value()
	}
	for name, fn := range r.gaugeFuncs {
		s.Gauges[name] = fn()
	}
	for name, h := range r.hists {
		s.Histograms[name] = h.snapshot()
	}
	return s
}

// sortedKeys returns m's keys in sorted order (text-encoding helper).
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
