package main

import (
	"dmap/internal/metrics"
)

// scrapeBook accumulates what the nodes' /debug/metrics counted between
// the end of set-up and the end of the timed phases. A node's counters
// die with it, so its delta is folded in just before every kill.
type scrapeBook struct {
	base   []metrics.Snapshot // per node: reading the next delta starts from
	acc    metrics.Snapshot   // merged deltas so far
	gauges []map[string]float64
	closed bool
}

// scrapeMark starts the book: every node's current reading is its base.
func (r *run) scrapeMark() error {
	r.book = &scrapeBook{base: make([]metrics.Snapshot, numNodes), gauges: make([]map[string]float64, numNodes)}
	for i := range r.cl.nodes {
		s, err := r.cl.scrape(i)
		if err != nil {
			return err
		}
		r.book.base[i] = s
	}
	return nil
}

// scrapeFold adds node i's delta since its base to the book and resets
// the base to empty: call it before killing node i.
func (r *run) scrapeFold(i int) error {
	b := r.book
	if b == nil || b.closed || r.cl.nodes[i].cmd == nil {
		return nil
	}
	s, err := r.cl.scrape(i)
	if err != nil {
		return err
	}
	merged, err := metrics.MergeSnapshots(b.acc, s.DeltaSince(b.base[i]))
	if err != nil {
		return err
	}
	b.acc = merged
	b.gauges[i] = s.Gauges
	b.base[i] = metrics.Snapshot{}
	return nil
}

// scrapeClose folds every live node and derives the scraped metrics.
// Later calls do nothing, so a workload that kills its nodes at the end
// (update_durable) closes the book first.
func (r *run) scrapeClose() error {
	b := r.book
	if b == nil || b.closed {
		return nil
	}
	for i := range r.cl.nodes {
		if err := r.scrapeFold(i); err != nil {
			return err
		}
	}
	b.closed = true
	h := b.acc.Histograms
	r.m.set("server.op.lookup_us.p50", h["server.op.lookup_us"].Quantile(50))
	r.m.set("server.op.lookup_us.p99", h["server.op.lookup_us"].Quantile(99))
	r.m.set("server.op.insert_us.p50", h["server.op.insert_us"].Quantile(50))
	r.m.set("server.op.insert_us.p99", h["server.op.insert_us"].Quantile(99))
	r.m.set("server.gc_pause_p99_us", h["runtime.gc_pause_us"].Quantile(99))
	for _, name := range []string{
		"server.sheds_conn", "server.sheds_global",
		"server.repair.sweeps", "server.repair.digests_sent", "server.repair.entries_pulled",
		"server.repair.entries_pushed", "server.repair.backoffs",
	} {
		r.m.set(name, float64(b.acc.Counters[name]))
	}
	var heap, goroutines float64
	for _, g := range b.gauges {
		heap += g["runtime.heap_bytes"]
		goroutines += g["runtime.goroutines"]
	}
	r.m.set("server.heap_bytes", heap)
	r.m.set("server.goroutines", goroutines)
	return nil
}
