package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
)

// metricDef names one reported metric. The tables below are the list
// the run output and BENCHMARK.json (checked by a test) agree on; the
// comment on each line says what it measures and, before a colon, the
// workloads that measure it (none named: all four; elsewhere a per-layer
// metric reads 0). README.md carries the same glossary.
type metricDef struct {
	name   string
	unit   string
	better string // "lower" or "higher"
	// bound is the share of the parent's median by which an end-to-end
	// metric may worsen; 0 marks a per-layer metric (no bound).
	bound float64
}

// Workload names are permanent.
const (
	wlLookup  = "lookup_single"
	wlBatch   = "batch_mobility"
	wlDurable = "update_durable"
	wlHeal    = "restart_heal"
)

// The three timed metrics are bounded in their normalised form — scaled
// to the speed the run's yardstick read (yardstick.go) — because as
// measured they follow the sandbox's speed of the minute, which moves by
// more than any bound the contract allows. The measured figures keep the
// names ISSUE 12 gave them, at the head of the per-layer list.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},                 // spawn + ready + DFZ + key generation + preload, median of the run's set-up repetitions; go build excluded
	{"ops_s_norm", "1/s", "higher", 0.25},           // ops_s ÷ speed index
	{"lat_p50_us_norm", "us", "lower", 0.25},        // lat_p50_us × speed index
	{"srv_cpu_us_per_op_norm", "us", "lower", 0.25}, // srv_cpu_us_per_op × speed index
	{"mem_bytes_per_entry", "B", "lower", 0.15},     // node RSS after preload − RSS empty ÷ replica entries held, median of the set-up repetitions
}

// perLayer lists the per-layer metrics in print order. The first block
// holds the workload-specific end-to-end figures that the acceptance
// contract cannot bound (it wants every bounded metric on every
// workload); they keep the names ISSUE 12 gave them.
var perLayer = []metricDef{
	{"ops_s", "1/s", "higher", 0},                      // ops completed and verified per second the workers ran in the headline closed phase (GUIDs on batch_mobility; foreground reads on restart_heal)
	{"lat_p50_us", "us", "lower", 0},                   // median call latency in the headline phase (read batch on batch_mobility, update on update_durable, foreground read on restart_heal)
	{"srv_cpu_us_per_op", "us", "lower", 0},            // node utime+stime over the headline phase ÷ completed ops
	{"lat_p99_us", "us", "lower", 0},                   // 99th percentile call latency in the closed phase, same population as lat_p50_us
	{"rtt_p50_us", "us", "lower", 0},                   // median of one-in-flight LookupInto over uniform keys: µs per served lookup
	{"upd_p99_us", "us", "lower", 0},                   // batch_mobility: 99th percentile of a whole-host InsertBatch beside the readers
	{"ol_p50_us", "us", "lower", 0},                    // lookup_single: open loop, second rung: median from the due instant
	{"ol_p99_us", "us", "lower", 0},                    // lookup_single: open loop, second rung: 99th percentile from the due instant
	{"rate_ok_rps", "1/s", "higher", 0},                // lookup_single: highest rung with p99 ≤ 5 ms from due, ≥ 99 % completed, queue not saturated
	{"fail_frac", "ratio", "lower", 0},                 // failed, refused, wrong or overflowed ÷ attempted over the whole run
	{"disk_bytes_per_op", "B", "lower", 0},             // update_durable: /proc/<pid>/io write_bytes ÷ acked replica writes
	{"restart_to_serve_ms", "ms", "lower", 0},          // update_durable, restart_heal: exec → first verified lookup, median over restarts
	{"heal_converge_ms", "ms", "lower", 0},             // restart_heal: victim serving → every stale key fresh on it, median of cycles
	{"heal.stale_reads", "count", "lower", 0},          // restart_heal: foreground reads answered below the acked version while the victim heals
	{"heal.kill_window_failures", "count", "lower", 0}, // restart_heal: foreground failures between a SIGKILL and the victim serving again
	{"store.snapshot_cycles", "count", "higher", 0},    // update_durable: WAL truncations seen in the data dirs during the update phase, all nodes

	{"guid.hash_ns", "ns", "lower", 0},                      // Hasher.Hash, one replica
	{"prefixtable.lpm_ns", "ns", "lower", 0},                // Table.Lookup of a hashed address on the folded DFZ
	{"prefixtable.nearest_ns", "ns", "lower", 0},            // Table.Nearest of a hashed address
	{"prefixtable.hole_frac", "ratio", "lower", 0},          // share of first hashes that fall into an IP hole
	{"core.place_ns", "ns", "lower", 0},                     // Resolver.PlaceInto, all K replicas
	{"core.place_rehash_per_op", "count", "lower", 0},       // rehashes per PlaceInto over the generated keys (exact)
	{"core.place_allocs", "count", "lower", 0},              // allocations per PlaceInto
	{"core.diffrange_ns_per_digest", "ns", "lower", 0},      // DiffRange over one 512-digest page of an in-sync store
	{"store.shard_digests_ns_per_digest", "ns", "lower", 0}, // ShardDigests paging through a loaded shard
	{"wire.repair_codec_ns_per_digest", "ns", "lower", 0},   // AppendRepairDigest + DecodeRepairDigest of a full page

	{"wire.lookup_req_ns", "ns", "lower", 0},               // AppendGUID + AppendFrameID + DecodeGUID
	{"wire.lookup_resp_ns", "ns", "lower", 0},              // AppendLookupResp + DecodeLookupRespInto
	{"wire.read_frame_ns", "ns", "lower", 0},               // ReadFrameIDInto of a lookup response from memory
	{"wire.bytes_per_lookup", "B", "lower", 0},             // request + response frame bytes of one lookup (exact)
	{"wire.bytes_per_update", "B", "lower", 0},             // request + ack frame bytes of one single-NA update, one replica (exact)
	{"wire.writer_frames_per_write", "count", "higher", 0}, // frames per conn.Write with 16 goroutines on one wire.Writer
	{"wire.batch_lookup_ns_per_item", "ns", "lower", 0},    // batch lookup request + response codec, per GUID of 64
	{"wire.batch_insert_ns_per_item", "ns", "lower", 0},    // batch insert request + ack codec, per entry of 64
	{"wire.allocs_per_batch_item", "count", "lower", 0},    // allocations of the batch lookup codec round, per GUID

	{"store.view_ns", "ns", "lower", 0},                    // ViewInto on a loaded memory store
	{"store.put_ns", "ns", "lower", 0},                     // Put of a newer version on a loaded memory store
	{"store.put_allocs", "count", "lower", 0},              // allocations per such Put
	{"store.view_contended_ns", "ns", "lower", 0},          // ViewInto with GOMAXPROCS readers (one, on the benchmark's one core) and one writer on one store
	{"store.heap_bytes_per_entry", "B", "lower", 0},        // HeapAlloc delta after GC ÷ entries loaded
	{"store.put_wal_ns", "ns", "lower", 0},                 // Put on a durable store, fsync os, snapshots off
	{"store.wal_bytes_per_put", "B", "lower", 0},           // WAL growth ÷ puts
	{"store.snapshot_ms", "ms", "lower", 0},                // Store.Snapshot of the loaded durable store
	{"store.snapshot_bytes_per_entry", "B", "lower", 0},    // snapshot file bytes ÷ entries
	{"store.put_p99_during_snapshot_ns", "ns", "lower", 0}, // 99th percentile Put latency while Snapshot runs
	{"store.open_entries_s", "1/s", "higher", 0},           // entries recovered per second by store.Open
	{"store.open_allocs_per_entry", "count", "lower", 0},   // allocations of store.Open ÷ entries recovered

	{"server.raw_rtt_ns", "ns", "lower", 0},                   // median lookup round trip on one raw TCP conn to a node, no client library
	{"server.raw_insert_rtt_ns", "ns", "lower", 0},            // median insert round trip on the raw conn
	{"server.raw_pipelined_ops_s", "1/s", "higher", 0},        // lookups per second with 64 frames in flight on the raw conn
	{"server.raw_batch_ns_per_item", "ns", "lower", 0},        // 64-GUID batch lookup round trip on the raw conn ÷ 64
	{"server.allocs_per_req", "count", "lower", 0},            // allocations per raw lookup against an in-process server.Node
	{"server.conn_setup_us", "us", "lower", 0},                // median dial + hello exchange
	{"server.op.lookup_us.p50", "us", "lower", 0},             // scraped server.op.lookup_us over the timed phases (set-up excluded)
	{"server.op.lookup_us.p99", "us", "lower", 0},             // scraped, same window
	{"server.op.insert_us.p50", "us", "lower", 0},             // scraped server.op.insert_us over the timed phases (set-up excluded)
	{"server.op.insert_us.p99", "us", "lower", 0},             // scraped, same window
	{"server.sheds_conn", "count", "lower", 0},                // scraped delta
	{"server.sheds_global", "count", "lower", 0},              // scraped delta
	{"server.gc_pause_p99_us", "us", "lower", 0},              // scraped runtime.gc_pause_us p99 over the timed phases
	{"server.heap_bytes", "B", "lower", 0},                    // scraped runtime.heap_bytes, sum of nodes, after the timed phases
	{"server.goroutines", "count", "lower", 0},                // scraped runtime.goroutines, sum of nodes
	{"server.repair.sweeps", "count", "lower", 0},             // scraped delta over the run
	{"server.repair.digests_sent", "count", "lower", 0},       // scraped delta over the run
	{"server.repair.entries_pulled", "count", "lower", 0},     // scraped delta over the run
	{"server.repair.entries_pushed", "count", "lower", 0},     // scraped delta over the run
	{"server.repair.backoffs", "count", "lower", 0},           // scraped delta over the run
	{"server.repair.idle_cpu_ms_per_sweep", "ms", "lower", 0}, // restart_heal: node CPU ÷ sweeps while the cluster is in sync
	{"server.repair.idle_bytes_per_sweep", "B", "lower", 0},   // restart_heal: node wchar ÷ sweeps while in sync

	{"client.stub_rtt_ns", "ns", "lower", 0},              // median LookupInto against a bench-owned stub that answers from a canned frame
	{"client.lookup_allocs", "count", "lower", 0},         // allocations per LookupInto against the stub
	{"client.insert_fanout_us", "us", "lower", 0},         // median Insert (K-replica fan-out) against the cluster
	{"client.batch_frames_per_call", "count", "lower", 0}, // frames one 64-GUID LookupBatch sends (client.batch_size count ÷ calls)
	{"client.retries", "count", "lower", 0},               // Cluster.Metrics() over the run, all driver clients
	{"client.failovers", "count", "lower", 0},             // same
	{"client.redials", "count", "lower", 0},               // same
	{"client.sheds", "count", "lower", 0},                 // same
	{"client.timeouts", "count", "lower", 0},              // same
	{"client.residual_ns", "ns", "lower", 0},              // rtt_p50_us − core.place_ns − server.raw_rtt_ns: what the client library adds

	{"metrics.hist_observe_ns", "ns", "lower", 0}, // Histogram.Observe
	{"metrics.snapshot_us", "us", "lower", 0},     // Registry.Snapshot of a node-sized registry
	{"obs.scrape_ms", "ms", "lower", 0},           // median /debug/metrics scrape + strict decode of one node
	{"trace.overhead_pct", "%", "lower", 0},       // ops_s lost when the driver records spans: plain vs traced closed phase

	{"driver.speed_index", "ratio", "higher", 0},   // nominal ÷ measured yardstick cost, mean of the headline phase's readings: what the normalised metrics were scaled by
	{"driver.yardstick_ns", "ns", "lower", 0},      // thread CPU per yardstick iteration (one 32-byte loopback TCP write+read) at that index
	{"driver.late_p50_us", "us", "lower", 0},       // lookup_single: open loop: how late the pacer reached a 1 ms slot, median
	{"driver.late_p99_us", "us", "lower", 0},       // lookup_single: same, 99th percentile
	{"driver.overflow", "count", "lower", 0},       // lookup_single: arrivals refused because 64 were in flight, all rungs
	{"driver.cpu_us_per_op", "us", "lower", 0},     // driver utime+stime ÷ completed ops, traced closed phase
	{"driver.srv_cpu_us_per_op", "us", "lower", 0}, // node CPU ÷ completed ops, same phase, for comparison
	{"driver.ol_p99_us.r1", "us", "lower", 0},      // lookup_single: open-loop p99 from due at rung 1
	{"driver.ol_p99_us.r2", "us", "lower", 0},      // lookup_single: rung 2
	{"driver.ol_p99_us.r3", "us", "lower", 0},      // lookup_single: rung 3
	{"driver.ol_p99_us.r4", "us", "lower", 0},      // lookup_single: rung 4
}

// metricSet collects values by name.
type metricSet map[string]float64

func (m metricSet) set(name string, v float64) { m[name] = v }

// result is the contract's last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultFor selects the defs' metrics from m; a per-layer metric the
// workload does not measure reads 0, a missing end-to-end one is an
// error.
func resultFor(defs []metricDef, m metricSet, strict bool) (map[string]metricValue, error) {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		v, ok := m[d.name]
		if !ok && strict {
			return nil, fmt.Errorf("metric %s was not measured", d.name)
		}
		out[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	return out, nil
}

// printMetrics writes a name/value/unit table of everything measured,
// in definition order, then whatever is left over.
func printMetrics(m metricSet) {
	seen := map[string]bool{}
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			if v, ok := m[d.name]; ok {
				fmt.Printf("  %-38s %16.4f %s\n", d.name, v, d.unit)
				seen[d.name] = true
			}
		}
	}
	var rest []string
	for k := range m {
		if !seen[k] {
			rest = append(rest, k)
		}
	}
	sort.Strings(rest)
	for _, k := range rest {
		fmt.Printf("  %-38s %16.4f\n", k, m[k])
	}
}

// benchmarkFile is BENCHMARK.json as far as this program reads it.
type benchmarkFile struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []benchMetric `json:"end_to_end"`
	PerLayer []benchMetric `json:"per_layer"`
}

type benchMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func readBenchmarkFile(path string) (*benchmarkFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f benchmarkFile
	if err := json.Unmarshal(b, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}
