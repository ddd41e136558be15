package experiments

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"dmap/internal/simnet"
	"dmap/internal/topology"
)

// TestGoldenAtTestScale pins every evaluation driver's rendered output at
// test scale, byte for byte, against testdata/golden/<name>.txt. results/
// is the only other value oracle the drivers have and takes minutes to
// regenerate; the *DeterministicAcrossWorkers tests compare a run with
// itself. The files were written by the drivers of commit 5c8072f (the
// parent of the change that factored the per-source preamble out of
// them) and must not be regenerated to make a later change pass:
// DMAP_WRITE_GOLDEN=1 go test -run TestGoldenAtTestScale ./internal/experiments
// The first exception is commit 8f7783e, which put the hash family on
// one digest per GUID (guid.Hasher): it moved every placement, so it
// rewrote these files and results/ (scripts/results.sh) together with
// the hasher. The second rewrote heal.txt alone, when nodesim's gossip
// became the server's range-complete sweep (core.Sweep) and RunHeal
// began counting every copy as converging, the writers' §III-C local
// copies outside the replica sets included, and ending a round when its
// sweep chains finish: those copies take a second round, so rounds,
// entries repaired and convergence time all moved. The third rewrote
// latency_miss_leasthops.txt, availability.txt and crossval.txt, when
// the closed-form walk became the only one: its misses and losses are
// drawn by a pure function of (seed, lookup, AS, attempt) instead of
// per-unit PRNG streams, it asks each replica AS once, the local lookup
// reads a querier that is itself a replica, and crossval checks four
// configurations instead of one. The fourth rewrote churnsim.txt alone,
// when its lookups became the shipped client's walk over nodesim's link:
// one lookup, from an AS whose round trips to all three replicas take
// 2.41–2.53 s, outlasts the 2 s timeout at each. nodesim's own walk took
// the first replica's late reply as the answer (2,410 ms, retried); the
// client settles an attempt at its timeout, as over TCP, so the lookup
// fails after three. The fifth rewrote availability.txt alone, when the
// closed-form walk began treating an answer that takes the timeout or
// longer as a timeout, as the client does: a lookup from a querier whose
// replicas all answer that late fails at every failure fraction (K = 3
// and 5 at 0% failed read 99.975%, not 100%), and the late attempts
// count as timeouts. The sixth rewrote heal.txt alone, when each
// simulated AS became a server.Node running the TCP node's own sweep: a
// repair push now waits for its ack before the next page, as over TCP,
// where nodesim's gossip messages pushed one-way, so convergence comes
// 163.2 ms later at both intervals; rounds, entries repaired and the
// stale rate did not move. The seventh rewrote update.txt and
// queryload.txt, when the drivers' batch frame model went: each table
// lost its last column, frames(B=8), and nothing else in either moved.
// The eighth rewrote availability.txt alone and deleted crossval.txt,
// when every figure's lookup became the shipped client's walk on
// nodesim's link and the closed-form walk and its cross-check went: the
// client pauses 5–10 ms (client.RetryPolicy.Backoff) before each
// same-replica retry, which the closed form never charged, so each
// cell's mean and added latency rose by a few tenths of a millisecond;
// success, timeouts and failovers did not move, nor did any other file.
// The ninth rewrote heal.txt's stale-rate column alone, when the heal
// experiment's stale-read probe count became a constant: this case had
// asked for 120 probes per cell, and every run now takes the 200 that
// dmapsim always took, so 127 of 200 reads come back stale (63.5%) where
// 74 of 120 did (61.7%); convergence, rounds and repairs did not move.
func TestGoldenAtTestScale(t *testing.T) {
	// A world of its own: TestChurnSim* run RunChurnSim on the shared
	// fixture, which withdraws and announces prefixes in place, so what
	// testWorld holds depends on which tests ran first.
	w, err := NewWorld(TestScale(1000, 7))
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		run  func() (fmt.Stringer, error)
	}{
		{"latency_fig4", func() (fmt.Stringer, error) {
			return RunLatency(w, LatencyConfig{
				Ks: []int{1, 3, 5}, NumGUIDs: 400, NumLookups: 4000, LocalReplica: true, Seed: 21,
			})
		}},
		{"latency_miss_leasthops", func() (fmt.Stringer, error) {
			return RunLatency(w, LatencyConfig{
				Ks: []int{1, 3, 5}, NumGUIDs: 400, NumLookups: 4000, LocalReplica: true,
				MissRate: 0.05, Selection: SelectLeastHops, Seed: 21,
			})
		}},
		{"update", func() (fmt.Stringer, error) {
			return RunUpdate(w, UpdateConfig{Ks: []int{1, 3, 5}, NumUpdates: 2000, Seed: 21})
		}},
		{"queryload", func() (fmt.Stringer, error) {
			return RunQueryLoad(w, QueryLoadConfig{
				Ks: []int{1, 5}, NumGUIDs: 400, NumLookups: 4000, Seed: 21,
			})
		}},
		{"caching", func() (fmt.Stringer, error) {
			return RunCaching(w, CachingConfig{
				K: 3, NumGUIDs: 50, NumLookups: 8000, DurationSec: 600,
				UpdateRatePerSec: 100.0 / 86400,
				TTLs:             []topology.Micros{0, 10_000_000, 600_000_000},
				Seed:             21,
			})
		}},
		{"availability", func() (fmt.Stringer, error) {
			return RunAvailability(w, AvailabilityConfig{
				Ks: []int{1, 3, 5}, FailFracs: []float64{0, 0.05, 0.20},
				NumGUIDs: 400, NumLookups: 4000, Loss: 0.02, Retries: 1, Seed: 21,
			})
		}},
		{"baselines", func() (fmt.Stringer, error) {
			return RunBaselines(w, BaselinesConfig{K: 3, NumGUIDs: 100, NumLookups: 1000, Seed: 21})
		}},
		{"heal", func() (fmt.Stringer, error) {
			return RunHeal(HealConfig{
				NumAS: 80, K: 3, NumGUIDs: 15,
				GossipIntervals: []simnet.Time{100_000, 1_000_000}, Seed: 21,
			})
		}},
		{"load", func() (fmt.Stringer, error) {
			return RunLoad(w, LoadConfig{GUIDCounts: []int{5000, 50000}, K: 5})
		}},
		{"holes", func() (fmt.Stringer, error) { return RunHoles(w, 5, 10, 20000) }},
		// Last: RunChurnSim edits w's prefix table.
		{"churnsim", func() (fmt.Stringer, error) {
			return RunChurnSim(w, ChurnSimConfig{
				K: 3, NumGUIDs: 300, NumLookups: 2000, DurationSec: 120,
				WithdrawPerSec: 0.3, AnnouncePerSec: 0.3, Seed: 21,
			})
		}},
	}
	write := os.Getenv("DMAP_WRITE_GOLDEN") != ""
	for _, c := range cases {
		res, err := c.run()
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		got := res.String()
		path := filepath.Join("testdata", "golden", c.name+".txt")
		if write {
			if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if got != string(want) {
			t.Errorf("%s: output moved\n--- got\n%s--- want\n%s", c.name, got, want)
		}
	}
}
