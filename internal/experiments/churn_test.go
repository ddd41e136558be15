package experiments

import (
	"bytes"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"
)

func TestChurnSimValidation(t *testing.T) {
	w := testWorld(t)
	if _, err := RunChurnSim(w, ChurnSimConfig{}); err == nil {
		t.Error("zero config should fail")
	}
}

func TestChurnSimNoLostLookups(t *testing.T) {
	w := testWorld(t)
	res, err := RunChurnSim(w, ChurnSimConfig{
		K:              5,
		NumGUIDs:       300,
		NumLookups:     2000,
		DurationSec:    120,
		WithdrawPerSec: 0.5, // ~60 withdrawals across the window
		AnnouncePerSec: 0.5,
		Seed:           12,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Withdrawals == 0 {
		t.Fatal("no withdrawals applied; churn not exercised")
	}
	// K=5 replication plus §III-D1 migration must keep every mapping
	// resolvable through live churn.
	if res.Failures != 0 {
		t.Errorf("%d/%d lookups failed under churn", res.Failures, res.Lookups)
	}
	if res.Latency.N != res.Lookups {
		t.Errorf("latency samples = %d, want %d", res.Latency.N, res.Lookups)
	}
	if res.Latency.Mean <= 0 {
		t.Error("latency must be positive")
	}
	if !strings.Contains(res.String(), "withdrawals") {
		t.Error("String output")
	}
}

func TestChurnSimK1StillResolvesWithMigration(t *testing.T) {
	// Even without replica redundancy the migration protocol alone must
	// preserve resolvability: the withdrawn replica's mappings move to
	// the deputy that rehashing reaches.
	w := testWorld(t)
	res, err := RunChurnSim(w, ChurnSimConfig{
		K:              1,
		NumGUIDs:       200,
		NumLookups:     1000,
		DurationSec:    60,
		WithdrawPerSec: 0.5,
		AnnouncePerSec: 0,
		Seed:           13,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Withdrawals == 0 {
		t.Fatal("no withdrawals")
	}
	if res.Failures != 0 {
		t.Errorf("%d lookups failed with K=1 + migration", res.Failures)
	}
}

func TestChurnSimConsistentAfterRepair(t *testing.T) {
	w := testWorld(t)
	res, err := RunChurnSim(w, ChurnSimConfig{
		K:              3,
		NumGUIDs:       200,
		NumLookups:     500,
		DurationSec:    60,
		WithdrawPerSec: 0.3,
		AnnouncePerSec: 0.3,
		Seed:           15,
	})
	if err != nil {
		t.Fatal(err)
	}
	// After withdrawal migration and the announce-repair sweep, the
	// deployment must satisfy every placement invariant.
	if res.Consistency.MissingReplicas != 0 {
		t.Errorf("missing replicas after churn settles: %v", res.Consistency)
	}
	if res.Consistency.VersionSkews != 0 {
		t.Errorf("version skews after churn: %v", res.Consistency)
	}
}

// TestChurnSimRepeatsOnTheLink: churnsim's lookups are the shipped
// client's walks, each a simnet process, concurrent in virtual time with
// the others and with churn. Two runs agree exactly, and every process
// has ended when a run returns: no more goroutines than before (one an
// earlier test left may exit meanwhile), and none inside simnet.
func TestChurnSimRepeatsOnTheLink(t *testing.T) {
	before := runtime.NumGoroutine()
	run := func() *ChurnSimResult {
		w, err := NewWorld(TestScale(500, 7))
		if err != nil {
			t.Fatal(err)
		}
		res, err := RunChurnSim(w, ChurnSimConfig{
			K: 3, NumGUIDs: 300, NumLookups: 2000, DurationSec: 60,
			WithdrawPerSec: 0.3, AnnouncePerSec: 0.3, Seed: 5, Workers: 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	if a, b := run(), run(); !reflect.DeepEqual(a, b) {
		t.Errorf("two runs differ:\n%v\n%v", a, b)
	}
	// A frame in simnet's source, by file: a process's own frames inline
	// into the caller's symbol names.
	inSimnet := func() []byte { // the first stack holding a simnet frame
		buf := make([]byte, 1<<20)
		for _, g := range bytes.Split(buf[:runtime.Stack(buf, true)], []byte("\n\n")) {
			if bytes.Contains(g, []byte("/internal/simnet/")) {
				return g
			}
		}
		return nil
	}
	for deadline := time.Now().Add(time.Second); (runtime.NumGoroutine() > before || inSimnet() != nil) && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond) // an ended process's goroutine exits just after its last hand-off
	}
	if got := runtime.NumGoroutine(); got > before {
		t.Errorf("%d goroutines after two runs, %d before", got, before)
	}
	if g := inSimnet(); g != nil {
		t.Errorf("a simnet process outlived its run:\n%s", g)
	}
}
