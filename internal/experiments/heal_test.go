package experiments

import (
	"reflect"
	"testing"

	"dmap/internal/simnet"
)

func healTestConfig() HealConfig {
	return HealConfig{
		NumAS:           80,
		K:               3,
		NumGUIDs:        15,
		GossipIntervals: []simnet.Time{100_000, 1_000_000}, // 100 ms, 1 s
		Seed:            7,
	}
}

func TestRunHealConverges(t *testing.T) {
	res, err := RunHeal(healTestConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cells) != 2 {
		t.Fatalf("cells = %d, want 2", len(res.Cells))
	}
	for _, c := range res.Cells {
		if c.Rounds < 1 {
			t.Errorf("interval %d: converged in %d rounds; the partition left nothing to repair",
				c.GossipInterval, c.Rounds)
		}
		if c.EntriesRepaired == 0 {
			t.Errorf("interval %d: no entries repaired", c.GossipInterval)
		}
		if c.ConvergenceTime < c.GossipInterval {
			t.Errorf("interval %d: convergence time %d shorter than one interval",
				c.GossipInterval, c.ConvergenceTime)
		}
		if c.StaleReads == 0 {
			t.Errorf("interval %d: post-heal probes saw no staleness; the divergence window is not being measured",
				c.GossipInterval)
		}
		if c.Probes != staleProbes {
			t.Errorf("interval %d: probes = %d", c.GossipInterval, c.Probes)
		}
	}
	// A longer gossip interval cannot converge faster: the same number
	// of rounds takes proportionally longer.
	if res.Cells[0].ConvergenceTime > res.Cells[1].ConvergenceTime {
		t.Errorf("convergence not monotone in interval: %d @%d vs %d @%d",
			res.Cells[0].ConvergenceTime, res.Cells[0].GossipInterval,
			res.Cells[1].ConvergenceTime, res.Cells[1].GossipInterval)
	}
	if testing.Verbose() {
		t.Logf("\n%s", res)
	}
}

func TestRunHealDeterministic(t *testing.T) {
	a, err := RunHeal(healTestConfig())
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunHeal(healTestConfig())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("heal sweep not deterministic:\n%s\nvs\n%s", a, b)
	}
}

func TestRunHealValidation(t *testing.T) {
	if _, err := RunHeal(HealConfig{}); err == nil {
		t.Error("empty interval sweep accepted")
	}
	if _, err := RunHeal(HealConfig{GossipIntervals: []simnet.Time{0}}); err == nil {
		t.Error("zero interval accepted")
	}
}
