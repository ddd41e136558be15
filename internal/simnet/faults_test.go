package simnet

import (
	"testing"
)

// deliverAll binds counting handlers on every node of a fresh network.
func faultNet(t *testing.T, n int) (*Sim, *Network, []int) {
	t.Helper()
	s := New()
	net, err := NewNetwork(s, pairOracle{}, n)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]int, n)
	for i := 0; i < n; i++ {
		i := i
		if err := net.Bind(i, HandlerFunc(func(*Network, Message) { got[i]++ })); err != nil {
			t.Fatal(err)
		}
	}
	return s, net, got
}

func TestFaultPlanValidate(t *testing.T) {
	cases := []FaultPlan{
		{Loss: -0.1},
		{Loss: 1.0},
		{ExtraDelay: -1},
		{Jitter: -1},
		{Links: []LinkFault{{From: 0, To: 9}}},
		{Links: []LinkFault{{From: 0, To: 1, Loss: 2}}},
		{Crashes: []CrashWindow{{Node: -1}}},
		{Partitions: []Partition{{Group: []int{7}}}},
	}
	_, net, _ := faultNet(t, 3)
	for i, p := range cases {
		p := p
		if err := net.SetFaults(&p); err == nil {
			t.Errorf("case %d: invalid plan accepted: %+v", i, p)
		}
	}
	if err := net.SetFaults(&FaultPlan{Loss: 0.5, Jitter: 10}); err != nil {
		t.Fatalf("valid plan rejected: %v", err)
	}
	if err := net.SetFaults(nil); err != nil {
		t.Fatalf("removing plan: %v", err)
	}
}

func TestLossIsSeededAndDeterministic(t *testing.T) {
	run := func(seed int64) (delivered int, stats FaultStats) {
		s, net, got := faultNet(t, 2)
		if err := net.SetFaults(&FaultPlan{Seed: seed, Loss: 0.3}); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 1000; i++ {
			if err := net.Send(0, 1, i); err != nil {
				t.Fatal(err)
			}
		}
		s.Run(0)
		return got[1], net.FaultStats()
	}
	d1, st1 := run(42)
	d2, st2 := run(42)
	if d1 != d2 || st1 != st2 {
		t.Errorf("same seed diverged: %d/%+v vs %d/%+v", d1, st1, d2, st2)
	}
	if st1.Lost == 0 || d1 == 0 {
		t.Errorf("expected both losses and deliveries, got lost=%d delivered=%d", st1.Lost, d1)
	}
	if d1+st1.Lost != 1000 {
		t.Errorf("delivered %d + lost %d != 1000", d1, st1.Lost)
	}
	// A 30% loss rate over 1000 sends lands nowhere near the tails.
	if st1.Lost < 200 || st1.Lost > 400 {
		t.Errorf("lost %d of 1000 at p=0.3", st1.Lost)
	}
	d3, _ := run(43)
	if d3 == d1 {
		t.Log("different seeds happened to deliver the same count (possible but unlikely)")
	}
}

func TestExtraDelayAndJitterStretchLatency(t *testing.T) {
	s, net, got := faultNet(t, 2)
	if err := net.SetFaults(&FaultPlan{Seed: 7, ExtraDelay: 500, Jitter: 100}); err != nil {
		t.Fatal(err)
	}
	var arrival Time
	if err := net.Bind(1, HandlerFunc(func(*Network, Message) { arrival = s.Now() })); err != nil {
		t.Fatal(err)
	}
	if err := net.Send(0, 1, "x"); err != nil {
		t.Fatal(err)
	}
	s.Run(0)
	_ = got
	// Base pairOracle latency is 100 µs; the plan adds 500 + [0, 100].
	if arrival < 600 || arrival > 700 {
		t.Errorf("arrival at %d, want within [600, 700]", arrival)
	}
}

func TestCrashWindowDropsAndRecovers(t *testing.T) {
	s, net, got := faultNet(t, 2)
	if err := net.SetFaults(&FaultPlan{
		Crashes: []CrashWindow{{Node: 1, From: 1000, Until: 5000}},
	}); err != nil {
		t.Fatal(err)
	}
	// Delivered before the window opens (sent at 0, arrives at 100).
	if err := net.Send(0, 1, "early"); err != nil {
		t.Fatal(err)
	}
	// Sent before the window but arriving inside it: lost in flight.
	if err := s.At(950, func() { _ = net.Send(0, 1, "in-flight") }); err != nil {
		t.Fatal(err)
	}
	// Sent inside the window: receiver down at delivery too.
	if err := s.At(2000, func() { _ = net.Send(0, 1, "down") }); err != nil {
		t.Fatal(err)
	}
	// Sent by the crashed node: suppressed at send time.
	if err := s.At(2000, func() { _ = net.Send(1, 0, "from-dead") }); err != nil {
		t.Fatal(err)
	}
	// After recovery: delivered again.
	if err := s.At(5000, func() { _ = net.Send(0, 1, "late") }); err != nil {
		t.Fatal(err)
	}
	s.Run(0)
	if got[1] != 2 {
		t.Errorf("node 1 received %d messages, want 2 (early + late)", got[1])
	}
	if got[0] != 0 {
		t.Errorf("node 0 received %d messages from a crashed sender", got[0])
	}
	if st := net.FaultStats(); st.CrashDrops != 3 {
		t.Errorf("crash drops = %d, want 3", st.CrashDrops)
	}
	if !net.NodeDown(1, 1000) || net.NodeDown(1, 5000) || net.NodeDown(1, 999) {
		t.Error("NodeDown window edges wrong")
	}
}

func TestCrashWindowForever(t *testing.T) {
	_, net, _ := faultNet(t, 2)
	if err := net.SetFaults(&FaultPlan{Crashes: []CrashWindow{{Node: 0, From: 10}}}); err != nil {
		t.Fatal(err)
	}
	if net.NodeDown(0, 9) {
		t.Error("down before window")
	}
	if !net.NodeDown(0, 1<<40) {
		t.Error("Until ≤ From should mean forever")
	}
}

func TestPartitionSeversGroups(t *testing.T) {
	s, net, got := faultNet(t, 4)
	if err := net.SetFaults(&FaultPlan{
		Partitions: []Partition{{From: 0, Until: 1000, Group: []int{0, 1}}},
	}); err != nil {
		t.Fatal(err)
	}
	// Within a side: delivered. Across sides: dropped.
	if err := net.Send(0, 1, "same-side"); err != nil {
		t.Fatal(err)
	}
	if err := net.Send(2, 3, "other-side"); err != nil {
		t.Fatal(err)
	}
	if err := net.Send(0, 2, "cross"); err != nil {
		t.Fatal(err)
	}
	if err := net.Send(3, 1, "cross-back"); err != nil {
		t.Fatal(err)
	}
	// After healing, cross traffic flows.
	if err := s.At(1000, func() { _ = net.Send(0, 2, "healed") }); err != nil {
		t.Fatal(err)
	}
	s.Run(0)
	if got[1] != 1 || got[3] != 1 || got[2] != 1 {
		t.Errorf("deliveries = %v, want node1=1 node2=1 node3=1", got)
	}
	if st := net.FaultStats(); st.PartitionDrops != 2 {
		t.Errorf("partition drops = %d, want 2", st.PartitionDrops)
	}
}

func TestPerLinkFaultOverridesGlobals(t *testing.T) {
	s, net, got := faultNet(t, 3)
	// Global: lossless. Link 0→1: always... p<1 required, so 0.999
	// effectively kills it with the chosen seed; instead use delay to
	// verify the override path deterministically.
	if err := net.SetFaults(&FaultPlan{
		ExtraDelay: 10,
		Links:      []LinkFault{{From: 0, To: 1, ExtraDelay: 9000}},
	}); err != nil {
		t.Fatal(err)
	}
	var at1, at2 Time
	_ = net.Bind(1, HandlerFunc(func(*Network, Message) { at1 = s.Now() }))
	_ = net.Bind(2, HandlerFunc(func(*Network, Message) { at2 = s.Now() }))
	_ = net.Send(0, 1, "slow")
	_ = net.Send(0, 2, "fast")
	s.Run(0)
	_ = got
	if at1 != 9100 {
		t.Errorf("overridden link arrived at %d, want 9100", at1)
	}
	if at2 != 110 {
		t.Errorf("global link arrived at %d, want 110", at2)
	}
}

func TestSetFaultsResetsStats(t *testing.T) {
	s, net, _ := faultNet(t, 2)
	if err := net.SetFaults(&FaultPlan{Crashes: []CrashWindow{{Node: 1, From: 0}}}); err != nil {
		t.Fatal(err)
	}
	_ = net.Send(0, 1, "x")
	s.Run(0)
	if st := net.FaultStats(); st.CrashDrops != 1 {
		t.Fatalf("crash drops = %d", st.CrashDrops)
	}
	if err := net.SetFaults(&FaultPlan{}); err != nil {
		t.Fatal(err)
	}
	if st := net.FaultStats(); st != (FaultStats{}) {
		t.Errorf("stats not reset: %+v", st)
	}
}
