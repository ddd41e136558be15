package simnet

import (
	"fmt"
	"runtime"
	"slices"
	"testing"
	"time"

	"dmap/internal/topology"
)

func TestSchedulingOrder(t *testing.T) {
	s := New()
	var got []int
	if err := s.At(30, func() { got = append(got, 3) }); err != nil {
		t.Fatal(err)
	}
	if err := s.At(10, func() { got = append(got, 1) }); err != nil {
		t.Fatal(err)
	}
	if err := s.At(20, func() { got = append(got, 2) }); err != nil {
		t.Fatal(err)
	}
	if n := s.Run(0); n != 3 {
		t.Fatalf("Run executed %d events", n)
	}
	if got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Errorf("execution order %v", got)
	}
	if s.Now() != 30 {
		t.Errorf("Now = %d, want 30", s.Now())
	}
}

func TestFIFOAmongEqualTimestamps(t *testing.T) {
	s := New()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		if err := s.At(5, func() { got = append(got, i) }); err != nil {
			t.Fatal(err)
		}
	}
	s.Run(0)
	for i, v := range got {
		if v != i {
			t.Fatalf("same-time events reordered: %v", got)
		}
	}
}

func TestSchedulingInPastRejected(t *testing.T) {
	s := New()
	if err := s.At(10, func() {}); err != nil {
		t.Fatal(err)
	}
	s.Run(0)
	if err := s.At(5, func() {}); err == nil {
		t.Error("scheduling in the past should fail")
	}
	if err := s.After(-1, func() {}); err == nil {
		t.Error("negative delay should fail")
	}
}

func TestNestedScheduling(t *testing.T) {
	s := New()
	var fired []Time
	if err := s.At(10, func() {
		fired = append(fired, s.Now())
		if err := s.After(5, func() { fired = append(fired, s.Now()) }); err != nil {
			t.Error(err)
		}
	}); err != nil {
		t.Fatal(err)
	}
	s.Run(0)
	if len(fired) != 2 || fired[0] != 10 || fired[1] != 15 {
		t.Errorf("fired = %v", fired)
	}
}

func TestRunMaxEvents(t *testing.T) {
	s := New()
	count := 0
	var reschedule func()
	reschedule = func() {
		count++
		_ = s.After(1, reschedule)
	}
	_ = s.After(1, reschedule)
	if n := s.Run(100); n != 100 {
		t.Errorf("Run(100) executed %d", n)
	}
	if count != 100 {
		t.Errorf("count = %d", count)
	}
	if !s.Step() || count != 101 {
		t.Error("reschedule chain should still be pending")
	}
}

func TestRunUntil(t *testing.T) {
	s := New()
	var fired []Time
	for _, at := range []Time{5, 10, 15, 20} {
		at := at
		_ = s.At(at, func() { fired = append(fired, at) })
	}
	if n := s.RunUntil(12); n != 2 {
		t.Errorf("RunUntil executed %d, want 2", n)
	}
	if s.Now() != 12 {
		t.Errorf("Now = %d, want 12 (clock advanced to deadline)", s.Now())
	}
	s.Run(0)
	if len(fired) != 4 {
		t.Errorf("fired %v", fired)
	}
}

// TestProcsInterleaveInVirtualTime: processes block in virtual time and
// interleave only where they park, the clock moving only while every one
// is parked, and none outlives its function.
func TestProcsInterleaveInVirtualTime(t *testing.T) {
	s := New()
	before := runtime.NumGoroutine()
	var log []string
	sleep := func(d Time) {
		p := s.Running()
		if err := s.After(d, p.Wake); err != nil {
			t.Error(err)
		}
		p.Park()
	}
	for i, d := range []Time{30, 10} {
		name := string(rune('a' + i))
		if err := s.Go(5, func() {
			log = append(log, fmt.Sprintf("%s@%d", name, s.Now()))
			sleep(d)
			log = append(log, fmt.Sprintf("%s@%d", name, s.Now()))
		}); err != nil {
			t.Fatal(err)
		}
	}
	s.Run(0)
	if want := []string{"a@5", "b@5", "b@15", "a@35"}; !slices.Equal(log, want) {
		t.Errorf("log %v, want %v", log, want)
	}
	if s.Running() != nil {
		t.Error("a process still running after Run")
	}
	for deadline := time.Now().Add(time.Second); runtime.NumGoroutine() > before && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond) // an ended process's goroutine exits just after its last hand-off
	}
	if got := runtime.NumGoroutine(); got > before {
		t.Errorf("%d goroutines after the run, %d before", got, before)
	}
}

// pairOracle returns fixed latencies: 100 µs between distinct nodes,
// 10 µs within a node.
type pairOracle struct{}

func (pairOracle) OneWay(src, dst int) topology.Micros {
	if src == dst {
		return 10
	}
	return 100
}

func TestNetworkDelivery(t *testing.T) {
	s := New()
	net, err := NewNetwork(s, pairOracle{}, 3)
	if err != nil {
		t.Fatal(err)
	}
	type rx struct {
		at  Time
		msg Message
	}
	var got []rx
	for i := 0; i < 3; i++ {
		if err := net.Bind(i, HandlerFunc(func(n *Network, m Message) {
			got = append(got, rx{at: s.Now(), msg: m})
		})); err != nil {
			t.Fatal(err)
		}
	}
	if err := net.Send(0, 1, "hello"); err != nil {
		t.Fatal(err)
	}
	if err := net.Send(2, 2, "self"); err != nil {
		t.Fatal(err)
	}
	s.Run(0)
	if len(got) != 2 {
		t.Fatalf("received %d messages", len(got))
	}
	// Self-message (10 µs) arrives before the remote one (100 µs).
	if got[0].msg.Payload != "self" || got[0].at != 10 {
		t.Errorf("first delivery = %+v", got[0])
	}
	if got[1].msg.Payload != "hello" || got[1].at != 100 {
		t.Errorf("second delivery = %+v", got[1])
	}
	if got[1].msg.From != 0 || got[1].msg.To != 1 {
		t.Errorf("message metadata = %+v", got[1].msg)
	}
}

func TestNetworkValidation(t *testing.T) {
	s := New()
	if _, err := NewNetwork(nil, pairOracle{}, 1); err == nil {
		t.Error("nil sim should fail")
	}
	if _, err := NewNetwork(s, nil, 1); err == nil {
		t.Error("nil oracle should fail")
	}
	if _, err := NewNetwork(s, pairOracle{}, 0); err == nil {
		t.Error("0 nodes should fail")
	}
	net, err := NewNetwork(s, pairOracle{}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := net.Bind(5, nil); err == nil {
		t.Error("out-of-range bind should fail")
	}
	if err := net.Send(0, 7, nil); err == nil {
		t.Error("out-of-range send should fail")
	}
}

func TestNetworkDropsToUnbound(t *testing.T) {
	s := New()
	net, err := NewNetwork(s, pairOracle{}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := net.Send(0, 1, "void"); err != nil {
		t.Fatal(err)
	}
	if s.Run(0) != 1 {
		t.Error("the delivery to an unbound node did not run")
	}
}
