package client

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"dmap/internal/store"
)

// TestLookupsOutliveASpinningGoroutine: on one P, a goroutine that spins
// for 500 ms without a syscall does not stall a TCP node and a client
// looking up beside it. Connection reads and writes are raw syscalls
// (wire's sock_linux.go), which never enter the runtime's syscall path
// and so never wake its sysmon thread; the spinner is preempted anyway,
// because sysmon stays awake while a P is running, and the lookups keep
// completing.
func TestLookupsOutliveASpinningGoroutine(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	c, _ := testCluster(t, 4, 1)
	e := clusterEntry("beside-a-spinner", 1)
	if _, err := c.Insert(e); err != nil {
		t.Fatal(err)
	}
	var got store.Entry
	got.NAs = make([]store.NA, 0, store.MaxNAs)
	if err := c.LookupInto(e.GUID, &got); err != nil { // warm the connection
		t.Fatal(err)
	}

	const spin = 500 * time.Millisecond
	var spinning atomic.Bool
	spinning.Store(true)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for start := time.Now(); time.Since(start) < spin; {
		}
		spinning.Store(false)
	}()
	runtime.Gosched() // the spinner takes the P

	lookups, worst := 0, time.Duration(0)
	for spinning.Load() {
		began := time.Now()
		if err := c.LookupInto(e.GUID, &got); err != nil {
			t.Fatal(err)
		}
		if spinning.Load() {
			lookups++
			worst = max(worst, time.Since(began))
		}
	}
	<-done
	t.Logf("%d lookups completed while a goroutine spun for %v; the slowest took %v", lookups, spin, worst)
	if lookups < 2 {
		t.Fatalf("%d lookups completed while a goroutine spun for %v, want at least 2", lookups, spin)
	}
}
