package main

import (
	"fmt"
	"runtime"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// The sandbox's speed on kernel paths drifts by ±25 % in spells that
// last as long as a run (README, "Why the bounded metrics are
// normalised"), and everything a loopback cluster does is a kernel
// path. So a closed phase stops its workers every gateWork, times a
// yardstick — a fixed piece of work that no change to the repository
// can touch — and reports its timed metrics both as measured and scaled
// to the speed the yardstick ran at.

const (
	// gateWork is how long the workers run between two yardstick readings,
	// gateYard how long one reading takes.
	gateWork = 400 * time.Millisecond
	gateYard = 15 * time.Millisecond
	// yardNominalNS is what one yardstick iteration costs on this sandbox
	// in a quiet spell. It only fixes the scale of the normalised metrics:
	// at a speed index of 1 they equal the measured ones.
	yardNominalNS = 4100
	// yardBurst iterations run between two looks at the clock.
	yardBurst = 100
)

// yardstick is one 32-byte write and read over a loopback TCP
// connection whose two ends this thread holds: the system calls, socket
// buffers and loopback delivery a request costs, with no second process,
// no scheduler and none of the repository's code.
type yardstick struct {
	a, b int
	buf  [32]byte
}

func newYardstick() (*yardstick, error) {
	ln, err := syscall.Socket(syscall.AF_INET, syscall.SOCK_STREAM, 0)
	if err != nil {
		return nil, fmt.Errorf("yardstick: %w", err)
	}
	defer syscall.Close(ln)
	if err := syscall.Bind(ln, &syscall.SockaddrInet4{Addr: [4]byte{127, 0, 0, 1}}); err != nil {
		return nil, fmt.Errorf("yardstick bind: %w", err)
	}
	if err := syscall.Listen(ln, 1); err != nil {
		return nil, fmt.Errorf("yardstick listen: %w", err)
	}
	sa, err := syscall.Getsockname(ln)
	if err != nil {
		return nil, fmt.Errorf("yardstick: %w", err)
	}
	a, err := syscall.Socket(syscall.AF_INET, syscall.SOCK_STREAM, 0)
	if err != nil {
		return nil, fmt.Errorf("yardstick: %w", err)
	}
	if err := syscall.Connect(a, sa); err != nil {
		syscall.Close(a)
		return nil, fmt.Errorf("yardstick connect: %w", err)
	}
	b, _, err := syscall.Accept(ln)
	if err != nil {
		syscall.Close(a)
		return nil, fmt.Errorf("yardstick accept: %w", err)
	}
	_ = syscall.SetsockoptInt(a, syscall.IPPROTO_TCP, syscall.TCP_NODELAY, 1)
	return &yardstick{a: a, b: b}, nil
}

func (y *yardstick) close() {
	syscall.Close(y.a)
	syscall.Close(y.b)
}

// threadCPU is the CPU time the calling OS thread has used. Timing the
// yardstick by it, not by the wall clock, keeps a node's background
// work (gossip, snapshots) that preempts the yardstick out of the
// reading; the caller holds its OS thread.
func threadCPU() time.Duration {
	const clockThreadCPUTimeID = 3
	var ts syscall.Timespec
	syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0)
	return time.Duration(ts.Nano())
}

// measure runs the yardstick for about d of wall time and returns the
// thread CPU nanoseconds one iteration cost and the CPU time it used.
func (y *yardstick) measure(d time.Duration) (nsPerIter float64, used time.Duration, err error) {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	iters := 0
	t0, c0 := time.Now(), threadCPU()
	for time.Since(t0) < d {
		for k := 0; k < yardBurst; k++ {
			if _, err := syscall.Write(y.a, y.buf[:]); err != nil {
				return 0, 0, fmt.Errorf("yardstick write: %w", err)
			}
			if n, err := syscall.Read(y.b, y.buf[:]); err != nil || n != len(y.buf) {
				return 0, 0, fmt.Errorf("yardstick read: %d bytes, %v", n, err)
			}
		}
		iters += yardBurst
	}
	used = threadCPU() - c0
	return float64(used) / float64(iters), used, nil
}

// gate paces one closed phase: workers hold it shared around each call,
// the controller takes it exclusively — which waits for the calls in
// flight and holds back new ones — to time the yardstick.
type gate struct {
	mu sync.RWMutex

	y    *yardstick
	stop chan struct{}
	over chan struct{}

	// Written by the controller, read after over is closed.
	workS   float64       // seconds the workers ran
	yardCPU time.Duration // driver CPU the readings used
	yardNS  []float64     // one reading per pause
	err     error
}

func startGate(y *yardstick) *gate {
	g := &gate{y: y, stop: make(chan struct{}), over: make(chan struct{})}
	go g.control()
	return g
}

func (g *gate) control() {
	defer close(g.over)
	tick := time.NewTimer(gateWork)
	defer tick.Stop()
	for {
		t0 := time.Now()
		stopped := false
		select {
		case <-g.stop:
			stopped = true
		case <-tick.C:
		}
		g.mu.Lock()
		g.workS += time.Since(t0).Seconds()
		ns, used, err := g.y.measure(gateYard)
		g.yardCPU += used
		g.mu.Unlock()
		if err != nil {
			g.err = err
			return
		}
		g.yardNS = append(g.yardNS, ns)
		if stopped {
			return
		}
		tick.Reset(gateWork)
	}
}

// finish stops the controller after a last reading and returns the
// phase's speed index: the mean over the readings of nominal ÷ measured
// yardstick cost, the mean because the ops a phase completes add up
// over its windows in proportion to the speed of each.
func (g *gate) finish() (speed float64, err error) {
	close(g.stop)
	<-g.over
	if g.err != nil {
		return 0, g.err
	}
	for _, ns := range g.yardNS {
		speed += yardNominalNS / ns
	}
	return speed / float64(len(g.yardNS)), nil
}
