// Package simnet is the discrete-event engine behind the paper's
// "detailed discrete-event simulation" (§IV-B1): a virtual clock, an
// event heap, processes that block in virtual time, and a
// message-passing network whose delivery delays come from the AS-level
// topology.
//
// The engine is deliberately single-threaded: handlers — and processes,
// each on a goroutine of its own but handed the run one at a time — run
// in timestamp order, which makes protocol races (mobility updates vs.
// in-flight queries, churn vs. lookups) reproducible bit-for-bit.
package simnet

import (
	"fmt"

	"dmap/internal/topology"
)

// Time is simulated time in microseconds since the start of the run.
type Time = topology.Micros

// Sim is a discrete-event scheduler. The zero value is not usable; call
// New.
type Sim struct {
	now    Time
	events eventHeap
	seq    uint64 // tie-break: FIFO among same-timestamp events
	cur    *Proc  // the process running, nil while events do
	parked chan struct{}
}

// New returns an empty simulation at time zero.
func New() *Sim {
	return &Sim{parked: make(chan struct{})}
}

// Proc is a process: a function started by Go, on a goroutine of its
// own, that may block in virtual time.
type Proc struct {
	s      *Sim
	resume chan struct{}
}

// Go schedules fn to run at time t as a process, so that it may block —
// Park — while the simulation runs around it. Exactly one goroutine runs
// at a time: the event that starts or wakes a process hands it the run
// and waits until it parks again or ends. The clock therefore advances
// only while every process is parked, and a run is as reproducible as
// one of plain handlers. A process must not step the simulator.
func (s *Sim) Go(t Time, fn func()) error {
	return s.At(t, func() {
		p := &Proc{s: s, resume: make(chan struct{})}
		go func() {
			<-p.resume
			fn()
			s.parked <- struct{}{}
		}()
		p.Wake()
	})
}

// Running returns the process running now, nil when the goroutine
// stepping the simulator is.
func (s *Sim) Running() *Proc { return s.cur }

// Park hands the run back from p, which is running, until an event
// wakes it.
func (p *Proc) Park() {
	p.s.parked <- struct{}{}
	<-p.resume
}

// Wake runs the parked process p until it parks again or ends. Call it
// from an event.
func (p *Proc) Wake() {
	p.s.cur = p
	p.resume <- struct{}{}
	<-p.s.parked
	p.s.cur = nil
}

// Now returns the current virtual time.
func (s *Sim) Now() Time { return s.now }

// At schedules fn to run at absolute time t. Scheduling in the past is an
// error: the causality violation would silently reorder the run.
func (s *Sim) At(t Time, fn func()) error {
	if t < s.now {
		return fmt.Errorf("simnet: scheduling at %d before now %d", t, s.now)
	}
	s.seq++
	s.events.push(event{at: t, seq: s.seq, fn: fn})
	return nil
}

// After schedules fn to run d after the current time. Negative delays are
// rejected.
func (s *Sim) After(d Time, fn func()) error {
	return s.At(s.now+d, fn)
}

// Step runs the earliest pending event, reporting whether one existed.
func (s *Sim) Step() bool {
	if len(s.events.items) == 0 {
		return false
	}
	ev := s.events.pop()
	s.now = ev.at
	ev.fn()
	return true
}

// Run drains the event queue. maxEvents bounds runaway protocols
// (<= 0 means unlimited); it returns the number of events executed.
func (s *Sim) Run(maxEvents int) int {
	n := 0
	for s.Step() {
		n++
		if maxEvents > 0 && n >= maxEvents {
			break
		}
	}
	return n
}

// RunUntil executes events with timestamps ≤ deadline, then advances the
// clock to the deadline. It returns the number of events executed.
func (s *Sim) RunUntil(deadline Time) int {
	n := 0
	for len(s.events.items) > 0 && s.events.items[0].at <= deadline {
		s.Step()
		n++
	}
	if s.now < deadline {
		s.now = deadline
	}
	return n
}

type event struct {
	at  Time
	seq uint64
	fn  func()
}

// eventHeap is a typed binary min-heap ordered by (at, seq): earliest
// timestamp first, FIFO among equal timestamps. Hand-rolled to keep the
// event loop free of container/heap's per-push interface allocation.
type eventHeap struct {
	items []event
}

func (h *eventHeap) less(i, j int) bool {
	if h.items[i].at != h.items[j].at {
		return h.items[i].at < h.items[j].at
	}
	return h.items[i].seq < h.items[j].seq
}

func (h *eventHeap) push(ev event) {
	h.items = append(h.items, ev)
	i := len(h.items) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(i, parent) {
			break
		}
		h.items[parent], h.items[i] = h.items[i], h.items[parent]
		i = parent
	}
}

func (h *eventHeap) pop() event {
	top := h.items[0]
	last := len(h.items) - 1
	h.items[0] = h.items[last]
	h.items[last] = event{} // release the closure for GC
	h.items = h.items[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < last && h.less(l, smallest) {
			smallest = l
		}
		if r < last && h.less(r, smallest) {
			smallest = r
		}
		if smallest == i {
			return top
		}
		h.items[i], h.items[smallest] = h.items[smallest], h.items[i]
		i = smallest
	}
}

// LatencyOracle supplies one-way message latencies between ASs.
// topology.DistCache satisfies it.
type LatencyOracle interface {
	OneWay(src, dst int) topology.Micros
}

// Handler consumes messages addressed to one AS-node.
type Handler interface {
	HandleMessage(net *Network, msg Message)
}

// HandlerFunc adapts a function to Handler.
type HandlerFunc func(net *Network, msg Message)

// HandleMessage calls f.
func (f HandlerFunc) HandleMessage(net *Network, msg Message) { f(net, msg) }

// Message is a network datagram between AS-nodes.
type Message struct {
	From    int
	To      int
	Payload interface{}
}

// Network delivers messages between registered handlers with
// topology-derived delays on a Sim clock.
type Network struct {
	sim    *Sim
	oracle LatencyOracle
	nodes  []Handler
	faults *faultState // nil = fault-free (see faults.go)
}

// NewNetwork wires a network of n AS-nodes onto sim.
func NewNetwork(sim *Sim, oracle LatencyOracle, n int) (*Network, error) {
	if sim == nil || oracle == nil {
		return nil, fmt.Errorf("simnet: nil sim or oracle")
	}
	if n <= 0 {
		return nil, fmt.Errorf("simnet: node count must be positive, got %d", n)
	}
	return &Network{sim: sim, oracle: oracle, nodes: make([]Handler, n)}, nil
}

// Bind installs the handler for AS-node id.
func (n *Network) Bind(id int, h Handler) error {
	if id < 0 || id >= len(n.nodes) {
		return fmt.Errorf("simnet: node id %d out of range [0,%d)", id, len(n.nodes))
	}
	n.nodes[id] = h
	return nil
}

// Sim returns the underlying scheduler (for timeouts and custom events).
func (n *Network) Sim() *Sim { return n.sim }

// Send schedules delivery of payload from AS from to AS to after the
// topology's one-way latency. Messages to unbound nodes are dropped (a
// crashed router, §III-D3). With a fault plan installed (SetFaults),
// loss, partitions and a crashed sender kill the message at send time,
// extra delay and jitter stretch the latency, and a crashed receiver
// loses it at delivery time.
func (n *Network) Send(from, to int, payload interface{}) error {
	if from < 0 || from >= len(n.nodes) || to < 0 || to >= len(n.nodes) {
		return fmt.Errorf("simnet: send %d→%d out of range", from, to)
	}
	delay := n.oracle.OneWay(from, to)
	if n.faults != nil {
		extra, drop := n.faults.outcome(n.sim.now, from, to)
		if drop {
			return nil
		}
		delay += extra
	}
	return n.sim.After(delay, func() {
		if n.faults != nil && n.faults.down(to, n.sim.now) {
			n.faults.stats.CrashDrops++
			return
		}
		if h := n.nodes[to]; h != nil {
			h.HandleMessage(n, Message{From: from, To: to, Payload: payload})
		}
	})
}
