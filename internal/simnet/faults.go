// Fault injection for the discrete-event network: a declarative,
// seedable plan of packet loss, added delay and jitter, node crash
// windows, and AS-level partitions. The plan is compiled once and
// consulted on every Send, so a run with a fixed seed and fixed event
// order stays bit-reproducible — the property every determinism test in
// internal/experiments leans on.
//
// The fault model follows §III-D3 of the paper: a crashed mapping node
// consumes requests without answering (the querier's timeout is its only
// signal), a lossy or partitioned link looks identical to a crash from
// the sender's side, and recovery is silent (late messages to a revived
// node are delivered).
package simnet

import (
	"fmt"
	"math/rand"
	"sort"
)

// CrashWindow takes one node down for [From, Until). Until ≤ From means
// the node never recovers. Messages already in flight toward the node
// are lost if they would arrive inside the window (delivery-time check);
// messages sent by a crashed node are suppressed at send time.
type CrashWindow struct {
	Node  int
	From  Time
	Until Time
}

// Partition splits the network for [From, Until): nodes in Group cannot
// exchange messages with nodes outside it while the window is open.
// Until ≤ From means the partition never heals.
type Partition struct {
	From  Time
	Until Time
	Group []int
}

// LinkFault overrides the plan's global loss/delay parameters for the
// directed link From→To.
type LinkFault struct {
	From, To   int
	Loss       float64
	ExtraDelay Time
	Jitter     Time
}

// FaultPlan declares every fault a run injects. The zero value injects
// nothing. Plans are compiled by Network.SetFaults; mutate and re-set to
// change faults mid-run (rarely needed — windows already express
// schedules).
type FaultPlan struct {
	// Seed feeds the loss and jitter PRNG. Two runs with equal plans,
	// equal seeds and equal send orders draw identical samples.
	Seed int64
	// Loss is the global per-message drop probability in [0, 1).
	Loss float64
	// ExtraDelay is added to every message's one-way latency.
	ExtraDelay Time
	// Jitter adds a uniform draw from [0, Jitter] per message.
	Jitter Time
	// Links lists per-link overrides (loss/delay/jitter replace the
	// globals for that directed link).
	Links []LinkFault
	// Crashes schedules node downtime.
	Crashes []CrashWindow
	// Partitions schedules connectivity splits.
	Partitions []Partition
}

// Validate rejects structurally impossible plans early, before a
// long run silently misbehaves.
func (p *FaultPlan) Validate(numNodes int) error {
	if p.Loss < 0 || p.Loss >= 1 {
		return fmt.Errorf("simnet: loss %g out of [0,1)", p.Loss)
	}
	if p.ExtraDelay < 0 || p.Jitter < 0 {
		return fmt.Errorf("simnet: negative delay or jitter")
	}
	for _, l := range p.Links {
		if l.From < 0 || l.From >= numNodes || l.To < 0 || l.To >= numNodes {
			return fmt.Errorf("simnet: link fault %d→%d out of range", l.From, l.To)
		}
		if l.Loss < 0 || l.Loss >= 1 || l.ExtraDelay < 0 || l.Jitter < 0 {
			return fmt.Errorf("simnet: link fault %d→%d has invalid parameters", l.From, l.To)
		}
	}
	for _, c := range p.Crashes {
		if c.Node < 0 || c.Node >= numNodes {
			return fmt.Errorf("simnet: crash window for node %d out of range", c.Node)
		}
	}
	for _, part := range p.Partitions {
		for _, n := range part.Group {
			if n < 0 || n >= numNodes {
				return fmt.Errorf("simnet: partition member %d out of range", n)
			}
		}
	}
	return nil
}

// FaultStats counts messages the fault plan destroyed, by cause.
type FaultStats struct {
	// Lost counts random per-message loss (global or per-link).
	Lost int
	// CrashDrops counts messages suppressed because the sender was down
	// at send time or the receiver was down at delivery time.
	CrashDrops int
	// PartitionDrops counts messages cut by an open partition.
	PartitionDrops int
}

// faultState is a compiled FaultPlan: crash windows sorted per node,
// partition membership as bitsets, and one PRNG stream drawn in event
// order (the sim is single-threaded, so the order is deterministic).
type faultState struct {
	plan    FaultPlan
	rng     *rand.Rand
	link    map[[2]int]LinkFault
	crashes map[int][]CrashWindow
	parts   []compiledPartition
	stats   FaultStats
}

type compiledPartition struct {
	from, until Time
	member      map[int]bool
}

func compileFaults(p FaultPlan) *faultState {
	st := &faultState{
		plan:    p,
		rng:     rand.New(rand.NewSource(p.Seed)),
		link:    make(map[[2]int]LinkFault, len(p.Links)),
		crashes: make(map[int][]CrashWindow),
	}
	for _, l := range p.Links {
		st.link[[2]int{l.From, l.To}] = l
	}
	for _, c := range p.Crashes {
		st.crashes[c.Node] = append(st.crashes[c.Node], c)
	}
	for _, ws := range st.crashes {
		sort.Slice(ws, func(i, j int) bool { return ws[i].From < ws[j].From })
	}
	for _, part := range p.Partitions {
		cp := compiledPartition{from: part.From, until: part.Until, member: make(map[int]bool, len(part.Group))}
		for _, n := range part.Group {
			cp.member[n] = true
		}
		st.parts = append(st.parts, cp)
	}
	return st
}

// down reports whether node is inside a crash window at time t.
func (st *faultState) down(node int, t Time) bool {
	for _, w := range st.crashes[node] {
		if t < w.From {
			return false // windows sorted by start; later ones cannot cover t
		}
		if w.Until <= w.From || t < w.Until {
			return true
		}
	}
	return false
}

// severed reports whether an open partition separates from and to at t.
func (st *faultState) severed(from, to int, t Time) bool {
	for _, p := range st.parts {
		if t < p.from || (p.until > p.from && t >= p.until) {
			continue
		}
		if p.member[from] != p.member[to] {
			return true
		}
	}
	return false
}

// outcome is evaluated at send time: whether the message dies before
// scheduling and, if not, how much extra delay it picks up. The PRNG is
// always advanced in the same pattern (one draw per configured loss, one
// per configured jitter) so outcomes depend only on the plan and the
// deterministic send order.
func (st *faultState) outcome(now Time, from, to int) (extra Time, drop bool) {
	loss, extraDelay, jitter := st.plan.Loss, st.plan.ExtraDelay, st.plan.Jitter
	if lf, ok := st.link[[2]int{from, to}]; ok {
		loss, extraDelay, jitter = lf.Loss, lf.ExtraDelay, lf.Jitter
	}
	if st.down(from, now) {
		st.stats.CrashDrops++
		return 0, true
	}
	if st.severed(from, to, now) {
		st.stats.PartitionDrops++
		return 0, true
	}
	if loss > 0 && st.rng.Float64() < loss {
		st.stats.Lost++
		return 0, true
	}
	extra = extraDelay
	if jitter > 0 {
		extra += Time(st.rng.Int63n(int64(jitter) + 1))
	}
	return extra, false
}

// SetFaults installs (or, with nil, removes) a fault plan. The plan is
// copied and compiled; later mutation of the caller's value has no
// effect. Installing a plan resets fault statistics.
func (n *Network) SetFaults(p *FaultPlan) error {
	if p == nil {
		n.faults = nil
		return nil
	}
	if err := p.Validate(len(n.nodes)); err != nil {
		return err
	}
	n.faults = compileFaults(*p)
	return nil
}

// FaultStats returns drop counts by cause (zero value when no plan is
// installed).
func (n *Network) FaultStats() FaultStats {
	if n.faults == nil {
		return FaultStats{}
	}
	return n.faults.stats
}

// NodeDown reports whether the installed fault plan has node inside a
// crash window at time t. Protocol layers use it to model a crashed
// process (no local reads either), not just a dead NIC.
func (n *Network) NodeDown(node int, t Time) bool {
	if n.faults == nil || node < 0 || node >= len(n.nodes) {
		return false
	}
	return n.faults.down(node, t)
}
