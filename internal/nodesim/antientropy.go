// Anti-entropy gossip over simnet (DESIGN.md §12): the server's own
// sweep, server.Node.Sweep, run by each simulated node against its
// replica peers, one simnet process per peer, all concurrent in virtual
// time, over the link's frames. The peer's node answers each digest page
// under the scope the pair shares. All traffic rides net.Send, so fault
// plans apply: a healed partition converges through ordinary gossip
// rounds.
package nodesim

import (
	"slices"
	"time"

	"dmap/internal/guid"
	"dmap/internal/store"
)

// GossipStats counts cumulative anti-entropy activity.
type GossipStats struct {
	// Sweeps counts GossipSweep calls that ran (none while the sweeper is
	// down).
	Sweeps int
	// DigestsSent counts digest pages peers answered.
	DigestsSent int
	// EntriesPulled counts entries a sweeper applied from peer replies.
	EntriesPulled int
	// EntriesPushed counts sweeper pushes the peers acknowledged.
	EntriesPushed int
}

// GossipStats returns the cumulative gossip counters: the table's nodes'
// own repair counters, summed (every deployment over the table counts
// into them).
func (d *Deployment) GossipStats() GossipStats {
	s := GossipStats{Sweeps: d.sweeps}
	for as := range d.nodes.ases {
		n := d.nodes.ases[as].node.Load()
		if n == nil {
			continue
		}
		reg := n.Metrics()
		s.DigestsSent += int(reg.Counter("server.repair.digests_sent").Value())
		s.EntriesPulled += int(reg.Counter("server.repair.entries_pulled").Value())
		s.EntriesPushed += int(reg.Counter("server.repair.entries_pushed").Value())
	}
	return s
}

// scope is the keyspace as shares with peer, as as sees it: the GUIDs
// it holds whose replica set names peer.
func (d *Deployment) scope(st *store.Store, peer int) func(guid.GUID) bool {
	var reps []int
	return func(g guid.GUID) bool {
		e, ok := st.Get(g)
		if !ok {
			return false
		}
		var err error
		reps, err = d.nodes.ReplicaASs(e, reps[:0])
		return err == nil && slices.Contains(reps, peer)
	}
}

// GossipSweep starts one anti-entropy sweep from as: a simnet process
// per AS that replicates a mapping as holds, each running as's node's
// Sweep over the keyspace the pair shares, which reconciles both
// directions — what the sweeper lacks included. An exchange that gets no
// reply within DefaultTimeout aborts that peer's sweep alone;
// the next sweep starts over. A sweeper inside a crash window does
// nothing.
func (d *Deployment) GossipSweep(as int) error {
	if d.net.NodeDown(as, d.Sim().Now()) {
		return nil
	}
	n, err := d.Node(as)
	if err != nil {
		return err
	}
	st := n.Store()
	var peers []int
	st.Range(func(e store.Entry) bool {
		peers, err = d.nodes.ReplicaASs(e, peers)
		return err == nil
	})
	if err != nil {
		return err
	}
	peers = slices.DeleteFunc(peers, func(p int) bool { return p == as })
	slices.Sort(peers) // Range iterates maps: fix the start order
	d.sweeps++
	wait := time.Duration(DefaultTimeout) * time.Microsecond
	for _, p := range peers {
		d.sweeping++
		_ = d.Sim().Go(d.Sim().Now(), func() { // now is never in the past
			_ = n.Sweep(querier{d: d, src: as, dst: p}, d.scope(st, p), wait)
			d.sweeping--
		})
	}
	return nil
}

// GossipInFlight counts the per-peer sweeps still running (a finished
// exchange's timer may outlive it in the event queue).
func (d *Deployment) GossipInFlight() int { return d.sweeping }

// GossipRound sweeps every AS once, in AS order. Driving the simulator
// afterwards (Sim().Run or RunUntil) runs the whole exchange.
func (d *Deployment) GossipRound() error {
	for as := range d.nodes.ases {
		if err := d.GossipSweep(as); err != nil {
			return err
		}
	}
	return nil
}
