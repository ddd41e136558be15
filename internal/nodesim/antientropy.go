// Anti-entropy gossip over simnet: a transport for core.Sweep, the sweep
// the server's gossip loop drives over TCP (DESIGN.md §12). A sweep runs
// one chain of exchanges per replica peer, all concurrent in virtual
// time. All traffic rides net.Send, so fault plans apply: a healed
// partition converges through ordinary gossip rounds.
package nodesim

import (
	"slices"

	"dmap/internal/core"
	"dmap/internal/guid"
	"dmap/internal/simnet"
	"dmap/internal/store"
	"dmap/internal/wire"
)

// gossip message payloads
type (
	digestReq struct {
		after, through guid.GUID
		page           []store.Digest // range-complete over (after, through], in scope
		reqID          uint64
	}
	digestResp struct {
		reqID   uint64
		covered guid.GUID     // compared through here
		newer   []store.Entry // peer's fresher copies: sweeper pulls
		want    []guid.GUID   // sweeper's fresher copies: peer asks for a push
	}
	repairPush struct {
		entries []store.Entry
	}
)

// sweepChain is one sweeper→peer chain of a sweep.
type sweepChain struct {
	sw   *core.Sweep
	self int
	peer int
}

// GossipStats counts cumulative anti-entropy activity.
type GossipStats struct {
	// Sweeps counts GossipSweep calls that ran (none while the sweeper is
	// down).
	Sweeps int
	// DigestsSent counts digest pages sent to peers.
	DigestsSent int
	// EntriesPulled counts entries a sweeper applied from peer replies.
	EntriesPulled int
	// EntriesPushed counts entries peers applied from sweeper pushes.
	EntriesPushed int
}

// GossipStats returns the cumulative gossip counters.
func (d *Deployment) GossipStats() GossipStats { return d.gossip }

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
		reps, err = d.sys.ReplicaASs(e, reps[:0])
		return err == nil && slices.Contains(reps, peer)
	}
}

// GossipSweep starts one anti-entropy sweep from as: a chain to every
// AS that replicates a mapping as holds, each sweeping the keyspace the
// pair shares, which reconciles both directions — what the sweeper
// lacks included. A reply that does not arrive within the deployment's
// timeout aborts that chain alone; the next sweep starts over. A sweeper
// inside a crash window does nothing.
func (d *Deployment) GossipSweep(as int) error {
	if d.net.NodeDown(as, d.Sim().Now()) {
		return nil
	}
	st, err := d.sys.Store(as)
	if err != nil {
		return err
	}
	var peers []int
	st.Range(func(e store.Entry) bool {
		peers, err = d.sys.ReplicaASs(e, peers)
		return err == nil
	})
	if err != nil {
		return err
	}
	peers = slices.DeleteFunc(peers, func(p int) bool { return p == as })
	slices.Sort(peers) // Range iterates maps: fix the send order
	d.gossip.Sweeps++
	for _, p := range peers {
		if err := d.sendPage(&sweepChain{sw: core.NewSweep(st, d.scope(st, p)), self: as, peer: p}); err != nil {
			return err
		}
	}
	return nil
}

// sendPage sends c's next page and arms its timeout; a finished sweep
// sends nothing.
func (d *Deployment) sendPage(c *sweepChain) error {
	after, through, page, ok := c.sw.Next()
	if !ok {
		return nil
	}
	d.nextReq++
	reqID := d.nextReq
	d.chains[reqID] = c
	d.gossip.DigestsSent++
	if err := d.net.Send(c.self, c.peer, digestReq{after: after, through: through, page: page, reqID: reqID}); err != nil {
		return err
	}
	return d.Sim().After(d.timeout, func() { delete(d.chains, reqID) })
}

// GossipInFlight counts the sweep chains awaiting a reply (their
// timeouts may outlive them in the event queue).
func (d *Deployment) GossipInFlight() int { return len(d.chains) }

// GossipRound sweeps every AS once, in AS order. Driving the simulator
// afterwards (Sim().Run or RunUntil) delivers the whole exchange.
func (d *Deployment) GossipRound() error {
	for as := 0; as < d.sys.NumAS(); as++ {
		if err := d.GossipSweep(as); err != nil {
			return err
		}
	}
	return nil
}

// handleGossip dispatches the anti-entropy payloads.
func (d *Deployment) handleGossip(self int, msg simnet.Message) {
	st, err := d.sys.Store(self)
	if err != nil {
		return
	}
	switch p := msg.Payload.(type) {
	case digestReq:
		newer, want, covered := core.DiffRangeIn(st, p.after, p.through, p.page, true, wire.MaxBatch, d.scope(st, msg.From))
		_ = d.net.Send(self, msg.From, digestResp{reqID: p.reqID, covered: covered, newer: newer, want: want})
	case digestResp:
		c, ok := d.chains[p.reqID]
		if !ok {
			return // timed out: the chain was aborted
		}
		delete(d.chains, p.reqID)
		n, err := c.sw.Advance(p.covered, p.newer)
		d.gossip.EntriesPulled += n
		if err != nil {
			return
		}
		if entries := c.sw.Wanted(p.want, nil); len(entries) > 0 {
			_ = d.net.Send(self, msg.From, repairPush{entries: entries})
		}
		_ = d.sendPage(c)
	case repairPush:
		n, _ := core.ApplyEntries(st, p.entries)
		d.gossip.EntriesPushed += n
	}
}
