// Background anti-entropy sweeps between live nodes (DESIGN.md §12).
//
// A node configured with gossip peers periodically drives a core.Sweep
// of its store against one peer over a dedicated connection: bounded
// range-complete digest pages in shard order. The peer answers each page
// with a MsgRepairDiff: its fresher copies (the sweeper pulls them) and the
// GUIDs the sweeper's side holds fresher (the sweeper pushes them back
// as ordinary MsgBatchInsert frames, made idempotent by the store's
// §III-D2 freshest-wins Put). Divergence left behind by a partition, a
// lost ack or a restart therefore decays at the gossip rate without any
// foreground traffic — and because repair frames ride the same
// admission control as client requests, an overloaded peer sheds them
// first; the sweeper backs off and retries a full interval later.
//
// Sweep is that exchange over any request/reply connection, and
// AnswerDigest the peer's half: nodesim's simulated nodes run both over
// simnet, scoped to the keyspace each pair shares.
package server

import (
	"fmt"
	"time"

	"dmap/internal/core"
	"dmap/internal/guid"
	"dmap/internal/store"
	"dmap/internal/wire"
)

// GossipOptions configures the anti-entropy sweeper. The zero value
// disables gossip (no peers).
type GossipOptions struct {
	// Peers lists the replica addresses to reconcile with, swept
	// round-robin — one peer per interval tick.
	Peers []string
	// Interval is the pause between sweeps (default 1s).
	Interval time.Duration
}

// gossipDialTimeout bounds the dial + hello handshake; gossipExchange
// bounds each digest or push round trip.
const (
	gossipDialTimeout  = 3 * time.Second
	gossipExchangeWait = 5 * time.Second
)

// gossipLoop runs until Close, sweeping one peer per tick. Draining
// pauses outbound sweeps: a node about to hand off its share must not
// acquire state, and its fresher copies still flow out through the
// digests other sweepers send it.
func (n *Node) gossipLoop() {
	defer n.wg.Done()
	interval := n.gossipOpts.Interval
	if interval <= 0 {
		interval = time.Second
	}
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	next := 0
	for {
		select {
		case <-n.gossipCtx.Done():
			return
		case <-ticker.C:
		}
		if n.gossipCtx.Err() != nil || n.draining.Load() {
			continue // a tick can win the select against Close
		}
		addr := n.gossipOpts.Peers[next%len(n.gossipOpts.Peers)]
		next++
		if err := n.gossipSweep(addr); err != nil {
			n.logger.Debug("gossip sweep failed", "peer", addr, "err", err)
		}
	}
}

// errPeerShed marks a sweep aborted because the peer shed a repair
// frame under overload; the sweeper backs off until the next tick.
var errPeerShed = fmt.Errorf("server: peer shed repair frame")

// gossipSweep reconciles the whole store against one peer: dial, then
// Sweep. The peer set is static and assumed to replicate the whole
// keyspace, so the sweep is unscoped.
func (n *Node) gossipSweep(addr string) error {
	n.repairSweeps.Add(1)
	gc, err := wire.Dial(n.gossipCtx, addr, gossipDialTimeout)
	if err != nil {
		n.repairPeerErrs.Add(1)
		return fmt.Errorf("server: gossip: %w", err)
	}
	defer gc.Close()
	return n.Sweep(gc, nil, gossipExchangeWait)
}

// Sweep drives one core.Sweep of the node's store over scope (nil: the
// whole keyspace) against the peer at the other end of rt, a page at a
// time: the digest exchange, the pull applied, then the push of what the
// peer asked for, each exchange bounded by wait. The repair counters
// count it. Any error aborts the sweep — the next one starts from
// scratch, and freshest-wins makes re-covered ground free. Close or
// Drain stops it at the next page.
func (n *Node) Sweep(rt wire.RoundTripper, scope func(guid.GUID) bool, wait time.Duration) error {
	sw := core.NewSweep(n.store, scope)
	for n.gossipCtx.Err() == nil && !n.draining.Load() {
		after, through, page, ok := sw.Next()
		if !ok {
			return nil
		}
		covered, newer, want, err := exchangeDigest(rt, wait, after, through, page)
		if err != nil {
			n.countRepairErr(err)
			return err
		}
		n.repairDigestsSent.Add(1)
		pulled, err := sw.Advance(covered, newer)
		n.repairEntriesPulled.Add(int64(pulled))
		if err != nil {
			n.repairPeerErrs.Add(1)
			return err
		}
		pushed, err := pushWanted(rt, wait, sw.Wanted(want, nil))
		n.repairEntriesPushed.Add(int64(pushed))
		if err != nil {
			n.countRepairErr(err)
			return err
		}
	}
	return nil
}

// countRepairErr counts an aborted exchange: a back-off when the peer
// shed it under overload, a peer error otherwise.
func (n *Node) countRepairErr(err error) {
	if err == errPeerShed {
		n.repairBackoffs.Add(1)
	} else {
		n.repairPeerErrs.Add(1)
	}
}

// repairRoundTrip is one exchange with the peer, bounded by wait, whose
// refusals become errors: errPeerShed when it is overloaded, the reason
// otherwise. The returned body is the caller's to hand back to
// wire.Replies once decoded.
func repairRoundTrip(gc wire.RoundTripper, wait time.Duration, t wire.MsgType, payload []byte) (wire.MsgType, []byte, error) {
	rt, body, err := gc.RoundTrip(t, payload, wait)
	if err != nil {
		return 0, nil, fmt.Errorf("server: gossip: %w", err)
	}
	if rt == wire.MsgError {
		kind, reason, _ := wire.DecodeErrorKind(body)
		wire.Replies.Put(body)
		if kind == wire.ErrKindShed {
			return 0, nil, errPeerShed
		}
		return 0, nil, fmt.Errorf("server: peer refused repair frame: %s", reason)
	}
	return rt, body, nil
}

// exchangeDigest sends one digest page and decodes the peer's diff.
func exchangeDigest(gc wire.RoundTripper, wait time.Duration, after, through guid.GUID, page []store.Digest) (covered guid.GUID, newer []store.Entry, want []guid.GUID, err error) {
	body, err := wire.AppendRepairDigest(nil, after, through, page)
	if err != nil {
		return covered, nil, nil, err
	}
	rt, resp, err := repairRoundTrip(gc, wait, wire.MsgRepairDigest, body)
	if err != nil {
		return covered, nil, nil, err
	}
	defer wire.Replies.Put(resp) // the diff decodes into fresh entries
	if rt != wire.MsgRepairDiff {
		return covered, nil, nil, fmt.Errorf("server: repair digest answered with %v", rt)
	}
	return wire.DecodeRepairDiff(resp)
}

// pushWanted sends the peer the entries it asked for, batched into
// MsgBatchInsert frames, and returns how many the peer acknowledged
// applying.
func pushWanted(gc wire.RoundTripper, wait time.Duration, entries []store.Entry) (int, error) {
	pushed := 0
	for len(entries) > 0 {
		b := entries
		if len(b) > wire.MaxBatch {
			b = b[:wire.MaxBatch]
		}
		entries = entries[len(b):]
		body, err := wire.AppendBatchInsert(nil, b)
		if err != nil {
			return pushed, err
		}
		rt, resp, err := repairRoundTrip(gc, wait, wire.MsgBatchInsert, body)
		if err != nil {
			return pushed, err
		}
		if rt != wire.MsgBatchInsertAck {
			return pushed, fmt.Errorf("server: repair push answered with %v", rt)
		}
		acked, err := wire.DecodeBatchInsertAck(resp)
		wire.Replies.Put(resp)
		if err != nil {
			return pushed, err
		}
		for _, ok := range acked {
			if ok {
				pushed++
			}
		}
	}
	return pushed, nil
}

// AnswerDigest answers one MsgRepairDigest into dst, as handle answers
// the other frames, comparing the page over scope (nil: the whole
// keyspace; see core.DiffRangeIn). Over TCP the read loop calls it for
// every digest frame past the hello, unscoped. A draining node answers
// with wantMissing=false: it keeps exporting its fresher copies but asks
// for nothing — the handoff posture.
func (n *Node) AnswerDigest(payload, dst []byte, scope func(guid.GUID) bool) (wire.MsgType, []byte) {
	after, through, page, err := wire.DecodeRepairDigest(payload)
	if err != nil {
		n.badReqs.Add(1)
		return wire.MsgError, wire.AppendErrorKind(dst, wire.ErrKindBadRequest, "malformed repair digest")
	}
	n.repairDigestsRecv.Add(1)
	newer, want, covered := core.DiffRangeIn(n.store, after, through, page, !n.draining.Load(), wire.MaxBatch, scope)
	out, err := wire.AppendRepairDiff(dst, covered, newer, want)
	if err != nil {
		n.countErr()
		return wire.MsgError, wire.AppendErrorKind(dst, wire.ErrKindInternal, "repair diff encode failed")
	}
	return wire.MsgRepairDiff, out
}
