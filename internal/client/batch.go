// Batched cluster operations: many GUIDs per wire frame instead of one
// round trip per (GUID, replica). This is the client half of the §VI
// story — millions of mobile-host updates per second are affordable
// only when the per-message overhead is amortized across a batch (cf.
// Chung's batch identifier updates, arXiv:0706.0580).
package client

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"dmap/internal/core"
	"dmap/internal/guid"
	"dmap/internal/store"
	"dmap/internal/trace"
	"dmap/internal/wire"
)

// InsertBatch stores every entry at its K replicas using batched
// frames: entries are grouped per replica AS (deduplicating replicas
// that collide on one AS for the same entry), chunked to wire.MaxBatch
// and sent in parallel — one frame per (replica AS, chunk) instead of
// one round trip per (entry, replica). It returns per-entry ack counts:
// acks[i] is how many replicas stored entries[i]. An error is returned
// only when nothing was stored anywhere.
//
// Against a peer that rejects batch frames as unknown (a pre-v2 node),
// the chunk transparently degrades to per-entry inserts.
func (c *Cluster) InsertBatch(entries []store.Entry) (ackCounts []int, err error) {
	if len(entries) == 0 {
		return nil, nil
	}
	opStart := time.Now()
	sp := c.tracer.StartOp("client.insert_batch")
	sp.Eventf("entries=%d", len(entries))
	opDeadline := opStart.Add(c.cfg.OpDeadline)
	defer func() {
		c.m.opBatchIns.ObserveSinceExemplar(opStart, sp.TraceID())
		c.tracer.FinishOp(sp, "insert_batch", guid.GUID{}, opStart, err)
	}()

	groups := make(map[int][]int) // replica AS → entry indices
	place := make([]core.Placement, 0, c.resolver.K())
	for i, e := range entries {
		if place, err = c.resolver.PlaceInto(e.GUID, place[:0]); err != nil {
			return nil, err
		}
	replicas:
		for j, p := range place {
			for _, q := range place[:j] {
				if q.AS == p.AS {
					continue replicas // replicas collided on one AS: send once
				}
			}
			groups[p.AS] = append(groups[p.AS], i)
		}
	}

	acks := make([]int32, len(entries))
	var (
		wg      sync.WaitGroup
		errMu   sync.Mutex
		lastErr error
	)
	for as, idxs := range groups {
		for start := 0; start < len(idxs); start += wire.MaxBatch {
			chunk := idxs[start:min(start+wire.MaxBatch, len(idxs))]
			wg.Add(1)
			go func(as int, chunk []int) {
				defer wg.Done()
				got, err := c.insertChunk(sp, as, entries, chunk, opDeadline)
				if err != nil {
					errMu.Lock()
					lastErr = fmt.Errorf("AS %d: %w", as, err)
					errMu.Unlock()
					return
				}
				for j, ok := range got {
					if ok {
						atomic.AddInt32(&acks[chunk[j]], 1)
					}
				}
			}(as, chunk)
		}
	}
	wg.Wait()

	out := make([]int, len(entries))
	total := 0
	for i := range acks {
		out[i] = int(acks[i])
		total += out[i]
	}
	if total == 0 {
		if lastErr != nil {
			return out, fmt.Errorf("client: batch insert: no entry stored anywhere (last: %v)", lastErr)
		}
		return out, errors.New("client: batch insert: no entry stored anywhere")
	}
	return out, nil
}

// insertChunk sends one batch-insert frame to one replica AS and
// returns the per-entry acked flags, degrading to per-entry inserts
// against peers that do not know the batch frame type.
func (c *Cluster) insertChunk(sp *trace.Span, as int, entries []store.Entry, idxs []int, opDeadline time.Time) ([]bool, error) {
	batch := make([]store.Entry, len(idxs))
	for j, i := range idxs {
		batch[j] = entries[i]
	}
	payload, err := wire.AppendBatchInsert(payloadBufs.Get(256), batch)
	if err != nil {
		return nil, err
	}
	defer payloadBufs.Put(payload) // c.call is synchronous
	c.m.batchSize.Observe(float64(len(batch)))
	ch := sp.NewChild("chunk")
	ch.Eventf("as=%d entries=%d", as, len(batch))
	defer ch.End()
	t, body, err := c.call(ch, as, wire.MsgBatchInsert, payload, opDeadline)
	if err != nil {
		if isUnknownFrameReject(err) {
			ch.Eventf("degrading to per-entry inserts: peer rejects batch frames")
			return c.insertChunkPerItem(ch, as, batch, opDeadline)
		}
		return nil, err
	}
	if t != wire.MsgBatchInsertAck {
		putBody(body)
		return nil, fmt.Errorf("client: unexpected frame %v", t)
	}
	got, err := wire.DecodeBatchInsertAck(body)
	putBody(body) // DecodeBatchInsertAck copied the flags
	if err != nil {
		return nil, err
	}
	if len(got) != len(batch) {
		return nil, fmt.Errorf("client: batch ack carries %d flags for %d entries", len(got), len(batch))
	}
	return got, nil
}

// insertChunkPerItem is the compatibility path for pre-v2 peers.
func (c *Cluster) insertChunkPerItem(sp *trace.Span, as int, batch []store.Entry, opDeadline time.Time) ([]bool, error) {
	acked := make([]bool, len(batch))
	for i, e := range batch {
		payload, err := wire.AppendEntry(payloadBufs.Get(128), e)
		if err != nil {
			return nil, err
		}
		t, body, err := c.call(sp, as, wire.MsgInsert, payload, opDeadline)
		payloadBufs.Put(payload)
		putBody(body)
		acked[i] = err == nil && t == wire.MsgInsertAck
	}
	return acked, nil
}

// LookupBatch resolves many GUIDs with batched frames, walking
// Algorithm 1's placement order in rounds: round r groups the
// still-unresolved GUIDs by their r-th replica AS and asks each AS with
// at most wire.MaxBatch GUIDs per frame. Misses and failed replicas
// roll into the next round (§III-D3 failover, amortized). It returns
// the resolved entries and per-GUID found flags; GUIDs no reachable
// replica had stay false without failing the call.
func (c *Cluster) LookupBatch(gs []guid.GUID) (resolved []store.Entry, hits []bool, err error) {
	if len(gs) == 0 {
		return nil, nil, nil
	}
	opStart := time.Now()
	sp := c.tracer.StartOp("client.lookup_batch")
	sp.Eventf("guids=%d", len(gs))
	opDeadline := opStart.Add(c.cfg.OpDeadline)
	defer func() {
		c.m.opBatchLkp.ObserveSinceExemplar(opStart, sp.TraceID())
		c.tracer.FinishOp(sp, "lookup_batch", guid.GUID{}, opStart, err)
	}()

	entries := make([]store.Entry, len(gs))
	found := make([]bool, len(gs))
	pending := make([]int, len(gs))
	for i := range pending {
		pending[i] = i
	}
	rounds := c.resolver.K()
	for r := 0; r < rounds && len(pending) > 0; r++ {
		// Only the GUIDs still pending are placed, and only at replica r:
		// a batch every first replica answers runs Algorithm 1 once per
		// GUID, not K times.
		groups := make(map[int][]int) // replica AS → GUID indices
		for _, i := range pending {
			p, err := c.resolver.PlaceReplica(gs[i], r)
			if err != nil {
				return nil, nil, err
			}
			groups[p.AS] = append(groups[p.AS], i)
		}
		var (
			wg   sync.WaitGroup
			mu   sync.Mutex
			next []int
		)
		for as, idxs := range groups {
			for start := 0; start < len(idxs); start += wire.MaxBatch {
				chunk := idxs[start:min(start+wire.MaxBatch, len(idxs))]
				wg.Add(1)
				go func(as int, chunk []int) {
					defer wg.Done()
					rs, err := c.lookupChunk(sp, as, gs, chunk, opDeadline)
					if err != nil {
						// The whole chunk fails over to its next replica
						// round, exactly like the sequential walk.
						if r < rounds-1 {
							c.m.failovers.Add(int64(len(chunk)))
							sp.Eventf("failover round=%d as=%d guids=%d: %v", r, as, len(chunk), err)
						}
						mu.Lock()
						next = append(next, chunk...)
						mu.Unlock()
						return
					}
					var misses []int
					for j, resp := range rs {
						if resp.Found {
							mu.Lock()
							i := chunk[j]
							if !found[i] || resp.Entry.Version > entries[i].Version {
								entries[i], found[i] = resp.Entry, true
							}
							mu.Unlock()
						} else {
							misses = append(misses, chunk[j])
						}
					}
					mu.Lock()
					next = append(next, misses...)
					mu.Unlock()
				}(as, chunk)
			}
		}
		wg.Wait()
		pending = next
	}
	return entries, found, nil
}

// lookupChunk sends one batch-lookup frame to one replica AS, degrading
// to per-GUID lookups against peers that do not know the batch frame.
func (c *Cluster) lookupChunk(sp *trace.Span, as int, gs []guid.GUID, idxs []int, opDeadline time.Time) ([]wire.LookupResp, error) {
	batch := make([]guid.GUID, len(idxs))
	for j, i := range idxs {
		batch[j] = gs[i]
	}
	payload, err := wire.AppendBatchLookup(payloadBufs.Get(256), batch)
	if err != nil {
		return nil, err
	}
	defer payloadBufs.Put(payload) // c.call is synchronous
	c.m.batchSize.Observe(float64(len(batch)))
	ch := sp.NewChild("chunk")
	ch.Eventf("as=%d guids=%d", as, len(batch))
	defer ch.End()
	t, body, err := c.call(ch, as, wire.MsgBatchLookup, payload, opDeadline)
	if err != nil {
		if isUnknownFrameReject(err) {
			ch.Eventf("degrading to per-GUID lookups: peer rejects batch frames")
			return c.lookupChunkPerItem(ch, as, batch, opDeadline)
		}
		return nil, err
	}
	if t != wire.MsgBatchLookupResp {
		putBody(body)
		return nil, fmt.Errorf("client: unexpected frame %v", t)
	}
	rs, err := wire.DecodeBatchLookupResp(body)
	putBody(body) // DecodeBatchLookupResp copied every entry
	if err != nil {
		return nil, err
	}
	if len(rs) != len(batch) {
		return nil, fmt.Errorf("client: batch resp carries %d answers for %d GUIDs", len(rs), len(batch))
	}
	return rs, nil
}

// lookupChunkPerItem is the compatibility path for pre-v2 peers.
func (c *Cluster) lookupChunkPerItem(sp *trace.Span, as int, batch []guid.GUID, opDeadline time.Time) ([]wire.LookupResp, error) {
	rs := make([]wire.LookupResp, len(batch))
	for i, g := range batch {
		payload := wire.AppendGUID(payloadBufs.Get(32), g)
		t, body, err := c.call(sp, as, wire.MsgLookup, payload, opDeadline)
		payloadBufs.Put(payload)
		if err != nil || t != wire.MsgLookupResp {
			putBody(body)
			continue // counts as a miss at this replica
		}
		resp, derr := wire.DecodeLookupResp(body)
		putBody(body)
		if derr == nil {
			rs[i] = resp
		}
	}
	return rs, nil
}

// isUnknownFrameReject reports a MsgError refusal caused by the peer
// not understanding the frame type — the pre-v2 compatibility signal.
func isUnknownFrameReject(err error) bool {
	return errors.Is(err, ErrRejected) && strings.Contains(err.Error(), "unknown frame")
}
