// Batched cluster operations: many GUIDs per wire frame instead of one
// round trip per (GUID, replica). This is the client half of the §VI
// story — millions of mobile-host updates per second are affordable
// only when the per-message overhead is amortized across a batch (cf.
// Chung's batch identifier updates, arXiv:0706.0580).
package client

import (
	"errors"
	"fmt"
	"time"

	"dmap/internal/core"
	"dmap/internal/guid"
	"dmap/internal/store"
	"dmap/internal/wire"
)

// InsertBatch stores every entry at its K replicas using batched
// frames: entries are grouped per replica AS (deduplicating replicas
// that collide on one AS for the same entry) and chunked to
// wire.MaxBatch; every frame — one per (replica AS, chunk) instead of
// one round trip per (entry, replica) — is started before any ack is
// awaited. It returns per-entry ack counts: acks[i] is how many DISTINCT
// replica ASs stored entries[i], so a fully stored entry whose
// placements collide reads fewer than K; Insert counts placements. An
// error is returned only when nothing was stored anywhere.
func (c *Cluster) InsertBatch(entries []store.Entry) (acks []int, err error) {
	if len(entries) == 0 {
		return nil, nil
	}
	opStart := time.Now()
	sp := c.tracer.StartOp("client.insert_batch")
	sp.Eventf("entries=%d", len(entries))
	proto := attempt{sp: sp, t: wire.MsgBatchInsert, opDeadline: opStart.Add(c.cfg.OpDeadline)}
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

	var (
		atts  []attempt
		batch []store.Entry
	)
	for as, idxs := range groups {
		for start := 0; start < len(idxs); start += wire.MaxBatch {
			chunk := idxs[start:min(start+wire.MaxBatch, len(idxs))]
			batch = batch[:0]
			for _, i := range chunk {
				batch = append(batch, entries[i])
			}
			payload, err := wire.AppendBatchInsert(payloadBufs.Get(256), batch)
			atts = c.startChunk(atts, proto, as, chunk, payload, err)
		}
	}
	flush(atts)
	c.finish(atts, time.Now())

	acks = make([]int, len(entries))
	total := 0
	var lastErr error
	for k := range atts {
		a := &atts[k]
		got, err := insertAcks(a)
		if err != nil {
			lastErr = fmt.Errorf("AS %d: %w", a.as, err)
			continue
		}
		for j, ok := range got {
			if ok {
				acks[a.idxs[j]]++
				total++
			}
		}
	}
	if total == 0 {
		if lastErr != nil {
			return acks, fmt.Errorf("client: batch insert: no entry stored anywhere (last: %v)", lastErr)
		}
		return acks, errors.New("client: batch insert: no entry stored anywhere")
	}
	return acks, nil
}

// startChunk starts proto, corked (the caller flushes the set), as one
// batch frame to replica AS as, carrying the items idxs under a child
// span of its own, and appends it to atts — settled with encErr if it
// could not be encoded. The attempt owns payload until its reply is read.
func (c *Cluster) startChunk(atts []attempt, proto attempt, as int, idxs []int, payload []byte, encErr error) []attempt {
	c.m.batchSize.Observe(float64(len(idxs)))
	proto.sp = proto.sp.NewChild("chunk")
	proto.sp.Eventf("as=%d items=%d", as, len(idxs))
	proto.idxs, proto.payload, proto.cork = idxs, payload, true
	atts = append(atts, proto)
	if a := &atts[len(atts)-1]; encErr != nil {
		a.as, a.done, a.err = as, true, encErr
	} else {
		c.start(a, as, time.Now())
	}
	return atts
}

// chunkReply closes a finished chunk's books — no try is in flight and
// none will be sent, so its payload goes back to the pool — and returns
// the reply's body once it is known to be of type want.
func chunkReply(a *attempt, want wire.MsgType) ([]byte, error) {
	payloadBufs.Put(a.payload)
	if a.err != nil {
		return nil, a.err
	}
	if a.rt != want {
		putBody(a.body)
		return nil, fmt.Errorf("client: unexpected frame %v", a.rt)
	}
	return a.body, nil
}

// insertAcks reads a finished batch-insert chunk's per-entry acked
// flags.
func insertAcks(a *attempt) ([]bool, error) {
	defer a.sp.End()
	body, err := chunkReply(a, wire.MsgBatchInsertAck)
	if err != nil {
		return nil, err
	}
	got, err := wire.DecodeBatchInsertAck(body)
	putBody(body) // DecodeBatchInsertAck copied the flags
	if err != nil {
		return nil, err
	}
	if len(got) != len(a.idxs) {
		return nil, fmt.Errorf("client: batch ack carries %d flags for %d entries", len(got), len(a.idxs))
	}
	return got, nil
}

// LookupBatch resolves many GUIDs with batched frames, walking
// Algorithm 1's placement order in rounds: round r groups the
// still-unresolved GUIDs by their r-th replica AS and asks each AS with
// at most wire.MaxBatch GUIDs per frame, starting every frame of the
// round before it reads any answer. Misses and failed replicas roll
// into the next round (§III-D3 failover, amortized). It returns the
// resolved entries and per-GUID found flags; GUIDs no reachable replica
// had stay false without failing the call.
func (c *Cluster) LookupBatch(gs []guid.GUID) (resolved []store.Entry, hits []bool, err error) {
	if len(gs) == 0 {
		return nil, nil, nil
	}
	opStart := time.Now()
	sp := c.tracer.StartOp("client.lookup_batch")
	sp.Eventf("guids=%d", len(gs))
	proto := attempt{sp: sp, t: wire.MsgBatchLookup, opDeadline: opStart.Add(c.cfg.OpDeadline)}
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
	var (
		atts  []attempt
		batch []guid.GUID
	)
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
		atts = atts[:0]
		for as, idxs := range groups {
			for start := 0; start < len(idxs); start += wire.MaxBatch {
				chunk := idxs[start:min(start+wire.MaxBatch, len(idxs))]
				batch = batch[:0]
				for _, i := range chunk {
					batch = append(batch, gs[i])
				}
				payload, err := wire.AppendBatchLookup(payloadBufs.Get(256), batch)
				atts = c.startChunk(atts, proto, as, chunk, payload, err)
			}
		}
		flush(atts)
		c.finish(atts, time.Now())
		pending = pending[:0] // the groups hold the indices now
		for k := range atts {
			a := &atts[k]
			rs, err := lookupAnswers(a)
			if err != nil {
				// The whole chunk fails over to its next replica round,
				// exactly like the sequential walk.
				if r < rounds-1 {
					c.m.failovers.Add(int64(len(a.idxs)))
					sp.Eventf("failover round=%d as=%d guids=%d: %v", r, a.as, len(a.idxs), err)
				}
				pending = append(pending, a.idxs...)
				continue
			}
			for j, resp := range rs {
				if i := a.idxs[j]; resp.Found {
					entries[i], found[i] = resp.Entry, true
				} else {
					pending = append(pending, i)
				}
			}
		}
	}
	return entries, found, nil
}

// lookupAnswers reads a finished batch-lookup chunk's per-GUID answers.
func lookupAnswers(a *attempt) ([]wire.LookupResp, error) {
	defer a.sp.End()
	body, err := chunkReply(a, wire.MsgBatchLookupResp)
	if err != nil {
		return nil, err
	}
	rs, err := wire.DecodeBatchLookupResp(body)
	putBody(body) // DecodeBatchLookupResp copied every entry
	if err != nil {
		return nil, err
	}
	if len(rs) != len(a.idxs) {
		return nil, fmt.Errorf("client: batch resp carries %d answers for %d GUIDs", len(rs), len(a.idxs))
	}
	return rs, nil
}
