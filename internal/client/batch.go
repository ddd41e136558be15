// Batched cluster operations: many GUIDs per wire frame instead of one
// round trip per (GUID, replica). This is the client half of the §VI
// story — millions of mobile-host updates per second are affordable
// only when the per-message overhead is amortized across a batch (cf.
// Chung's batch identifier updates, arXiv:0706.0580).
package client

import (
	"errors"
	"fmt"
	"slices"

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
	opStart := c.now()
	sp := c.tracer.StartOp("client.insert_batch")
	sp.Eventf("entries=%d", len(entries))
	proto := attempt{sp: sp, t: wire.MsgBatchInsert, opDeadline: opStart.Add(c.cfg.OpDeadline)}
	defer func() {
		c.m.opBatchIns.ObserveExemplar(micros(c.now().Sub(opStart)), sp.TraceID())
		c.tracer.FinishOp(sp, "insert_batch", guid.GUID{}, opStart, err)
	}()

	k := c.resolver.K()
	gs := make([]guid.GUID, len(entries))
	for i := range entries {
		gs[i] = entries[i].GUID
	}
	place := make([]core.Placement, len(entries)*k)
	if err = c.resolver.PlaceBatch(place, gs, 0, k); err != nil {
		return nil, err
	}
	groups := make(map[int][]int) // replica AS → entry indices
	for i := range entries {
		ps := place[i*k : i*k+k]
		for j, p := range ps {
			if !collided(ps, j) { // replicas that collide on one AS share its frame
				groups[p.AS] = append(groups[p.AS], i)
			}
		}
	}

	atts := make([]attempt, 0, len(groups))
	var batch []store.Entry
	for _, as := range inASOrder(groups) {
		idxs := groups[as]
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
	c.finish(atts, c.now())

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

// inASOrder returns the ASs groups maps in ascending order, the order a
// batch starts its chunks in: a simulated network draws loss and jitter
// in send order, so map order would make a seeded run unrepeatable.
func inASOrder(groups map[int][]int) []int {
	ass := make([]int, 0, len(groups))
	for as := range groups {
		ass = append(ass, as)
	}
	slices.Sort(ass)
	return ass
}

// collided reports whether ps[j] is on the AS of an earlier placement.
func collided(ps []core.Placement, j int) bool {
	for _, q := range ps[:j] {
		if q.AS == ps[j].AS {
			return true
		}
	}
	return false
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
		c.start(a, as, c.now())
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
		wire.Replies.Put(a.body)
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
	wire.Replies.Put(body) // DecodeBatchInsertAck copied the flags
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
// into the next round (§III-D3 failover, amortized); a GUID whose r-th
// replica is on an AS it has already asked sits that round out. It
// returns the resolved entries and per-GUID found flags; GUIDs no
// reachable replica had stay false, their entries zero, without failing
// the call.
func (c *Cluster) LookupBatch(gs []guid.GUID) (resolved []store.Entry, hits []bool, err error) {
	if len(gs) == 0 {
		return nil, nil, nil
	}
	opStart := c.now()
	sp := c.tracer.StartOp("client.lookup_batch")
	sp.Eventf("guids=%d", len(gs))
	proto := attempt{sp: sp, t: wire.MsgBatchLookup, opDeadline: opStart.Add(c.cfg.OpDeadline)}
	defer func() {
		c.m.opBatchLkp.ObserveExemplar(micros(c.now().Sub(opStart)), sp.TraceID())
		c.tracer.FinishOp(sp, "lookup_batch", guid.GUID{}, opStart, err)
	}()

	entries := make([]store.Entry, len(gs))
	found := make([]bool, len(gs))
	pending := make([]int, len(gs))
	for i := range pending {
		pending[i] = i
	}
	var (
		atts    []attempt
		batch   []guid.GUID
		placing []guid.GUID
		place   []core.Placement
		nas     []store.NA // what the found entries' NAs are carved from
	)
	rounds := c.resolver.K()
	for r := 0; r < rounds && len(pending) > 0; r++ {
		// Only the GUIDs still pending are placed, at replicas [0, r] —
		// the earlier ones say which ASs a GUID has asked — so a batch
		// every first replica answers runs Algorithm 1 once per GUID.
		ps := gs // round 0: every GUID, in order
		if r > 0 {
			placing = placing[:0]
			for _, i := range pending {
				placing = append(placing, gs[i])
			}
			ps = placing
		}
		n := r + 1
		place = slices.Grow(place[:0], len(ps)*n)[:len(ps)*n]
		if err := c.resolver.PlaceBatch(place, ps, 0, n); err != nil {
			return nil, nil, err
		}
		groups := make(map[int][]int) // replica AS → GUID indices
		skipped := pending[:0]        // replica r is on an AS already asked
		for j, i := range pending {
			if gp := place[j*n : j*n+n]; !collided(gp, r) {
				groups[gp[r].AS] = append(groups[gp[r].AS], i)
			} else {
				skipped = append(skipped, i)
			}
		}
		pending = skipped // the round's misses and failures join them below
		atts = slices.Grow(atts[:0], len(groups))
		for _, as := range inASOrder(groups) {
			idxs := groups[as]
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
		c.finish(atts, c.now())
		for k := range atts {
			a := &atts[k]
			if err := lookupAnswers(a, entries, found, &nas); err != nil {
				// The whole chunk fails over to its next replica round,
				// exactly like the sequential walk: a failover for each
				// GUID with an AS left to ask.
				left := 0
				for _, i := range a.idxs {
					if c.failoverLeft(gs[i], r) {
						left++
					}
				}
				if left > 0 {
					c.m.failovers.Add(int64(left))
					sp.Eventf("failover round=%d as=%d guids=%d: %v", r, a.as, left, err)
				}
				pending = append(pending, a.idxs...)
				continue
			}
			for _, i := range a.idxs {
				if !found[i] {
					pending = append(pending, i)
				}
			}
		}
	}
	return entries, found, nil
}

// lookupAnswers decodes a finished batch-lookup chunk's answers straight
// into entries and found at its indices, carving the NAs from *nas (the
// call's shared array, topped up by one NA per GUID plus one multi-homed
// entry) each capped at its own length, so an append to one entry's NAs
// never overwrites its neighbour's. A chunk commits whole: if any of it
// fails to decode, every slot it wrote is cleared again.
func lookupAnswers(a *attempt, entries []store.Entry, found []bool, nas *[]store.NA) (err error) {
	defer a.sp.End()
	body, err := chunkReply(a, wire.MsgBatchLookupResp)
	if err != nil {
		return err
	}
	defer func() {
		wire.Replies.Put(body) // every kept byte was copied out
		if err != nil {
			for _, i := range a.idxs {
				entries[i], found[i] = store.Entry{}, false
			}
		}
	}()
	n, b, err := wire.DecodeBatchCount(body)
	if err != nil {
		return err
	}
	if n != len(a.idxs) {
		return fmt.Errorf("client: batch resp carries %d answers for %d GUIDs", n, len(a.idxs))
	}
	for _, i := range a.idxs {
		if len(b) == 0 {
			return wire.ErrTruncated
		}
		if b[0] > 1 {
			return fmt.Errorf("client: bad found flag %d", b[0])
		}
		if found[i], b = b[0] == 1, b[1:]; !found[i] {
			continue
		}
		if len(*nas) < store.MaxNAs {
			*nas = make([]store.NA, len(entries)+store.MaxNAs)
		}
		if entries[i], b, err = wire.DecodeEntryAppend((*nas)[:0], b); err != nil {
			return err
		}
		*nas = (*nas)[len(entries[i].NAs):]
		entries[i].NAs = slices.Clip(entries[i].NAs)
	}
	if len(b) != 0 {
		return fmt.Errorf("client: %d trailing bytes after batch lookup resp", len(b))
	}
	return nil
}
