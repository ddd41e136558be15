// Anti-entropy repair (DESIGN.md §12): the one sweep, which
// server.Node.Sweep drives over TCP and over nodesim's simulated link,
// and the version compare that answers it. The store's §III-D2 freshest-wins Put
// makes every transfer idempotent, so repair needs no coordination
// beyond the compare itself.
package core

import (
	"fmt"
	"slices"

	"dmap/internal/guid"
	"dmap/internal/store"
	"dmap/internal/wire"
)

// Sweep is one anti-entropy sweep of a store against one peer, kept as
// a cursor so that any transport can drive it an exchange at a time:
// Next cuts a page, the transport carries it to the peer, whose
// DiffRangeIn answers it, and Advance applies the answer. scope is the
// keyspace the pair shares (nil: every GUID). A Sweep is not safe for
// concurrent use.
type Sweep struct {
	st    *store.Store
	scope func(guid.GUID) bool
	max   int // digests selected per page

	shard   int
	cursor  guid.GUID // compared through here
	end     guid.GUID // the shard's last GUID
	through guid.GUID // upper bound of the page Next last cut
	page    []store.Digest
}

// NewSweep starts a sweep of st over scope (nil: the whole keyspace).
func NewSweep(st *store.Store, scope func(guid.GUID) bool) *Sweep {
	s := &Sweep{st: st, scope: scope, max: wire.MaxRepairDigests}
	s.cursor, s.end = st.ShardRange(0)
	return s
}

// Next cuts the page after the cursor: the digests of up to
// wire.MaxRepairDigests of the current shard's GUIDs, filtered by
// scope, range-complete over (after, through]. through is the last
// selected GUID when the shard has more, the shard's bound otherwise.
// ok is false once the sweep has covered the keyspace. The page is
// valid until the next call.
func (s *Sweep) Next() (after, through guid.GUID, page []store.Digest, ok bool) {
	for guid.Compare(s.cursor, s.end) >= 0 {
		if s.shard+1 >= s.st.ShardCount() {
			return after, through, nil, false
		}
		s.shard++
		s.cursor, s.end = s.st.ShardRange(s.shard)
	}
	var more bool
	s.page, more = s.st.ShardDigests(s.shard, s.cursor, s.max, s.page[:0])
	s.through = s.end
	if more && len(s.page) > 0 {
		s.through = s.page[len(s.page)-1].GUID
	}
	if s.scope != nil {
		s.page = slices.DeleteFunc(s.page, func(d store.Digest) bool { return !s.scope(d.GUID) })
	}
	return s.cursor, s.through, s.page, true
}

// Advance applies the peer's answer to the page Next last cut: newer
// under freshest-wins, then the cursor moves to covered. A covered that
// does not advance the cursor, or overshoots the page, is an error —
// the sweep would loop or skip keyspace — and so is a failed apply.
// pulled counts the entries that advanced the store.
func (s *Sweep) Advance(covered guid.GUID, newer []store.Entry) (pulled int, err error) {
	pulled, err = ApplyEntries(s.st, newer)
	if err != nil {
		return pulled, fmt.Errorf("core: applying repair pull: %w", err)
	}
	if guid.Compare(covered, s.cursor) <= 0 || guid.Compare(covered, s.through) > 0 {
		return pulled, fmt.Errorf("core: peer repair cursor did not advance past %s", s.cursor.Short())
	}
	s.cursor = covered
	return pulled, nil
}

// Wanted appends to dst the sweeper's entries for the GUIDs the peer
// asked for — what to push. GUIDs deleted since the page was cut are
// skipped.
func (s *Sweep) Wanted(want []guid.GUID, dst []store.Entry) []store.Entry {
	for _, g := range want {
		if e, ok := s.st.Get(g); ok {
			dst = append(dst, e)
		}
	}
	return dst
}

// DiffRange is DiffRangeIn over the whole keyspace.
func DiffRange(st *store.Store, after, through guid.GUID, page []store.Digest, wantMissing bool, max int) (newer []store.Entry, want []guid.GUID, covered guid.GUID) {
	return DiffRangeIn(st, after, through, page, wantMissing, max, nil)
}

// DiffRangeIn answers one sweep page: it compares a *range-complete*
// digest page covering the keyspace interval (after, through] against
// the GUIDs st holds there, as a sorted merge in keyspace order. The
// sender fingerprints everything in scope it holds in the interval, so
// an in-scope GUID (scope nil: every GUID) st holds but the page lacks
// means the sender is missing it — reverse detection. A GUID the page
// names is compared whatever the scope: each end decides scope from its
// own copy, and a copy outside the current replica set is named only by
// its holder's sweep. It returns the local entries to push (st's copy
// is fresher, or the sender lacks an in-scope GUID) and the page GUIDs
// to pull (the sender's is fresher or st lacks it); wantMissing=false
// suppresses the pull list — a draining node still exports but stops
// acquiring state.
//
// max bounds the push list (max <= 0 means unbounded). When the bound
// is hit the merge stops and covered reports the last GUID that was
// fully compared; the caller resumes the sweep from it. A complete
// merge returns covered == through. The pull list needs no bound: it
// only ever names GUIDs from the page, so |want| <= |page|.
func DiffRangeIn(st *store.Store, after, through guid.GUID, page []store.Digest, wantMissing bool, max int, scope func(guid.GUID) bool) (newer []store.Entry, want []guid.GUID, covered guid.GUID) {
	loc := st.IntervalDigests(after, through, nil)
	covered = after
	i, j := 0, 0
	for i < len(loc) || j < len(page) {
		var g guid.GUID
		switch {
		case j >= len(page) || (i < len(loc) && guid.Compare(loc[i].GUID, page[j].GUID) < 0):
			// Local-only: the sender lacks it — push if in scope.
			g = loc[i].GUID
			if scope == nil || scope(g) {
				if max > 0 && len(newer) >= max {
					return newer, want, covered
				}
				if e, ok := st.Get(g); ok {
					newer = append(newer, e)
				}
			}
			i++
		case i >= len(loc) || guid.Compare(page[j].GUID, loc[i].GUID) < 0:
			// Sender-only: st lacks it — pull.
			g = page[j].GUID
			if wantMissing {
				want = append(want, g)
			}
			j++
		default: // both hold it: §III-D2 version compare
			g = loc[i].GUID
			if loc[i].Version > page[j].Version {
				if max > 0 && len(newer) >= max {
					return newer, want, covered
				}
				if e, ok := st.Get(g); ok {
					newer = append(newer, e)
				}
			} else if loc[i].Version < page[j].Version && wantMissing {
				want = append(want, g)
			}
			i++
			j++
		}
		covered = g
	}
	return newer, want, through
}

// ApplyEntries installs pulled or pushed entries into st under
// freshest-wins, as one run (store.PutRun: on a durable store, one log
// write), and returns how many actually advanced the store (stale
// transfers are no-ops, not errors) and the first entry's error, if one
// was refused.
func ApplyEntries(st *store.Store, entries []store.Entry) (int, error) {
	errs := make([]error, len(entries))
	applied := st.PutRun(entries, errs)
	for _, err := range errs {
		if err != nil {
			return applied, err
		}
	}
	return applied, nil
}
