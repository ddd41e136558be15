// Anti-entropy repair: the version-compare/merge logic shared by the
// nodesim gossip rounds and the server's background repair sweeps
// (DESIGN.md §12).
//
// Both paths reduce to the same primitive: given fingerprints of
// what a peer holds, decide — under §III-D2 highest-seq-wins — which
// entries the local store should push because its copy is fresher, and
// which it should pull because the peer's is. The store's freshest-wins
// Put makes every transfer idempotent, so repair needs no coordination
// beyond the compare itself.
package core

import (
	"dmap/internal/guid"
	"dmap/internal/store"
)

// DiffDigests compares a peer's digest page against st. The page is a
// *filtered* view — the peer only fingerprints GUIDs it believes both
// sides replicate — so absence from the page carries no information and
// no reverse detection happens. It returns the local entries fresher
// than the peer's fingerprint (to push) and the GUIDs the peer holds
// fresher or that st lacks (to pull). wantMissing=false suppresses the
// pull list entirely — a draining node still serves its fresher copies
// but stops acquiring state.
func DiffDigests(st *store.Store, page []store.Digest, wantMissing bool) (newer []store.Entry, want []guid.GUID) {
	for _, d := range page {
		v, ok := st.Version(d.GUID)
		switch {
		case !ok || v < d.Version:
			if wantMissing {
				want = append(want, d.GUID)
			}
		case v > d.Version:
			if e, ok := st.Get(d.GUID); ok {
				newer = append(newer, e)
			}
		}
	}
	return newer, want
}

// DiffRange compares a *range-complete* digest page covering the
// keyspace interval (after, through] against st: the sender fingerprints
// everything it holds there, so a GUID st holds in the interval but the
// page lacks means the sender is missing it — reverse detection the
// filtered DiffDigests cannot do. Both sequences are walked in keyspace
// order as a sorted merge.
//
// max bounds the push list (max <= 0 means unbounded). When the bound
// is hit the merge stops and covered reports the last GUID that was
// fully compared; the caller resumes the sweep from it. A complete
// merge returns covered == through. The pull list needs no bound: it
// only ever names GUIDs from the page, so |want| <= |page|.
func DiffRange(st *store.Store, after, through guid.GUID, page []store.Digest, wantMissing bool, max int) (newer []store.Entry, want []guid.GUID, covered guid.GUID) {
	loc := st.IntervalDigests(after, through, nil)
	covered = after
	i, j := 0, 0
	for i < len(loc) || j < len(page) {
		var g guid.GUID
		switch {
		case j >= len(page) || (i < len(loc) && guid.Compare(loc[i].GUID, page[j].GUID) < 0):
			// Local-only: the sender lacks it — push.
			if max > 0 && len(newer) >= max {
				return newer, want, covered
			}
			g = loc[i].GUID
			if e, ok := st.Get(g); ok {
				newer = append(newer, e)
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
// freshest-wins and returns how many actually advanced the store (stale
// transfers are no-ops, not errors).
func ApplyEntries(st *store.Store, entries []store.Entry) (int, error) {
	applied := 0
	for _, e := range entries {
		ok, err := st.Put(e)
		if err != nil {
			return applied, err
		}
		if ok {
			applied++
		}
	}
	return applied, nil
}
