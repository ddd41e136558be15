// Hot-GUID profiling: a Space-Saving top-K tracker (Metwally, Agrawal,
// El Abbadi: "Efficient computation of frequent and top-k elements in
// data streams") per node, kept separately for lookups and inserts.
//
// This instruments the paper's §IV-C load-balance analysis directly:
// DMap's uniform hash family balances *keys* across ASes, but a skewed
// request stream (one viral GUID, one chatty mobile host) can still
// overload a single replica set. Space-Saving bounds memory at exactly
// K monitored keys while guaranteeing that any GUID with true
// frequency above N/K is monitored, and reports a per-key
// overestimation bound (Err) so consumers can tell a certain hot key
// from a possibly-inflated one.
package trace

import (
	"encoding/binary"
	"sort"
	"sync"

	"dmap/internal/guid"
)

// HotKey is one monitored key: Count overestimates the true frequency
// by at most Err (Count - Err is a guaranteed lower bound).
type HotKey struct {
	GUID  guid.GUID
	Count uint64
	Err   uint64
}

// SpaceSaving is a fixed-capacity top-K frequency tracker. Safe for
// concurrent use. An observation, under a mutex, scans the first eight
// bytes of the K monitored GUIDs for the key (K is small: tens) and, on a
// miss, evicts a key of minimum count. There is no index beside the
// arrays: on a stream without repeats — a re-homing batch, a uniform
// update load — every call is a miss, and a map probe, delete and insert
// per miss cost more than the scan they sat beside (DESIGN.md §8). Nor is
// the minimum searched for on each miss: it is tracked, with the number
// of entries at it, and since counts only grow every entry still at it
// lies at or after the one evicted last, so a cursor walks the entries
// once per minimum and a rescan finds the next one, once per ≈ K misses.
type SpaceSaving struct {
	mu      sync.Mutex
	cap     int
	heads   []uint64 // heads[i] is the first eight bytes of entries[i].GUID
	entries []HotKey
	total   uint64
	min     uint64 // the smallest Count, while atMin > 0
	atMin   int    // entries whose Count is min; 0: not known, rescan
	cursor  int    // no entry before it has Count min
}

// NewSpaceSaving builds a tracker monitoring up to k keys (k < 1 is
// clamped to 1).
func NewSpaceSaving(k int) *SpaceSaving {
	if k < 1 {
		k = 1
	}
	return &SpaceSaving{cap: k}
}

// Observe counts one occurrence of g.
func (s *SpaceSaving) Observe(g guid.GUID) {
	s.mu.Lock()
	s.observe(&g)
	s.mu.Unlock()
}

// ObserveAll counts one occurrence of each of gs, a batch frame's GUIDs,
// under one acquisition of the mutex.
func (s *SpaceSaving) ObserveAll(gs []guid.GUID) {
	s.mu.Lock()
	for i := range gs {
		s.observe(&gs[i])
	}
	s.mu.Unlock()
}

// observe counts one occurrence of *g. Callers hold s.mu.
func (s *SpaceSaving) observe(g *guid.GUID) {
	// GUIDs are hash outputs: two monitored keys sharing a head is a
	// 2^-64 event, so the full comparison runs once, on the hit.
	head := binary.LittleEndian.Uint64(g[:])
	s.total++
	for i, h := range s.heads {
		if h == head && s.entries[i].GUID == *g {
			if s.atMin > 0 && s.entries[i].Count == s.min {
				s.atMin--
			}
			s.entries[i].Count++
			return
		}
	}
	if len(s.entries) < s.cap {
		s.heads = append(s.heads, head)
		s.entries = append(s.entries, HotKey{GUID: *g, Count: 1})
		return
	}
	if s.atMin == 0 {
		s.min, s.cursor = s.entries[0].Count, 0
		for i := range s.entries {
			switch c := s.entries[i].Count; {
			case c < s.min:
				s.min, s.atMin = c, 1
			case c == s.min:
				s.atMin++
			}
		}
	}
	// Evict a minimum-count key: the newcomer inherits min+1 with error
	// bound min — the Space-Saving replacement rule.
	for s.entries[s.cursor].Count != s.min {
		s.cursor++
	}
	e := &s.entries[s.cursor]
	e.Err = e.Count
	e.Count++
	e.GUID = *g
	s.heads[s.cursor] = head
	s.atMin--
	s.cursor++
}

// Top returns up to n monitored keys, hottest first (ties broken by
// GUID for determinism). n <= 0 returns all monitored keys.
func (s *SpaceSaving) Top(n int) []HotKey {
	s.mu.Lock()
	out := append([]HotKey(nil), s.entries...)
	s.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		return out[i].GUID.String() < out[j].GUID.String()
	})
	if n > 0 && len(out) > n {
		out = out[:n]
	}
	return out
}

// Total returns the number of observations seen.
func (s *SpaceSaving) Total() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.total
}

// HotKeys bundles the per-node trackers: lookup load and insert/update
// load are separate distributions in §IV-C (query load vs storage
// churn), so they are tracked separately. Nil-receiver safe.
type HotKeys struct {
	lookups *SpaceSaving
	inserts *SpaceSaving
}

// NewHotKeys builds lookup and insert trackers of capacity k each.
func NewHotKeys(k int) *HotKeys {
	return &HotKeys{lookups: NewSpaceSaving(k), inserts: NewSpaceSaving(k)}
}

// ObserveLookup counts one lookup of g. No-op on nil.
func (h *HotKeys) ObserveLookup(g guid.GUID) {
	if h == nil {
		return
	}
	h.lookups.Observe(g)
}

// ObserveLookups counts one lookup of each of gs. No-op on nil.
func (h *HotKeys) ObserveLookups(gs []guid.GUID) {
	if h == nil {
		return
	}
	h.lookups.ObserveAll(gs)
}

// ObserveInserts counts one insert/update of each of gs. No-op on nil.
func (h *HotKeys) ObserveInserts(gs []guid.GUID) {
	if h == nil {
		return
	}
	h.inserts.ObserveAll(gs)
}

// TopLookups returns the hottest lookup keys (nil-safe).
func (h *HotKeys) TopLookups(n int) []HotKey {
	if h == nil {
		return nil
	}
	return h.lookups.Top(n)
}

// Totals returns the observed lookup and insert counts (0, 0 on nil).
func (h *HotKeys) Totals() (lookups, inserts uint64) {
	if h == nil {
		return 0, 0
	}
	return h.lookups.Total(), h.inserts.Total()
}

// TopInserts returns the hottest insert keys (nil-safe).
func (h *HotKeys) TopInserts(n int) []HotKey {
	if h == nil {
		return nil
	}
	return h.inserts.Top(n)
}
