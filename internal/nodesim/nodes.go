package nodesim

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"dmap/internal/core"
	"dmap/internal/guid"
	"dmap/internal/netaddr"
	"dmap/internal/server"
	"dmap/internal/store"
)

// Nodes is the node table: one server.Node per AS over the AS's mapping
// store, the store made on first use and the node on the first frame
// the AS serves. It is the one owner of an AS's mappings on the link:
// every Deployment over it — a figure sweep's engine workers build one
// each — talks to the same nodes. Creation and the stores are safe for
// concurrent use. The §III-D1 churn methods (WithdrawPrefix,
// AnnouncePrefix) mutate the resolver's prefix table and must be
// serialized with placement reads: drive churn from one goroutine, as
// the simulator does.
type Nodes struct {
	res   *core.Resolver
	local bool // §III-C local copies at the attachment ASs
	ases  []host
	mu    sync.Mutex // guards creation only
}

// host is one AS of the table. A node's metrics cost some 7 KB, ten
// times an empty store, so an AS that holds mappings but serves no frame
// has no node.
type host struct {
	st   atomic.Pointer[store.Store]
	node atomic.Pointer[server.Node]
}

// NewNodes returns an empty table of numAS ASs placing with res, with
// §III-C local copies if local.
func NewNodes(res *core.Resolver, numAS int, local bool) (*Nodes, error) {
	if res == nil {
		return nil, fmt.Errorf("nodesim: nil resolver")
	}
	if numAS <= 0 {
		return nil, fmt.Errorf("nodesim: numAS must be positive, got %d", numAS)
	}
	return &Nodes{res: res, local: local, ases: make([]host, numAS)}, nil
}

// Node returns AS as's node, made on first use over the AS's store. The
// fast path is one atomic load; creation double-checks under the table's
// mutex, so concurrent callers agree on one node.
func (ns *Nodes) Node(as int) (*server.Node, error) {
	if err := ns.check(as); err != nil {
		return nil, err
	}
	h := &ns.ases[as]
	if n := h.node.Load(); n != nil {
		return n, nil
	}
	ns.mu.Lock()
	defer ns.mu.Unlock()
	if n := h.node.Load(); n != nil {
		return n, nil
	}
	n := server.NewWithOptions(h.storeLocked(), server.Options{})
	h.node.Store(n)
	return n, nil
}

// store returns AS as's mapping store, made on first use.
func (ns *Nodes) store(as int) (*store.Store, error) {
	if err := ns.check(as); err != nil {
		return nil, err
	}
	h := &ns.ases[as]
	if st := h.st.Load(); st != nil {
		return st, nil
	}
	ns.mu.Lock()
	defer ns.mu.Unlock()
	return h.storeLocked(), nil
}

// storeLocked returns h's store, making it; the table's mutex is held.
func (h *host) storeLocked() *store.Store {
	st := h.st.Load()
	if st == nil {
		st = store.New()
		h.st.Store(st)
	}
	return st
}

// loaded returns AS as's store, nil if none was made.
func (ns *Nodes) loaded(as int) *store.Store { return ns.ases[as].st.Load() }

func (ns *Nodes) check(as int) error {
	if as < 0 || as >= len(ns.ases) {
		return fmt.Errorf("nodesim: AS %d out of range [0,%d)", as, len(ns.ases))
	}
	return nil
}

// Preload stores each entry at every AS of its replica set (ReplicaASs):
// a run's starting state, put straight into the stores rather than
// written by a client. Safe for concurrent use.
func (ns *Nodes) Preload(es ...store.Entry) error {
	var reps []int
	for _, e := range es {
		var err error
		if reps, err = ns.ReplicaASs(e, reps[:0]); err != nil {
			return err
		}
		for _, as := range reps {
			st, err := ns.store(as)
			if err != nil {
				return err
			}
			if _, err := st.Put(e); err != nil {
				return fmt.Errorf("nodesim: preload at AS %d: %w", as, err)
			}
		}
	}
	return nil
}

// ReplicaASs appends to dst the ASs that replicate e and dst does not
// already hold: its K global placements and — with §III-C local
// replicas on — the attachment ASs the entry names. Passing one dst
// across entries collects the union of their replica sets.
func (ns *Nodes) ReplicaASs(e store.Entry, dst []int) ([]int, error) {
	placements, err := ns.res.Place(e.GUID)
	if err != nil {
		return dst, err
	}
	for _, p := range placements {
		if !slices.Contains(dst, p.AS) {
			dst = append(dst, p.AS)
		}
	}
	if ns.local {
		for _, na := range e.NAs {
			if !slices.Contains(dst, na.AS) {
				dst = append(dst, na.AS)
			}
		}
	}
	return dst, nil
}

// ConsistencyReport summarizes an audit of the table's invariants.
type ConsistencyReport struct {
	// Mappings is the number of distinct GUIDs audited.
	Mappings int
	// MissingReplicas counts (GUID, replica) pairs whose computed
	// hosting AS does not hold the mapping.
	MissingReplicas int
	// VersionSkews counts GUIDs whose replicas disagree on the version
	// (transiently normal during an update; permanently a bug).
	VersionSkews int
	// Strays counts stored entries at ASs that are neither a computed
	// replica nor a local-replica attachment for the GUID.
	Strays int
}

// Ok reports a fully consistent table.
func (r ConsistencyReport) Ok() bool {
	return r.MissingReplicas == 0 && r.VersionSkews == 0 && r.Strays == 0
}

// String formats the report.
func (r ConsistencyReport) String() string {
	return fmt.Sprintf("mappings=%d missingReplicas=%d versionSkews=%d strays=%d",
		r.Mappings, r.MissingReplicas, r.VersionSkews, r.Strays)
}

// VerifyConsistency audits every node's store against the placement
// function: every GUID stored anywhere must be present at each of its K
// computed replicas with one agreed version, and no AS may hold a
// mapping it should not (modulo local replicas, which may live at any
// attachment AS listed in the entry's NAs). Quiesce the table first; the
// audit reads every store.
func (ns *Nodes) VerifyConsistency() (ConsistencyReport, error) {
	var rep ConsistencyReport

	// Collect the union of stored GUIDs and who holds them.
	holders := make(map[guid.GUID]map[int]uint64) // guid → AS → version
	for as := range ns.ases {
		st := ns.loaded(as)
		if st == nil {
			continue
		}
		st.Range(func(e store.Entry) bool {
			m, ok := holders[e.GUID]
			if !ok {
				m = make(map[int]uint64, ns.res.K()+1)
				holders[e.GUID] = m
			}
			m[as] = e.Version
			return true
		})
	}

	for g, byAS := range holders {
		rep.Mappings++
		placements, err := ns.res.Place(g)
		if err != nil {
			return rep, err
		}
		expected := make(map[int]bool, len(placements))
		for _, p := range placements {
			expected[p.AS] = true
			if _, ok := byAS[p.AS]; !ok {
				rep.MissingReplicas++
			}
		}
		// Local replicas may live at any AS the entry lists as an
		// attachment.
		if ns.local {
			for as := range byAS {
				e, _ := ns.loaded(as).Get(g) // byAS names loaded stores only
				for _, na := range e.NAs {
					expected[na.AS] = true
				}
			}
		}
		versions := make(map[uint64]bool)
		for as, v := range byAS {
			versions[v] = true
			if !expected[as] {
				rep.Strays++
			}
		}
		if len(versions) > 1 {
			rep.VersionSkews++
		}
	}
	return rep, nil
}

// The §III-D1 churn protocol below moves mappings between stores
// directly, beside the nodes rather than through them: a god-mode
// stand-in until the nodes know their own placements (ROADMAP item 4).

// WithdrawPrefix implements the §III-D1 withdrawal protocol: before the
// prefix disappears from the table, the withdrawing AS extracts every
// mapping it hosts whose placement address lies in p and pushes each to
// its deputy (the AS Algorithm 1 reaches once p is gone). Queries issued
// afterwards hit the hole, follow the same rehash chain, and find the
// deputy naturally. It returns the number of migrated mappings.
func (ns *Nodes) WithdrawPrefix(p netaddr.Prefix, owner int) (int, error) {
	if err := ns.check(owner); err != nil {
		return 0, err
	}

	var orphans []store.Entry
	if st := ns.loaded(owner); st != nil {
		orphans = st.Extract(func(g guid.GUID) bool {
			// The mapping is orphaned if one of its placements selected
			// this AS via an address inside p.
			for k := 0; k < ns.res.K(); k++ {
				pl, err := ns.res.PlaceReplica(g, k)
				if err != nil {
					return false
				}
				if pl.AS == owner && p.Contains(pl.Addr) {
					return true
				}
			}
			return false
		})
	}

	if !ns.res.Table().Withdraw(p) {
		// Refused: the owner keeps what it hosted.
		for _, e := range orphans {
			if _, err := ns.loaded(owner).Put(e); err != nil {
				return 0, err
			}
		}
		return 0, fmt.Errorf("nodesim: prefix %v not announced", p)
	}

	// With the prefix gone, Algorithm 1 lands each orphan on its deputy;
	// re-placing all K replicas is idempotent for the unaffected ones
	// (the store rejects non-newer versions it already holds).
	migrated := 0
	for _, e := range orphans {
		for k := 0; k < ns.res.K(); k++ {
			pl, err := ns.res.PlaceReplica(e.GUID, k)
			if err != nil {
				return migrated, err
			}
			st, err := ns.store(pl.AS)
			if err != nil {
				return migrated, err
			}
			if _, err := st.Put(e); err != nil {
				return migrated, err
			}
		}
		migrated++
	}
	return migrated, nil
}

// AnnouncePrefix implements the §III-D1 announcement protocol. The new
// prefix may capture GUIDs whose mappings live at a deputy chosen when
// these addresses were holes; those become orphans. DMap recovers lazily:
// the first query that reaches the announcing AS and misses triggers a
// GUID migration message to the deputy (found by running Algorithm 1 as
// if the new prefix were still a hole), relocating the mapping. This
// method performs the announcement; RepairMiss performs the lazy pull.
func (ns *Nodes) AnnouncePrefix(p netaddr.Prefix, owner int) error {
	if err := ns.check(owner); err != nil {
		return err
	}
	return ns.res.Table().Announce(p, owner)
}

// RepairMiss is the lazy migration triggered by a "GUID missing" reply
// from a freshly announcing AS: for every replica the announcement
// captured, locate the old deputy by excluding the new prefix from
// Algorithm 1 and pull the mapping from it to the announcing AS. The
// deputy gives its copy up only when it hosts g for no other reason —
// it may be another of g's K placements, or the announcing AS itself.
// It reports whether a mapping was recovered. Calls for distinct GUIDs
// may run concurrently.
func (ns *Nodes) RepairMiss(g guid.GUID, announced netaddr.Prefix, owner int) (bool, error) {
	exclude := func(a netaddr.Addr) bool { return announced.Contains(a) }
	pulled := false
	for k := 0; k < ns.res.K(); k++ {
		pl, err := ns.res.PlaceReplica(g, k)
		if err != nil {
			return pulled, err
		}
		if pl.AS != owner || !announced.Contains(pl.Addr) {
			continue // this replica is not affected by the announcement
		}
		deputy, err := ns.res.PlaceExcluding(g, k, exclude)
		if err != nil {
			return pulled, err
		}
		if deputy.AS == owner {
			continue // the rehash chain led back here: nothing to move
		}
		st := ns.loaded(deputy.AS)
		if st == nil {
			continue
		}
		e, ok := st.Get(g)
		if !ok {
			continue
		}
		dst, err := ns.store(owner)
		if err != nil {
			return pulled, err
		}
		if _, err := dst.Put(e); err != nil {
			return pulled, err
		}
		pulled = true
		replicas, err := ns.ReplicaASs(e, nil)
		if err != nil {
			return pulled, err
		}
		if !slices.Contains(replicas, deputy.AS) {
			st.Delete(g)
		}
	}
	return pulled, nil
}
