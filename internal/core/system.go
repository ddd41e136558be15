package core

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"dmap/internal/guid"
	"dmap/internal/netaddr"
	"dmap/internal/store"
)

// SystemConfig assembles a DMap deployment.
type SystemConfig struct {
	// Resolver derives placements (shared hash family + prefix table).
	Resolver *Resolver
	// NumAS bounds the AS index space (stores are allocated lazily).
	NumAS int
	// LocalReplica enables the extra per-attachment-AS copy of §III-C.
	LocalReplica bool
}

// System is an in-memory DMap deployment: one mapping store per AS plus
// the protocol logic that moves entries between them. It holds no
// latency model: the shipped client walks it over internal/nodesim's
// simulated link, which every figure of internal/experiments runs on. Insert, Delete and
// the read-only accessors are safe for concurrent use: per-AS stores are
// allocated lazily behind atomic pointers with striped locks, and each
// store serializes its own map. The BGP-churn protocol methods
// (WithdrawPrefix, AnnouncePrefix) mutate the shared prefix table and
// must still be serialized with respect to placement reads — drive churn
// from one goroutine, as the simulator does.
type System struct {
	res          *Resolver
	stores       []atomic.Pointer[store.Store]
	allocMu      [storeStripes]sync.Mutex // guards lazy store allocation only
	localReplica bool
}

// storeStripes is the number of allocation-lock stripes. Allocation is a
// one-time event per AS, so contention only matters during warm-up; 64
// stripes keep even a GOMAXPROCS-wide insert storm from serializing.
const storeStripes = 64

// NewSystem builds a deployment.
func NewSystem(cfg SystemConfig) (*System, error) {
	if cfg.Resolver == nil {
		return nil, fmt.Errorf("core: nil resolver")
	}
	if cfg.NumAS <= 0 {
		return nil, fmt.Errorf("core: NumAS must be positive, got %d", cfg.NumAS)
	}
	return &System{
		res:          cfg.Resolver,
		stores:       make([]atomic.Pointer[store.Store], cfg.NumAS),
		localReplica: cfg.LocalReplica,
	}, nil
}

// Resolver returns the placement resolver.
func (s *System) Resolver() *Resolver { return s.res }

// NumAS returns the AS index space size.
func (s *System) NumAS() int { return len(s.stores) }

// loadStore returns the mapping store of as, or nil if none has been
// allocated yet. Safe for concurrent use.
func (s *System) loadStore(as int) *store.Store {
	return s.stores[as].Load()
}

// storeAt returns (allocating if needed) the mapping store of as. The
// fast path is one atomic load; allocation double-checks under the AS's
// stripe lock so concurrent callers agree on a single store.
func (s *System) storeAt(as int) *store.Store {
	if st := s.stores[as].Load(); st != nil {
		return st
	}
	mu := &s.allocMu[as%storeStripes]
	mu.Lock()
	defer mu.Unlock()
	if st := s.stores[as].Load(); st != nil {
		return st
	}
	st := store.New()
	s.stores[as].Store(st)
	return st
}

// Store exposes the mapping store of as (allocating it if needed), for
// simulated nodes that answer protocol messages themselves.
func (s *System) Store(as int) (*store.Store, error) {
	if as < 0 || as >= len(s.stores) {
		return nil, fmt.Errorf("core: AS %d out of range [0,%d)", as, len(s.stores))
	}
	return s.storeAt(as), nil
}

// LocalReplicaEnabled reports whether §III-C local replication is on.
func (s *System) LocalReplicaEnabled() bool { return s.localReplica }

// Insert stores e's mapping at its K global replicas, plus a local copy
// at srcAS when local replication is on (§III-C). It returns the global
// placements. An update is an Insert with a higher version: the store
// keeps the highest version (§III-D2), so a reordered stale update is a
// no-op.
func (s *System) Insert(e store.Entry, srcAS int) ([]Placement, error) {
	if srcAS < 0 || srcAS >= len(s.stores) {
		return nil, fmt.Errorf("core: srcAS %d out of range [0,%d)", srcAS, len(s.stores))
	}
	placements, err := s.res.Place(e.GUID)
	if err != nil {
		return nil, err
	}
	for _, p := range placements {
		if _, err := s.storeAt(p.AS).Put(e); err != nil {
			return nil, fmt.Errorf("core: insert at AS %d: %w", p.AS, err)
		}
	}
	if s.localReplica {
		if _, err := s.storeAt(srcAS).Put(e); err != nil {
			return nil, fmt.Errorf("core: local insert at AS %d: %w", srcAS, err)
		}
	}
	return placements, nil
}

// ConsistencyReport summarizes an audit of the deployment's invariants.
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

// Ok reports a fully consistent deployment.
func (r ConsistencyReport) Ok() bool {
	return r.MissingReplicas == 0 && r.VersionSkews == 0 && r.Strays == 0
}

// String formats the report.
func (r ConsistencyReport) String() string {
	return fmt.Sprintf("mappings=%d missingReplicas=%d versionSkews=%d strays=%d",
		r.Mappings, r.MissingReplicas, r.VersionSkews, r.Strays)
}

// VerifyConsistency audits the whole deployment against the placement
// function: every GUID stored anywhere must be present at each of its K
// computed replicas with one agreed version, and no AS may hold a
// mapping it should not (modulo local replicas, which may live at any
// attachment AS listed in the entry's NAs). Quiesce the system first;
// the audit reads every store.
func (s *System) VerifyConsistency() (ConsistencyReport, error) {
	var rep ConsistencyReport

	// Collect the union of stored GUIDs and who holds them.
	holders := make(map[guid.GUID]map[int]uint64) // guid → AS → version
	for as := range s.stores {
		st := s.loadStore(as)
		if st == nil {
			continue
		}
		st.Range(func(e store.Entry) bool {
			m, ok := holders[e.GUID]
			if !ok {
				m = make(map[int]uint64, s.res.K()+1)
				holders[e.GUID] = m
			}
			m[as] = e.Version
			return true
		})
	}

	for g, byAS := range holders {
		rep.Mappings++
		placements, err := s.res.Place(g)
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
		if s.localReplica {
			for as := range byAS {
				var e store.Entry
				if st := s.loadStore(as); st != nil {
					e, _ = st.Get(g)
				}
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

// WithdrawPrefix implements the §III-D1 withdrawal protocol: before the
// prefix disappears from the table, the withdrawing AS extracts every
// mapping it hosts whose placement address lies in p and pushes each to
// its deputy (the AS Algorithm 1 reaches once p is gone). Queries issued
// afterwards hit the hole, follow the same rehash chain, and find the
// deputy naturally. It returns the number of migrated mappings.
func (s *System) WithdrawPrefix(p netaddr.Prefix, owner int) (int, error) {
	if owner < 0 || owner >= len(s.stores) {
		return 0, fmt.Errorf("core: owner %d out of range", owner)
	}

	var orphans []store.Entry
	if st := s.loadStore(owner); st != nil {
		orphans = st.Extract(func(g guid.GUID) bool {
			// The mapping is orphaned if one of its placements selected
			// this AS via an address inside p.
			for k := 0; k < s.res.K(); k++ {
				pl, err := s.res.PlaceReplica(g, k)
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

	if !s.res.table.Withdraw(p) {
		// Refused: the owner keeps what it hosted.
		for _, e := range orphans {
			if _, err := s.storeAt(owner).Put(e); err != nil {
				return 0, err
			}
		}
		return 0, fmt.Errorf("core: prefix %v not announced", p)
	}

	// With the prefix gone, Algorithm 1 lands each orphan on its deputy;
	// re-placing all K replicas is idempotent for the unaffected ones
	// (the store rejects non-newer versions it already holds).
	migrated := 0
	for _, e := range orphans {
		for k := 0; k < s.res.K(); k++ {
			pl, err := s.res.PlaceReplica(e.GUID, k)
			if err != nil {
				return migrated, err
			}
			if _, err := s.storeAt(pl.AS).Put(e); err != nil {
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
func (s *System) AnnouncePrefix(p netaddr.Prefix, owner int) error {
	if owner < 0 || owner >= len(s.stores) {
		return fmt.Errorf("core: owner %d out of range", owner)
	}
	return s.res.table.Announce(p, owner)
}

// RepairMiss is the lazy migration triggered by a "GUID missing" reply
// from a freshly announcing AS: for every replica the announcement
// captured, locate the old deputy by excluding the new prefix from
// Algorithm 1 and pull the mapping from it to the announcing AS. The
// deputy gives its copy up only when it hosts g for no other reason —
// it may be another of g's K placements, or the announcing AS itself.
// It reports whether a mapping was recovered.
func (s *System) RepairMiss(g guid.GUID, announced netaddr.Prefix, owner int) (bool, error) {
	exclude := func(a netaddr.Addr) bool { return announced.Contains(a) }
	pulled := false
	for k := 0; k < s.res.K(); k++ {
		pl, err := s.res.PlaceReplica(g, k)
		if err != nil {
			return pulled, err
		}
		if pl.AS != owner || !announced.Contains(pl.Addr) {
			continue // this replica is not affected by the announcement
		}
		deputy, err := s.res.PlaceExcluding(g, k, exclude)
		if err != nil {
			return pulled, err
		}
		if deputy.AS == owner {
			continue // the rehash chain led back here: nothing to move
		}
		st := s.loadStore(deputy.AS)
		if st == nil {
			continue
		}
		e, ok := st.Get(g)
		if !ok {
			continue
		}
		if _, err := s.storeAt(owner).Put(e); err != nil {
			return pulled, err
		}
		pulled = true
		replicas, err := s.ReplicaASs(e, nil)
		if err != nil {
			return pulled, err
		}
		if !slices.Contains(replicas, deputy.AS) {
			st.Delete(g)
		}
	}
	return pulled, nil
}

// ReplicaASs appends to dst the ASs that replicate e and dst does not
// already hold: its K global placements and — with §III-C local
// replicas on — the attachment ASs the entry names. Passing one dst
// across entries collects the union of their replica sets.
func (s *System) ReplicaASs(e store.Entry, dst []int) ([]int, error) {
	placements, err := s.res.Place(e.GUID)
	if err != nil {
		return dst, err
	}
	for _, p := range placements {
		if !slices.Contains(dst, p.AS) {
			dst = append(dst, p.AS)
		}
	}
	if s.localReplica {
		for _, na := range e.NAs {
			if !slices.Contains(dst, na.AS) {
				dst = append(dst, na.AS)
			}
		}
	}
	return dst, nil
}
