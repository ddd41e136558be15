// The read walks place replica i only as they reach it. These tests pin
// that this is the same walk as placing all K up front: same contact
// order, same failover count, same results — through a scripted
// transport, so every pattern of failing and missing replicas is staged
// without sockets.
package client

import (
	"errors"
	"fmt"
	"reflect"
	"strconv"
	"sync"
	"testing"
	"time"

	"dmap/internal/core"
	"dmap/internal/guid"
	"dmap/internal/netaddr"
	"dmap/internal/prefixtable"
	"dmap/internal/store"
	"dmap/internal/trace"
	"dmap/internal/wire"
)

// replicaFate is what a scripted AS does with every request it gets.
type replicaFate int

const (
	fateHit  replicaFate = iota // holds the mapping
	fateMiss                    // answers, does not hold it
	fateFail                    // connection error
)

func (f replicaFate) String() string { return [...]string{"hit", "miss", "fail"}[f] }

// walkCluster is a Cluster over a 16-AS table whose transport is a
// script: fate[as] decides each reply, contacts records who was asked for
// which GUID, in order.
type walkCluster struct {
	*Cluster

	mu       sync.Mutex
	fate     map[int]replicaFate
	contacts map[guid.GUID][]int
	calls    int
}

const walkK = 3

func newWalkCluster(t *testing.T, tbl *prefixtable.Table, cfg Config) *walkCluster {
	t.Helper()
	resolver, err := core.NewResolver(guid.MustHasher(walkK, 0), tbl, 0)
	if err != nil {
		t.Fatal(err)
	}
	const numAS = 16
	addrs := make(map[int]string, numAS)
	for as := 0; as < numAS; as++ {
		addrs[as] = strconv.Itoa(as)
	}
	cfg.Retry = RetryPolicy{MaxAttempts: 1}
	c, err := NewWithConfig(resolver, addrs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	sc := &walkCluster{Cluster: c}
	sc.reset(nil)
	c.transport = synchronous(sc.roundTrip)
	return sc
}

func walkTable(t *testing.T) *prefixtable.Table {
	t.Helper()
	tbl, err := prefixtable.Generate(prefixtable.GenConfig{NumAS: 16, NumPrefixes: 192, AnnouncedFraction: 0.52, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	return tbl
}

func (sc *walkCluster) reset(fate map[int]replicaFate) {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	sc.fate, sc.contacts, sc.calls = fate, make(map[guid.GUID][]int), 0
}

func (sc *walkCluster) roundTrip(addr string, mt wire.MsgType, _ trace.Context, payload []byte, _ time.Duration) (wire.MsgType, []byte, error) {
	as, err := strconv.Atoi(addr)
	if err != nil {
		return 0, nil, err
	}
	var gs []guid.GUID
	switch mt {
	case wire.MsgLookup, wire.MsgDelete:
		g, _, err := wire.DecodeGUID(payload)
		if err != nil {
			return 0, nil, err
		}
		gs = []guid.GUID{g}
	case wire.MsgBatchLookup:
		if gs, err = wire.DecodeBatchLookup(payload); err != nil {
			return 0, nil, err
		}
	default:
		return 0, nil, fmt.Errorf("scripted transport: unexpected %v", mt)
	}
	sc.mu.Lock()
	sc.calls++
	for _, g := range gs {
		sc.contacts[g] = append(sc.contacts[g], as)
	}
	fate := sc.fate[as]
	sc.mu.Unlock()
	if fate == fateFail {
		return 0, nil, errors.New("connection reset")
	}
	hit := fate == fateHit
	switch mt {
	case wire.MsgDelete:
		ack := byte(0)
		if hit {
			ack = 1
		}
		return wire.MsgDeleteAck, []byte{ack}, nil
	case wire.MsgLookup:
		body, err := wire.AppendLookupResp(nil, wire.LookupResp{Found: hit, Entry: walkEntry(gs[0])})
		return wire.MsgLookupResp, body, err
	default:
		rs := make([]wire.LookupResp, len(gs))
		for i, g := range gs {
			rs[i] = wire.LookupResp{Found: hit, Entry: walkEntry(g)}
		}
		body, err := wire.AppendBatchLookupResp(nil, rs)
		return wire.MsgBatchLookupResp, body, err
	}
}

func walkEntry(g guid.GUID) store.Entry {
	return store.Entry{GUID: g, NAs: []store.NA{{AS: 3, Addr: 7}}, Version: 1}
}

// placedASs returns resolver.Place(g)'s ASs, the order every walk must
// follow.
func (sc *walkCluster) placedASs(t *testing.T, g guid.GUID) []int {
	t.Helper()
	ps, err := sc.resolver.Place(g)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]int, len(ps))
	for i, p := range ps {
		out[i] = p.AS
	}
	return out
}

// distinctGUIDs returns n GUIDs whose K replicas land on K different
// ASs, so a per-AS fate is a per-replica fate.
func (sc *walkCluster) distinctGUIDs(t *testing.T, n int) []guid.GUID {
	t.Helper()
	var out []guid.GUID
	for i := 0; len(out) < n; i++ {
		g := guid.New(fmt.Sprintf("lazy-walk-%d", i))
		ases := sc.placedASs(t, g)
		if ases[0] != ases[1] && ases[0] != ases[2] && ases[1] != ases[2] {
			out = append(out, g)
		}
	}
	return out
}

// allFates enumerates every assignment of hit/miss/fail to K replicas.
func allFates() [][walkK]replicaFate {
	var out [][walkK]replicaFate
	for code := 0; code < 27; code++ {
		out = append(out, [walkK]replicaFate{replicaFate(code % 3), replicaFate(code / 3 % 3), replicaFate(code / 9)})
	}
	return out
}

func TestLazyLookupWalkMatchesPlaceOrder(t *testing.T) {
	sc := newWalkCluster(t, walkTable(t), Config{})
	g := sc.distinctGUIDs(t, 1)[0]
	ases := sc.placedASs(t, g)
	for _, fates := range allFates() {
		fate := make(map[int]replicaFate)
		// The walk must stop at the first hit; a failure anywhere but on
		// the last replica is a failover.
		var wantContacts []int
		wantFailovers, wantFound, anyFailed := int64(0), false, false
		for i, f := range fates {
			fate[ases[i]] = f
			if wantFound {
				continue
			}
			wantContacts = append(wantContacts, ases[i])
			if f == fateFail {
				anyFailed = true
				if i < walkK-1 {
					wantFailovers++
				}
			}
			wantFound = f == fateHit
		}
		sc.reset(fate)
		before := sc.Stats().Failovers
		var e store.Entry
		err := sc.LookupInto(g, &e)
		if got := sc.contacts[g]; !reflect.DeepEqual(got, wantContacts) {
			t.Errorf("%v: contacted ASs %v, want %v (Place order %v)", fates, got, wantContacts, ases)
		}
		if got := sc.Stats().Failovers - before; got != wantFailovers {
			t.Errorf("%v: %d failovers, want %d", fates, got, wantFailovers)
		}
		switch {
		case wantFound:
			if err != nil || e.GUID != g || e.Version != 1 {
				t.Errorf("%v: LookupInto = %v, entry %+v; want the scripted entry", fates, err, e)
			}
		case !errors.Is(err, ErrNotFound):
			t.Errorf("%v: err = %v, want ErrNotFound", fates, err)
		case anyFailed == (err == ErrNotFound):
			t.Errorf("%v: err = %q: the last failure rides along exactly when a replica failed", fates, err)
		}
	}
}

func TestLazyDeleteWalkMatchesPlaceOrder(t *testing.T) {
	sc := newWalkCluster(t, walkTable(t), Config{})
	g := sc.distinctGUIDs(t, 1)[0]
	ases := sc.placedASs(t, g)
	for _, fates := range allFates() {
		fate := make(map[int]replicaFate)
		wantRemoved := 0
		for i, f := range fates {
			fate[ases[i]] = f
			if f == fateHit {
				wantRemoved++
			}
		}
		sc.reset(fate)
		removed, err := sc.Delete(g)
		if err != nil || removed != wantRemoved {
			t.Errorf("%v: Delete = %d, %v; want %d", fates, removed, err, wantRemoved)
		}
		if got := sc.contacts[g]; !reflect.DeepEqual(got, ases) {
			t.Errorf("%v: contacted ASs %v, want all of Place order %v", fates, got, ases)
		}
	}
}

// TestLazyLookupBatchWalkMatchesPlaceOrder: in every round each pending
// GUID is asked at its next replica in Place order, a failed chunk rolls
// whole into the next round and counts one failover per GUID unless it
// was the last round, and what comes back is what the replicas held.
func TestLazyLookupBatchWalkMatchesPlaceOrder(t *testing.T) {
	sc := newWalkCluster(t, walkTable(t), Config{})
	gs := sc.distinctGUIDs(t, 40)
	for seed := 0; seed < 60; seed++ {
		// Fates per AS from the seed; seed 0 is the healthy cluster.
		fate := make(map[int]replicaFate)
		for as := 0; as < 16; as++ {
			if seed > 0 {
				fate[as] = replicaFate((seed*7 + as*as + as*seed) % 3)
			}
		}
		wantContacts := make(map[guid.GUID][]int)
		wantFound := make([]bool, len(gs))
		wantFailovers := int64(0)
		for i, g := range gs {
			for r, as := range sc.placedASs(t, g) {
				wantContacts[g] = append(wantContacts[g], as)
				if fate[as] == fateFail && r < walkK-1 {
					wantFailovers++
				}
				if fate[as] == fateHit {
					wantFound[i] = true
					break
				}
			}
		}
		sc.reset(fate)
		before := sc.Stats().Failovers
		entries, found, err := sc.LookupBatch(gs)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !reflect.DeepEqual(sc.contacts, wantContacts) {
			t.Errorf("seed %d: contacts %v, want %v", seed, sc.contacts, wantContacts)
		}
		if !reflect.DeepEqual(found, wantFound) {
			t.Errorf("seed %d: found %v, want %v", seed, found, wantFound)
		}
		for i, ok := range found {
			if ok && entries[i].GUID != gs[i] {
				t.Errorf("seed %d: entry %d is for %v, want %v", seed, i, entries[i].GUID.Short(), gs[i].Short())
			}
		}
		if got := sc.Stats().Failovers - before; got != wantFailovers {
			t.Errorf("seed %d: %d failovers, want %d", seed, got, wantFailovers)
		}
		if seed == 0 && sc.calls > 16 {
			t.Errorf("healthy batch took %d frames, want one round of at most one per AS", sc.calls)
		}
	}
}

// TestReadWalksAskEachASOnce: a GUID whose first two placements share a
// dead AS costs one contact with it and one failover, after which its
// third, live replica serves — in both read walks. Asking the dead AS for
// the second placement too would pay its whole retry budget again for an
// answer the walk already has.
func TestReadWalksAskEachASOnce(t *testing.T) {
	sc := newWalkCluster(t, walkTable(t), Config{})
	var g guid.GUID
	var ases []int
	for i := 0; ; i++ {
		g = guid.New(fmt.Sprintf("collide-%d", i))
		if ases = sc.placedASs(t, g); ases[0] == ases[1] && ases[2] != ases[0] {
			break
		}
	}
	dead, live := ases[0], ases[2]
	fate := map[int]replicaFate{dead: fateFail, live: fateHit}
	lookups := map[string]func() bool{
		"LookupInto": func() bool {
			var e store.Entry
			return sc.LookupInto(g, &e) == nil && e.GUID == g
		},
		"LookupBatch": func() bool {
			entries, found, err := sc.LookupBatch([]guid.GUID{g})
			return err == nil && found[0] && entries[0].GUID == g
		},
	}
	for name, lookup := range lookups {
		sc.reset(fate)
		before := sc.Stats().Failovers
		if !lookup() {
			t.Errorf("%s: %v (placed on %v) not served by the live AS %d", name, g.Short(), ases, live)
		}
		if got := sc.contacts[g]; !reflect.DeepEqual(got, []int{dead, live}) {
			t.Errorf("%s: contacted ASs %v, want [%d %d] (placed on %v)", name, got, dead, live, ases)
		}
		if got := sc.Stats().Failovers - before; got != 1 {
			t.Errorf("%s: %d failovers, want 1 (one AS abandoned)", name, got)
		}
	}
}

// TestLookupBatchChunkCommitsWhole: a chunk reply that breaks after valid
// answers — cut short, miscounted, or with a bad found flag — marks none
// of its GUIDs found, and they are asked at their next replica. Where the
// other replicas miss, every entry the call returns unresolved is zero,
// although the broken chunk decoded some before it broke.
func TestLookupBatchChunkCommitsWhole(t *testing.T) {
	sc := newWalkCluster(t, walkTable(t), Config{})
	gs := sc.distinctGUIDs(t, 40)
	// The broken AS is the first replica of the most GUIDs, so its chunk
	// has valid answers before the break.
	firsts := make(map[int]int)
	bad := 0
	for _, g := range gs {
		as := sc.placedASs(t, g)[0]
		if firsts[as]++; firsts[as] > firsts[bad] {
			bad = as
		}
	}
	if firsts[bad] < 2 {
		t.Fatalf("no AS is the first replica of two GUIDs: %v", firsts)
	}
	hit, err := wire.AppendLookupResp(nil, wire.LookupResp{Found: true, Entry: walkEntry(gs[0])})
	if err != nil {
		t.Fatal(err)
	}
	breaks := map[string]func([]byte) []byte{
		"truncated":  func(b []byte) []byte { return b[:len(b)-1] },
		"wrongCount": func(b []byte) []byte { b[1]++; return b },
		"badFlag":    func(b []byte) []byte { b[len(b)-len(hit)] = 2; return b },
	}
	scripted := sc.transport
	for name, breakReply := range breaks {
		sc.transport = func(addr string, mt wire.MsgType, tc trace.Context, payload []byte, timeout time.Duration) (wire.MsgType, []byte, pending, error) {
			rt, body, p, err := scripted(addr, mt, tc, payload, timeout)
			if addr == strconv.Itoa(bad) && err == nil {
				body = breakReply(body)
			}
			return rt, body, p, err
		}
		for _, others := range []replicaFate{fateHit, fateMiss} {
			fate := map[int]replicaFate{bad: fateHit}
			for as := 0; as < 16; as++ {
				if as != bad {
					fate[as] = others
				}
			}
			wantContacts := make(map[guid.GUID][]int)
			for _, g := range gs {
				for _, as := range sc.placedASs(t, g) {
					wantContacts[g] = append(wantContacts[g], as)
					if as != bad && others == fateHit {
						break
					}
				}
			}
			sc.reset(fate)
			entries, found, err := sc.LookupBatch(gs)
			if err != nil {
				t.Fatalf("%s, others %v: %v", name, others, err)
			}
			if !reflect.DeepEqual(sc.contacts, wantContacts) {
				t.Errorf("%s, others %v: contacts %v, want %v", name, others, sc.contacts, wantContacts)
			}
			for i, g := range gs {
				switch {
				case found[i] != (others == fateHit):
					t.Errorf("%s, others %v: %v found = %v", name, others, g.Short(), found[i])
				case found[i] && !reflect.DeepEqual(entries[i], walkEntry(g)):
					t.Errorf("%s, others %v: %v resolved to %+v", name, others, g.Short(), entries[i])
				case !found[i] && !reflect.DeepEqual(entries[i], store.Entry{}):
					t.Errorf("%s, others %v: unresolved %v holds %+v, want the zero entry", name, others, g.Short(), entries[i])
				}
			}
		}
	}
}

// TestLookupBatchMultiHomedEntriesDoNotAlias: the found entries' NAs are
// carved from one shared array, each capped at its own length, so an
// append to one entry's NAs never writes into its neighbour's.
func TestLookupBatchMultiHomedEntriesDoNotAlias(t *testing.T) {
	sc := newWalkCluster(t, walkTable(t), Config{})
	entryFor := func(g guid.GUID) store.Entry {
		e := store.Entry{GUID: g, Version: 2}
		for j := 0; j <= int(g[0])%store.MaxNAs; j++ {
			e.NAs = append(e.NAs, store.NA{AS: int(g[1]) + j, Addr: netaddr.Addr(g[2]) + netaddr.Addr(j)})
		}
		return e
	}
	sc.transport = synchronous(func(_ string, mt wire.MsgType, _ trace.Context, payload []byte, _ time.Duration) (wire.MsgType, []byte, error) {
		gs, err := wire.DecodeBatchLookup(payload)
		if err != nil {
			return 0, nil, err
		}
		rs := make([]wire.LookupResp, len(gs))
		for i, g := range gs {
			rs[i] = wire.LookupResp{Found: true, Entry: entryFor(g)}
		}
		body, err := wire.AppendBatchLookupResp(nil, rs)
		return wire.MsgBatchLookupResp, body, err
	})
	gs := make([]guid.GUID, 200)
	for i := range gs {
		gs[i] = guid.New(fmt.Sprintf("multi-homed-%d", i))
	}
	entries, found, err := sc.LookupBatch(gs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range gs {
		if !found[i] {
			t.Fatalf("%v not found", gs[i].Short())
		}
		_ = append(entries[i].NAs, store.NA{AS: -1}, store.NA{AS: -2})
	}
	for i, g := range gs {
		if want := entryFor(g); !reflect.DeepEqual(entries[i], want) {
			t.Errorf("entry %d = %+v after its neighbours' appends, want %+v", i, entries[i], want)
		}
	}
}

// TestLazyWalkStopsAtDeadline: once the operation's budget is spent the
// walk asks nobody further and reports ErrDeadline.
func TestLazyWalkStopsAtDeadline(t *testing.T) {
	sc := newWalkCluster(t, walkTable(t), Config{Timeout: time.Second, OpDeadline: 20 * time.Millisecond})
	g := sc.distinctGUIDs(t, 1)[0]
	ases := sc.placedASs(t, g)
	sc.reset(map[int]replicaFate{ases[0]: fateFail, ases[1]: fateHit, ases[2]: fateHit})
	inner := sc.transport
	sc.transport = func(addr string, mt wire.MsgType, tc trace.Context, payload []byte, timeout time.Duration) (wire.MsgType, []byte, pending, error) {
		time.Sleep(30 * time.Millisecond) // the first attempt outlives the whole budget
		return inner(addr, mt, tc, payload, timeout)
	}
	var e store.Entry
	if err := sc.LookupInto(g, &e); !errors.Is(err, ErrDeadline) {
		t.Errorf("LookupInto = %v, want ErrDeadline", err)
	}
	if got := sc.contacts[g]; !reflect.DeepEqual(got, ases[:1]) {
		t.Errorf("lookup contacted %v after the deadline, want only %v", got, ases[:1])
	}
	sc.reset(sc.fate)
	if removed, err := sc.Delete(g); removed != 0 || err != nil {
		t.Errorf("Delete = %d, %v; want 0, nil", removed, err)
	}
	if got := sc.contacts[g]; !reflect.DeepEqual(got, ases[:1]) {
		t.Errorf("delete contacted %v after the deadline, want only %v", got, ases[:1])
	}
}

// TestEmptyTableFailsBeforeNetwork: with no prefix announced nothing can
// be placed, and every operation says so without a single round trip.
func TestEmptyTableFailsBeforeNetwork(t *testing.T) {
	sc := newWalkCluster(t, prefixtable.New(), Config{})
	g := guid.New("nowhere")
	var e store.Entry
	if err := sc.LookupInto(g, &e); !errors.Is(err, core.ErrNoPrefixes) {
		t.Errorf("LookupInto = %v, want ErrNoPrefixes", err)
	}
	if _, err := sc.Delete(g); !errors.Is(err, core.ErrNoPrefixes) {
		t.Errorf("Delete = %v, want ErrNoPrefixes", err)
	}
	if _, _, err := sc.LookupBatch([]guid.GUID{g}); !errors.Is(err, core.ErrNoPrefixes) {
		t.Errorf("LookupBatch = %v, want ErrNoPrefixes", err)
	}
	if _, err := sc.InsertBatch([]store.Entry{walkEntry(g)}); !errors.Is(err, core.ErrNoPrefixes) {
		t.Errorf("InsertBatch = %v, want ErrNoPrefixes", err)
	}
	if sc.calls != 0 {
		t.Errorf("%d round trips against an empty table, want 0", sc.calls)
	}
}

// TestInsertBatchAllocBudget: grouping a batch by replica AS places the
// whole batch into one slice and dedupes colliding replicas by scanning
// it, where it used to allocate a placement slice per entry (its
// per-entry map never left the stack), and its frames are started from
// the calling goroutine out of one reused staging slice and one attempt
// slice sized for the groups, where each chunk used to get a goroutine,
// a closure and a staging slice of its own. 64 entries over 16 ASs cost
// 213 allocations at first, then 150, then 110, and 108 now; the budget
// leaves room for a runtime that sizes the group slices differently, not
// for the per-entry or per-chunk costs to come back.
func TestInsertBatchAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	sc := newWalkCluster(t, walkTable(t), Config{})
	sc.transport = synchronous(func(_ string, mt wire.MsgType, _ trace.Context, payload []byte, _ time.Duration) (wire.MsgType, []byte, error) {
		if mt != wire.MsgBatchInsert {
			return 0, nil, fmt.Errorf("stub transport: unexpected %v", mt)
		}
		n := int(payload[0])<<8 | int(payload[1])
		ack := append(replyBufs.Get(2+n), payload[:2]...)
		for i := 0; i < n; i++ {
			ack = append(ack, 1)
		}
		return wire.MsgBatchInsertAck, ack, nil
	})
	entries := make([]store.Entry, 64)
	for i, g := range sc.distinctGUIDs(t, len(entries)) {
		entries[i] = walkEntry(g)
	}
	drainPools()
	allocs := testing.AllocsPerRun(50, func() {
		acks, err := sc.InsertBatch(entries)
		if err != nil || acks[0] != walkK {
			t.Fatalf("InsertBatch = %v, %v", acks, err)
		}
	})
	if allocs > 113 {
		t.Errorf("InsertBatch(64 entries) = %.0f allocs, want ≤ 113", allocs)
	}
}

// TestLookupBatchAllocBudget: a 64-GUID batch over 16 ASs decodes every
// chunk's answers straight into the call's entries, carving their NAs
// from one array, where each chunk used to stage a []LookupResp and an NA
// array of its own, and sizes its attempts once per round. That took it
// from 88 allocations to 58; the budget keeps TestInsertBatchAllocBudget's
// margin.
func TestLookupBatchAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	sc := newWalkCluster(t, walkTable(t), Config{})
	nas := []store.NA{{AS: 3, Addr: 7}}
	sc.transport = synchronous(func(_ string, mt wire.MsgType, _ trace.Context, payload []byte, _ time.Duration) (wire.MsgType, []byte, error) {
		if mt != wire.MsgBatchLookup {
			return 0, nil, fmt.Errorf("stub transport: unexpected %v", mt)
		}
		n, gs, err := wire.DecodeBatchCount(payload)
		if err != nil {
			return 0, nil, err
		}
		body := append(replyBufs.Get(2+n*64), payload[:2]...)
		for ; len(gs) >= guid.Size; gs = gs[guid.Size:] {
			e := store.Entry{GUID: guid.GUID(gs[:guid.Size]), NAs: nas, Version: 1}
			if body, err = wire.AppendLookupResp(body, wire.LookupResp{Found: true, Entry: e}); err != nil {
				return 0, nil, err
			}
		}
		return wire.MsgBatchLookupResp, body, nil
	})
	gs := sc.distinctGUIDs(t, 64)
	drainPools()
	allocs := testing.AllocsPerRun(50, func() {
		_, found, err := sc.LookupBatch(gs)
		if err != nil || !found[0] || !found[63] {
			t.Fatalf("LookupBatch = %v, %v", found, err)
		}
	})
	if allocs > 63 {
		t.Errorf("LookupBatch(64 GUIDs) = %.0f allocs, want ≤ 63", allocs)
	}
}

// drainPools empties the client's buffer pools, so that an allocation
// count does not depend on the buffer sizes earlier tests left there.
func drainPools() {
	for _, p := range []*wire.BufPool{replyBufs, payloadBufs} {
		for p.Idle() > 0 {
			p.Get(0)
		}
	}
}
