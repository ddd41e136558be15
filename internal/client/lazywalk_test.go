// The read walks follow Algorithm 1's placement order and place replica
// i only as they reach it, over TCP and over a Network that knows no
// RTT; over one that does, a lookup places all K up front and asks the
// closest first. These tests pin the walks — contact order, failover
// count, results — through scripted Networks, so every pattern of
// failing and missing replicas is staged without sockets.
package client

import (
	"cmp"
	"errors"
	"fmt"
	"net"
	"reflect"
	"slices"
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
	c.net = synchronous(sc.roundTrip)
	return sc
}

func walkTable(t *testing.T) *prefixtable.Table {
	t.Helper()
	tbl, err := prefixtable.Generate(prefixtable.GenConfig{NumAS: 16, NumPrefixes: 192, Seed: 5})
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
	sc.checkLookupFates(t, g, sc.placedASs(t, g))
}

// TestRTTLookupWalkAsksClosestFirst: over a Network that knows the RTT
// to a replica the lookup asks the replicas it knows by (RTT, AS), and
// the others after them in placement order; failovers, the re-ask and
// the results follow that order.
func TestRTTLookupWalkAsksClosestFirst(t *testing.T) {
	sc := newWalkCluster(t, walkTable(t), Config{})
	g := sc.distinctGUIDs(t, 1)[0]
	ases := sc.placedASs(t, g)
	far := func(as int) time.Duration { return time.Duration(100-as) * time.Millisecond }
	byRTT := slices.Clone(ases)
	slices.SortFunc(byRTT, func(x, y int) int { return cmp.Compare(far(x), far(y)) })
	for _, tc := range []struct {
		name  string
		known func(as int) bool
		want  []int
	}{
		{"every RTT known", func(int) bool { return true }, byRTT},
		{"last replica's RTT known", func(as int) bool { return as == ases[2] }, []int{ases[2], ases[0], ases[1]}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sc.Cluster.net = knowsRTT{synchronous(sc.roundTrip), func(as int) (time.Duration, bool) { return far(as), tc.known(as) }}
			sc.checkLookupFates(t, g, tc.want)
		})
	}
}

// knowsRTT is a script that knows the round trips rtt reports.
type knowsRTT struct {
	script
	rtt func(as int) (time.Duration, bool)
}

func (k knowsRTT) RTT(as int) (time.Duration, bool) { return k.rtt(as) }

// checkLookupFates stages every hit/miss/fail pattern over g's replicas
// and checks that a lookup asks them in order — three distinct ASs —
// stopping at the first hit, counting a failover for each failure with
// an AS left to ask, and, with no hit, asking the first to miss once
// more.
func (sc *walkCluster) checkLookupFates(t *testing.T, g guid.GUID, order []int) {
	t.Helper()
	for _, fates := range allFates() {
		fate := make(map[int]replicaFate)
		var wantContacts []int
		wantFailovers, wantFound, anyFailed, missed := int64(0), false, false, -1
		for i, f := range fates {
			fate[order[i]] = f
			if wantFound {
				continue
			}
			wantContacts = append(wantContacts, order[i])
			if f == fateFail {
				anyFailed = true
				if i < walkK-1 {
					wantFailovers++
				}
			}
			if f == fateMiss && missed < 0 {
				missed = order[i]
			}
			wantFound = f == fateHit
		}
		if !wantFound && missed >= 0 {
			wantContacts = append(wantContacts, missed)
		}
		sc.reset(fate)
		before := sc.Stats().Failovers
		var e store.Entry
		err := sc.LookupInto(g, &e)
		if got := sc.contacts[g]; !reflect.DeepEqual(got, wantContacts) {
			t.Errorf("%v: contacted ASs %v, want %v (walk order %v)", fates, got, wantContacts, order)
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

// TestReadWalksAskEachASOnce: a dead AS that two placements share costs
// one contact and one failover at most, in both read walks — placed
// [A A B] with A dead, the live B serves; placed [A B B] with both dead,
// the walk fails over from A to B and, with no AS left, no further.
// Asking the dead AS for its second placement would pay its whole retry
// budget again for an answer the walk already has. Over TCP, where the
// walk places replica i only as it reaches it, a dead cluster costs a
// GUID one failover per distinct replica AS but the last.
func TestReadWalksAskEachASOnce(t *testing.T) {
	sc := newWalkCluster(t, walkTable(t), Config{})
	placedLike := func(same func(ases []int) bool) (guid.GUID, []int) {
		for i := 0; ; i++ {
			g := guid.New(fmt.Sprintf("collide-%d", i))
			if ases := sc.placedASs(t, g); same(ases) {
				return g, ases
			}
		}
	}
	aab, aabASs := placedLike(func(a []int) bool { return a[0] == a[1] && a[2] != a[0] })
	abb, abbASs := placedLike(func(a []int) bool { return a[1] == a[2] && a[0] != a[1] })
	cases := []struct {
		name     string
		g        guid.GUID
		fate     map[int]replicaFate
		contacts []int
		found    bool
	}{
		{"[A A B]", aab, map[int]replicaFate{aabASs[0]: fateFail, aabASs[2]: fateHit}, []int{aabASs[0], aabASs[2]}, true},
		{"[A B B]", abb, map[int]replicaFate{abbASs[0]: fateFail, abbASs[1]: fateFail}, []int{abbASs[0], abbASs[1]}, false},
	}
	for _, tc := range cases {
		lookups := map[string]func() bool{
			"LookupInto": func() bool {
				var e store.Entry
				return sc.LookupInto(tc.g, &e) == nil && e.GUID == tc.g
			},
			"LookupBatch": func() bool {
				entries, found, err := sc.LookupBatch([]guid.GUID{tc.g})
				return err == nil && found[0] && entries[0].GUID == tc.g
			},
		}
		for name, lookup := range lookups {
			sc.reset(tc.fate)
			before := sc.Stats().Failovers
			if got := lookup(); got != tc.found {
				t.Errorf("%s %s: found %v, want %v", tc.name, name, got, tc.found)
			}
			if got := sc.contacts[tc.g]; !reflect.DeepEqual(got, tc.contacts) {
				t.Errorf("%s %s: contacted ASs %v, want %v", tc.name, name, got, tc.contacts)
			}
			if got := sc.Stats().Failovers - before; got != 1 {
				t.Errorf("%s %s: %d failovers, want 1 (one AS abandoned)", tc.name, name, got)
			}
		}
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	dead := ln.Addr().String()
	ln.Close()
	addrs := make(map[int]string, 16)
	for as := 0; as < 16; as++ {
		addrs[as] = dead
	}
	tcp, err := NewWithConfig(sc.resolver, addrs, Config{Timeout: time.Second, Retry: RetryPolicy{MaxAttempts: 1}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(tcp.Close)
	for _, g := range []guid.GUID{aab, abb} {
		before := tcp.Stats().Failovers
		if _, err := tcp.Lookup(g); err == nil {
			t.Fatalf("TCP lookup of %v with every node down succeeded", g.Short())
		}
		if got := tcp.Stats().Failovers - before; got != 1 {
			t.Errorf("TCP lookup of %v (placed on %v): %d failovers, want 1", g.Short(), sc.placedASs(t, g), got)
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
	scripted := sc.net.(script)
	for name, breakReply := range breaks {
		sc.net = script(func(addr string, mt wire.MsgType, tc trace.Context, payload []byte, timeout time.Duration) (wire.MsgType, []byte, Reply, error) {
			rt, body, p, err := scripted(addr, mt, tc, payload, timeout)
			if addr == strconv.Itoa(bad) && err == nil {
				body = breakReply(body)
			}
			return rt, body, p, err
		})
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
	sc.net = synchronous(func(_ string, mt wire.MsgType, _ trace.Context, payload []byte, _ time.Duration) (wire.MsgType, []byte, error) {
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
	inner := sc.net.(script)
	sc.net = script(func(addr string, mt wire.MsgType, tc trace.Context, payload []byte, timeout time.Duration) (wire.MsgType, []byte, Reply, error) {
		time.Sleep(30 * time.Millisecond) // the first attempt outlives the whole budget
		return inner(addr, mt, tc, payload, timeout)
	})
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
	sc.net = synchronous(func(_ string, mt wire.MsgType, _ trace.Context, payload []byte, _ time.Duration) (wire.MsgType, []byte, error) {
		if mt != wire.MsgBatchInsert {
			return 0, nil, fmt.Errorf("stub transport: unexpected %v", mt)
		}
		n := int(payload[0])<<8 | int(payload[1])
		ack := append(wire.Replies.Get(2+n), payload[:2]...)
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
	sc.net = synchronous(func(_ string, mt wire.MsgType, _ trace.Context, payload []byte, _ time.Duration) (wire.MsgType, []byte, error) {
		if mt != wire.MsgBatchLookup {
			return 0, nil, fmt.Errorf("stub transport: unexpected %v", mt)
		}
		n, gs, err := wire.DecodeBatchCount(payload)
		if err != nil {
			return 0, nil, err
		}
		body := append(wire.Replies.Get(2+n*64), payload[:2]...)
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
	for _, p := range []*wire.BufPool{wire.Replies, payloadBufs} {
		for p.Idle() > 0 {
			p.Get(0)
		}
	}
}
