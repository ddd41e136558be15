package core_test

import (
	"fmt"
	"testing"

	"dmap/internal/core"
	"dmap/internal/guid"
	"dmap/internal/netaddr"
	"dmap/internal/nodesim"
	"dmap/internal/prefixtable"
	"dmap/internal/store"
)

// Core's placements as the mapping nodes host them: internal/nodesim's
// node table stores each mapping at its K placements (and, with §III-C
// local copies, at its attachment ASs), and moves mappings between them
// under the §III-D1 churn protocol. These tests read the state back from
// the nodes' stores.

// genTable is a generated 500-AS DFZ.
func genTable(t *testing.T, seed int64) *prefixtable.Table {
	t.Helper()
	tbl, err := prefixtable.Generate(prefixtable.GenConfig{NumAS: 500, NumPrefixes: 5000, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return tbl
}

// newTestNodes is a 500-AS node table placing with K = k over genTable's
// seed-11 DFZ.
func newTestNodes(t *testing.T, k int, local bool) (*nodesim.Nodes, *core.Resolver) {
	t.Helper()
	r, err := core.NewResolver(guid.MustHasher(k, 0), genTable(t, 11), 0)
	if err != nil {
		t.Fatal(err)
	}
	return newNodes(t, r, 500, local), r
}

func newNodes(t *testing.T, r *core.Resolver, numAS int, local bool) *nodesim.Nodes {
	t.Helper()
	nodes, err := nodesim.NewNodes(r, numAS, local)
	if err != nil {
		t.Fatal(err)
	}
	return nodes
}

func testEntry(name string, version uint64, as int) store.Entry {
	return store.Entry{
		GUID:    guid.New(name),
		NAs:     []store.NA{{AS: as, Addr: netaddr.AddrFromOctets(10, 0, 0, 1)}},
		Version: version,
	}
}

// insert preloads e into nodes and returns its placements under r.
func insert(t *testing.T, nodes *nodesim.Nodes, r *core.Resolver, e store.Entry) []core.Placement {
	t.Helper()
	if err := nodes.Preload(e); err != nil {
		t.Fatal(err)
	}
	placements, err := r.Place(e.GUID)
	if err != nil {
		t.Fatal(err)
	}
	return placements
}

func TestNewNodesValidation(t *testing.T) {
	if _, err := nodesim.NewNodes(nil, 10, false); err == nil {
		t.Error("nil resolver should fail")
	}
	r, _ := core.NewResolver(guid.MustHasher(1, 0), genTable(t, 1), 0)
	if _, err := nodesim.NewNodes(r, 0, false); err == nil {
		t.Error("numAS=0 should fail")
	}
}

// storeAt returns the store of AS as's node.
func storeAt(nodes *nodesim.Nodes, as int) (*store.Store, error) {
	n, err := nodes.Node(as)
	if err != nil {
		return nil, err
	}
	return n.Store(), nil
}

// replicaCopies returns g's copy at each of its K placements under r, or
// an error naming the first placement that holds none.
func replicaCopies(nodes *nodesim.Nodes, r *core.Resolver, g guid.GUID) ([]store.Entry, error) {
	placements, err := r.Place(g)
	if err != nil {
		return nil, err
	}
	out := make([]store.Entry, len(placements))
	for i, p := range placements {
		st, err := storeAt(nodes, p.AS)
		if err != nil {
			return nil, err
		}
		e, ok := st.Get(g)
		if !ok {
			return nil, fmt.Errorf("replica %d (AS %d) holds no copy of %s", i, p.AS, g.Short())
		}
		out[i] = e
	}
	return out, nil
}

// hosted returns how many mappings each of the first numAS ASs' stores
// holds.
func hosted(nodes *nodesim.Nodes, numAS int) []int {
	n := make([]int, numAS)
	for as := range n {
		st, _ := storeAt(nodes, as)
		n[as] = st.Len()
	}
	return n
}

// holds reports whether the store of as holds a copy of g.
func holds(t *testing.T, nodes *nodesim.Nodes, as int, g guid.GUID) bool {
	t.Helper()
	st, err := storeAt(nodes, as)
	if err != nil {
		t.Fatal(err)
	}
	_, ok := st.Get(g)
	return ok
}

func isPlacement(placements []core.Placement, as int) bool {
	for _, p := range placements {
		if p.AS == as {
			return true
		}
	}
	return false
}

func TestInsertLookupRoundTrip(t *testing.T) {
	nodes, r := newTestNodes(t, 5, false)
	e := testEntry("laptop", 1, 42)
	placements := insert(t, nodes, r, e)
	if len(placements) != 5 {
		t.Fatalf("placements = %d", len(placements))
	}
	// Every replica AS holds the entry as inserted.
	copies, err := replicaCopies(nodes, r, e.GUID)
	if err != nil {
		t.Fatal(err)
	}
	for i, got := range copies {
		if got.Version != 1 || len(got.NAs) != 1 || got.NAs[0].AS != 42 {
			t.Errorf("replica %d (AS %d) holds %+v", i, placements[i].AS, got)
		}
	}
	// Without local replication the attachment AS holds nothing of its
	// own.
	if !isPlacement(placements, 42) && holds(t, nodes, 42, e.GUID) {
		t.Error("attachment AS 42 kept a copy with local replication off")
	}
}

// TestInsertSrcValidation: with local copies on, an entry attached at an
// AS outside the table has nowhere to keep its §III-C copy.
func TestInsertSrcValidation(t *testing.T) {
	nodes, _ := newTestNodes(t, 1, true)
	if err := nodes.Preload(testEntry("g", 1, -1)); err == nil {
		t.Error("negative attachment AS should fail")
	}
	if err := nodes.Preload(testEntry("g", 1, 1e6)); err == nil {
		t.Error("out-of-range attachment AS should fail")
	}
}

func TestUpdateVersioning(t *testing.T) {
	nodes, r := newTestNodes(t, 3, false)
	g := guid.New("phone")
	insert(t, nodes, r, testEntry("phone", 1, 10))
	insert(t, nodes, r, testEntry("phone", 2, 20))
	// A delayed, reordered stale update must not roll back.
	insert(t, nodes, r, testEntry("phone", 1, 10))
	copies, err := replicaCopies(nodes, r, g)
	if err != nil {
		t.Fatal(err)
	}
	for i, got := range copies {
		if got.Version != 2 || got.NAs[0].AS != 20 {
			t.Errorf("after updates, replica %d holds %+v", i, got)
		}
	}
}

func TestLocalReplica(t *testing.T) {
	nodes, r := newTestNodes(t, 5, true)
	const home = 123
	e := testEntry("local", 1, home)
	insert(t, nodes, r, e)
	// The attachment AS holds the §III-C local copy beside the K
	// global replicas, and the audit counts it as expected.
	if _, err := replicaCopies(nodes, r, e.GUID); err != nil {
		t.Fatal(err)
	}
	if !holds(t, nodes, home, e.GUID) {
		t.Errorf("home AS %d holds no local copy", home)
	}
	rep, err := nodes.VerifyConsistency()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Ok() || rep.Mappings != 1 {
		t.Errorf("audit with a local copy: %v", rep)
	}
}

func TestLocalReplicaOffByDefault(t *testing.T) {
	nodes, r := newTestNodes(t, 5, false)
	const home = 123
	e := testEntry("nolocal", 1, home)
	placements := insert(t, nodes, r, e)
	if !isPlacement(placements, home) && holds(t, nodes, home, e.GUID) {
		t.Error("local replica should be disabled")
	}
}

func TestWithdrawMigration(t *testing.T) {
	nodes, r := newTestNodes(t, 5, false)
	// Insert a population, then withdraw the prefix hosting some replica
	// of a chosen GUID; the mapping must remain at all K placements.
	var entries []store.Entry
	for i := 1; i <= 50; i++ {
		e := store.Entry{
			GUID:    guid.FromUint64(uint64(i)),
			NAs:     []store.NA{{AS: i % 100}},
			Version: 1,
		}
		entries = append(entries, e)
		insert(t, nodes, r, e)
	}
	victim := entries[17]
	placements, err := r.Place(victim.GUID)
	if err != nil {
		t.Fatal(err)
	}
	target := placements[2]
	pfxEntry, ok := r.Table().Lookup(target.Addr)
	if !ok {
		t.Fatal("placement prefix missing")
	}

	migrated, err := nodes.WithdrawPrefix(pfxEntry.Prefix, pfxEntry.AS)
	if err != nil {
		t.Fatal(err)
	}
	if migrated == 0 {
		t.Error("expected at least one migrated mapping")
	}
	// Every entry must still be held at each of its placements (the
	// withdrawn replica now follows the hole protocol to the deputy).
	for _, e := range entries {
		copies, err := replicaCopies(nodes, r, e.GUID)
		if err != nil {
			t.Fatalf("GUID %s after withdrawal: %v", e.GUID.Short(), err)
		}
		for _, got := range copies {
			if got.GUID != e.GUID {
				t.Fatal("wrong entry")
			}
		}
	}
	// The new placement of the victim's replica must differ.
	newPlacements, err := r.Place(victim.GUID)
	if err != nil {
		t.Fatal(err)
	}
	if newPlacements[2].AS == target.AS && newPlacements[2].Addr == target.Addr {
		t.Error("withdrawn placement unchanged")
	}
	// Withdrawing an unannounced prefix errors.
	if _, err := nodes.WithdrawPrefix(pfxEntry.Prefix, pfxEntry.AS); err == nil {
		t.Error("double withdrawal should fail")
	}
}

// TestRefusedWithdrawKeepsMappings: a withdrawal of a prefix the owner
// never announced is refused, and must leave the owner's mappings where
// they were — even those whose placement address lies inside it.
func TestRefusedWithdrawKeepsMappings(t *testing.T) {
	tbl := prefixtable.New()
	if err := tbl.Announce(netaddr.MustPrefix(0, 0), 1); err != nil {
		t.Fatal(err)
	}
	r, err := core.NewResolver(guid.MustHasher(1, 0), tbl, 0)
	if err != nil {
		t.Fatal(err)
	}
	nodes := newNodes(t, r, 2, false)
	e := testEntry("anchored", 1, 0)
	placements := insert(t, nodes, r, e)
	// An unannounced /8 inside AS 1's 0.0.0.0/0 around the placement.
	inside, err := netaddr.NewPrefix(placements[0].Addr, 8)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := nodes.WithdrawPrefix(inside, 1); err == nil {
		t.Fatalf("withdrawal of unannounced %v succeeded", inside)
	}
	rep, err := nodes.VerifyConsistency()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Ok() || rep.Mappings != 1 {
		t.Fatalf("after a refused withdrawal: %v, want the one mapping in place", rep)
	}
	if !holds(t, nodes, 1, e.GUID) {
		t.Error("owner AS 1 lost its copy")
	}
}

func TestAnnounceLazyMigration(t *testing.T) {
	// Build a table with a known hole, place a GUID whose first hash
	// lands in it (so a deputy hosts it), then announce the hole and
	// verify RepairMiss pulls the mapping to the announcing AS.
	tbl := prefixtable.New() // only the lower half announced, by AS 0
	if err := tbl.Announce(netaddr.MustPrefix(0, 1), 0); err != nil {
		t.Fatal(err)
	}
	r, err := core.NewResolver(guid.MustHasher(1, 0), tbl, 0)
	if err != nil {
		t.Fatal(err)
	}
	nodes := newNodes(t, r, 10, false)
	// Find a GUID whose first hash has the top bit set (in the hole).
	var g guid.GUID
	for i := 0; ; i++ {
		g = guid.FromUint64(uint64(i))
		if r.Hasher().Hash(g, 0)>>31 == 1 {
			break
		}
	}
	e := store.Entry{GUID: g, NAs: []store.NA{{AS: 5}}, Version: 1}
	insert(t, nodes, r, e)
	if hosted(nodes, 10)[0] != 1 {
		t.Fatalf("deputy AS 0 should hold the mapping, got %d", hosted(nodes, 10)[0])
	}

	// AS 1 announces the upper half; the GUID's hash now lands there.
	upper, err := netaddr.NewPrefix(netaddr.Addr(1<<31), 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := nodes.AnnouncePrefix(upper, 1); err != nil {
		t.Fatal(err)
	}
	pl, err := r.PlaceReplica(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	if pl.AS != 1 {
		t.Fatalf("placement after announcement = %+v, want AS 1", pl)
	}
	// The first query reaching AS 1 misses; RepairMiss pulls from deputy.
	if hosted(nodes, 10)[1] != 0 {
		t.Fatal("AS 1 should not hold the mapping yet")
	}
	recovered, err := nodes.RepairMiss(g, upper, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !recovered {
		t.Fatal("RepairMiss found nothing")
	}
	if n := hosted(nodes, 10); n[1] != 1 || n[0] != 0 {
		t.Errorf("after repair: AS1=%d AS0=%d, want 1/0", n[1], n[0])
	}
	// Second repair is a no-op.
	if again, _ := nodes.RepairMiss(g, upper, 1); again {
		t.Error("second RepairMiss should find nothing")
	}
}

// TestRepairMissKeepsLivePlacements announces a prefix into a two-AS
// world where most deputies are themselves placements of the GUID they
// stand in for — the other AS, or the announcing AS itself. The lazy
// pull must leave every mapping at all of its placements and nowhere
// else.
func TestRepairMissKeepsLivePlacements(t *testing.T) {
	tbl := prefixtable.New()
	for as, first := range []netaddr.Addr{0, 1 << 30} {
		if err := tbl.Announce(netaddr.MustPrefix(first, 2), as); err != nil {
			t.Fatal(err)
		}
	}
	r, err := core.NewResolver(guid.MustHasher(3, 0), tbl, 0)
	if err != nil {
		t.Fatal(err)
	}
	nodes := newNodes(t, r, 2, false)
	const n = 200
	for i := 1; i <= n; i++ {
		insert(t, nodes, r, store.Entry{GUID: guid.FromUint64(uint64(i)), NAs: []store.NA{{AS: 0}}, Version: 1})
	}
	upper := netaddr.MustPrefix(1<<31, 1)
	if err := nodes.AnnouncePrefix(upper, 1); err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= n; i++ {
		if _, err := nodes.RepairMiss(guid.FromUint64(uint64(i)), upper, 1); err != nil {
			t.Fatal(err)
		}
	}
	rep, err := nodes.VerifyConsistency()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Ok() || rep.Mappings != n {
		t.Fatalf("after announce + RepairMiss over %d GUIDs: %v", n, rep)
	}
}

func TestHostedCounts(t *testing.T) {
	nodes, r := newTestNodes(t, 5, false)
	total := 0
	for i := 1; i <= 20; i++ {
		placements := insert(t, nodes, r, store.Entry{
			GUID:    guid.FromUint64(uint64(i)),
			NAs:     []store.NA{{AS: 0}},
			Version: 1,
		})
		total += len(placements)
	}
	sum := 0
	for _, c := range hosted(nodes, 500) {
		sum += c
	}
	// Replicas of one GUID may share an AS only if the hash collides on
	// the same store key — same GUID, so the store deduplicates. Sum must
	// equal the number of distinct (AS, GUID) pairs, ≤ total.
	if sum > total || sum < 20*4 {
		t.Errorf("hosted sum = %d, placements = %d", sum, total)
	}
}

func TestVerifyConsistencyCleanSystem(t *testing.T) {
	nodes, r := newTestNodes(t, 5, true)
	for i := 1; i <= 40; i++ {
		insert(t, nodes, r, store.Entry{
			GUID:    guid.FromUint64(uint64(i)),
			NAs:     []store.NA{{AS: i % 100}},
			Version: 1,
		})
	}
	rep, err := nodes.VerifyConsistency()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Ok() {
		t.Errorf("clean system inconsistent: %v", rep)
	}
	if rep.Mappings != 40 {
		t.Errorf("audited %d mappings, want 40", rep.Mappings)
	}
}

func TestVerifyConsistencyAfterChurn(t *testing.T) {
	nodes, r := newTestNodes(t, 5, false)
	for i := 1; i <= 40; i++ {
		insert(t, nodes, r, store.Entry{
			GUID:    guid.FromUint64(uint64(i)),
			NAs:     []store.NA{{AS: i % 100}},
			Version: 1,
		})
	}
	// Withdraw a replica-hosting prefix: migration must leave the table
	// consistent with the NEW placement function.
	pl, err := r.PlaceReplica(guid.FromUint64(5), 2)
	if err != nil {
		t.Fatal(err)
	}
	pfx, ok := r.Table().Lookup(pl.Addr)
	if !ok {
		t.Fatal("no prefix")
	}
	if _, err := nodes.WithdrawPrefix(pfx.Prefix, pfx.AS); err != nil {
		t.Fatal(err)
	}
	rep, err := nodes.VerifyConsistency()
	if err != nil {
		t.Fatal(err)
	}
	// Withdrawal re-homes orphans; mappings the withdrawn AS hosted via
	// OTHER prefixes remain valid. Remaining entries at the withdrawing
	// AS for unaffected prefixes are fine; no replicas may be missing.
	if rep.MissingReplicas != 0 {
		t.Errorf("missing replicas after migration: %v", rep)
	}
	if rep.VersionSkews != 0 {
		t.Errorf("version skews after migration: %v", rep)
	}
}

func TestVerifyConsistencyDetectsTampering(t *testing.T) {
	nodes, r := newTestNodes(t, 3, false)
	e := testEntry("tampered", 1, 9)
	placements := insert(t, nodes, r, e)
	// Delete one replica behind the protocol's back.
	st, err := storeAt(nodes, placements[1].AS)
	if err != nil {
		t.Fatal(err)
	}
	st.Delete(e.GUID)
	rep, err := nodes.VerifyConsistency()
	if err != nil {
		t.Fatal(err)
	}
	if rep.MissingReplicas == 0 {
		t.Errorf("audit missed a deleted replica: %v", rep)
	}
	// Plant a stray at an unrelated AS.
	stray, err := storeAt(nodes, 499)
	if err != nil {
		t.Fatal(err)
	}
	isReplica := false
	for _, p := range placements {
		if p.AS == 499 {
			isReplica = true
		}
	}
	if !isReplica {
		if _, err := stray.Put(testEntry("tampered", 1, 9)); err != nil {
			t.Fatal(err)
		}
		rep, err = nodes.VerifyConsistency()
		if err != nil {
			t.Fatal(err)
		}
		if rep.Strays == 0 {
			t.Errorf("audit missed a stray: %v", rep)
		}
	}
	// Version skew: bump one replica only.
	e2 := testEntry("tampered", 7, 10)
	if _, err := st.Put(e2); err != nil {
		t.Fatal(err)
	}
	rep, err = nodes.VerifyConsistency()
	if err != nil {
		t.Fatal(err)
	}
	if rep.VersionSkews == 0 {
		t.Errorf("audit missed a version skew: %v", rep)
	}
	if rep.Ok() {
		t.Error("tampered system reported Ok")
	}
	if rep.String() == "" {
		t.Error("String output")
	}
}
