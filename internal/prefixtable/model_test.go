package prefixtable

import (
	"math/rand"
	"sync"
	"testing"
	"testing/quick"

	"dmap/internal/netaddr"
)

// trieLookup is longest-prefix matching by walking the trie bit by bit —
// what Lookup did before the flat index — kept as the reference the index
// is checked against.
func (t *Table) trieLookup(a netaddr.Addr) (Entry, bool) {
	best := nilRef
	cur := int32(0)
	for depth := 0; ; depth++ {
		if e := t.nodes[cur].entry; e != nilRef {
			best = e
		}
		if depth == 32 {
			break
		}
		next := t.nodes[cur].child[bitAt(a, depth)]
		if next == nilRef {
			break
		}
		cur = next
	}
	if best == nilRef {
		return Entry{}, false
	}
	return t.entries[best], true
}

// edges returns the first and last address of p and the addresses just
// outside it: where a wrongly painted slot run shows.
func edges(p netaddr.Prefix) [4]netaddr.Addr {
	return [4]netaddr.Addr{p.Addr(), p.Last(), p.Addr() - 1, p.Last() + 1}
}

// checkLookup fails unless the flat index, the trie walk and (when given)
// the brute-force model agree on a.
func checkLookup(t testing.TB, tbl *Table, model *refModel, a netaddr.Addr) {
	t.Helper()
	got, gok := tbl.Lookup(a)
	want, wok := tbl.trieLookup(a)
	if gok != wok || got != want {
		t.Fatalf("Lookup(%v) = %+v %v, trie walk %+v %v", a, got, gok, want, wok)
	}
	if model == nil {
		return
	}
	if want, wok = model.lookup(a); gok != wok || got != want {
		t.Fatalf("Lookup(%v) = %+v %v, model %+v %v", a, got, gok, want, wok)
	}
}

// checkIndexEmpty fails unless the index is back to its initial state:
// every root slot a hole and every chunk ever made on the free list.
func checkIndexEmpty(t testing.TB, tbl *Table) {
	t.Helper()
	for i, s := range tbl.root {
		if s != 0 {
			t.Fatalf("root[%#x] = %#x in an empty table", i, s)
		}
	}
	if len(tbl.freeChunks) != len(tbl.chunks) {
		t.Fatalf("%d of %d chunks free in an empty table", len(tbl.freeChunks), len(tbl.chunks))
	}
}

// refModel is an oracle implementation of the prefix table: a flat slice
// scanned by brute force.
type refModel struct {
	entries map[string]Entry
}

func newRefModel() *refModel {
	return &refModel{entries: make(map[string]Entry)}
}

func (m *refModel) announce(p netaddr.Prefix, as int) {
	m.entries[p.String()] = Entry{Prefix: p, AS: as}
}

func (m *refModel) withdraw(p netaddr.Prefix) bool {
	if _, ok := m.entries[p.String()]; !ok {
		return false
	}
	delete(m.entries, p.String())
	return true
}

func (m *refModel) lookup(a netaddr.Addr) (Entry, bool) {
	best := Entry{}
	found := false
	for _, e := range m.entries {
		if e.Prefix.Contains(a) && (!found || e.Prefix.Bits() > best.Prefix.Bits()) {
			best, found = e, true
		}
	}
	return best, found
}

// TestTableMatchesModelRandomOps drives the trie and the oracle through
// the same random operation sequences (testing/quick generates the
// seeds) and checks LPM agreement after every step, at the edges of the
// touched prefix and on random probes. Besides random announcements and
// withdrawals the sequences hold the two shapes Announce has fast paths
// for: ascending runs of consecutive entries of a generated table, which
// resume the descent from the last path, and re-announcements of live
// prefixes with a new AS, which the index resolves; withdrawals in the
// middle of a run hit the prefix the last path ends at as often as not.
func TestTableMatchesModelRandomOps(t *testing.T) {
	gen, err := Generate(GenConfig{NumAS: 50, NumPrefixes: 20000, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	runs := gen.Entries()
	f := func(seed int64) bool {
		defer func() {
			if t.Failed() {
				t.Logf("seed %d", seed)
			}
		}()
		rng := rand.New(rand.NewSource(seed))
		tbl := New()
		model := newRefModel()
		var live []netaddr.Prefix
		var last netaddr.Prefix // the last prefix announced: after a descent, where the cursor ends
		next, runLeft := 0, 0   // the run's next entry in runs, and how many more

		announce := func(p netaddr.Prefix, as int) bool {
			if err := tbl.Announce(p, as); err != nil {
				return false
			}
			if _, ok := model.entries[p.String()]; !ok {
				live = append(live, p)
			}
			model.announce(p, as)
			last = p
			return true
		}
		withdraw := func(i int) bool {
			p := live[i]
			if got, want := tbl.Withdraw(p), model.withdraw(p); got != want {
				t.Logf("seed %d: withdraw(%v) = %v, model %v", seed, p, got, want)
				return false
			}
			live = append(live[:i], live[i+1:]...)
			return true
		}
		liveIndex := func(p netaddr.Prefix) int {
			for i, q := range live {
				if q == p {
					return i
				}
			}
			return -1
		}

		for step := 0; step < 200; step++ {
			var touched netaddr.Prefix
			ok := true
			switch u := rng.Float64(); {
			case runLeft > 0 && (u < 0.8 || len(live) == 0): // the run's next prefix
				touched = runs[next].Prefix
				ok = announce(touched, rng.Intn(50))
				next, runLeft = (next+1)%len(runs), runLeft-1
			case runLeft > 0: // a withdrawal in the middle of the run
				i := liveIndex(last)
				if i < 0 || rng.Intn(2) == 0 {
					i = rng.Intn(len(live))
				}
				touched = live[i]
				ok = withdraw(i)
			case len(live) == 0 || u < 0.35: // a random prefix
				p, err := netaddr.NewPrefix(netaddr.Addr(rng.Uint32()), rng.Intn(33))
				if err != nil {
					return false
				}
				touched = p
				ok = announce(p, rng.Intn(50))
			case u < 0.5: // a run starts
				next, runLeft = rng.Intn(len(runs)), 1+rng.Intn(40)
				continue
			case u < 0.65: // an origin change
				touched = live[rng.Intn(len(live))]
				ok = announce(touched, 50+rng.Intn(50))
			default:
				i := rng.Intn(len(live))
				touched = live[i]
				ok = withdraw(i)
			}
			if !ok {
				return false
			}
			if tbl.Len() != len(model.entries) {
				t.Logf("seed %d: Len %d vs model %d", seed, tbl.Len(), len(model.entries))
				return false
			}
			for _, a := range edges(touched) {
				checkLookup(t, tbl, model, a)
			}
			for probe := 0; probe < 8; probe++ {
				a := netaddr.Addr(rng.Uint32())
				checkLookup(t, tbl, model, a)
			}
		}
		for _, e := range tbl.Entries() {
			if want, ok := model.entries[e.Prefix.String()]; !ok || want != e {
				t.Logf("seed %d: Entries() holds %+v, model %+v %v", seed, e, want, ok)
				return false
			}
			tbl.Withdraw(e.Prefix)
		}
		checkIndexEmpty(t, tbl)
		return !t.Failed()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// nestedPool returns prefixes of every length 0–32 along a few addresses,
// each with its sibling (last bit flipped): chains of more-specifics that
// share /16 and /24 index chunks.
func nestedPool(rng *rand.Rand) []netaddr.Prefix {
	var pool []netaddr.Prefix
	base := netaddr.Addr(rng.Uint32())
	for _, a := range []netaddr.Addr{base, base ^ 0x80, base ^ 0x4000, netaddr.Addr(rng.Uint32())} {
		for bits := 0; bits <= 32; bits++ {
			p, _ := netaddr.NewPrefix(a, bits)
			pool = append(pool, p)
			if bits > 0 {
				sib, _ := netaddr.NewPrefix(a^netaddr.Addr(uint32(1)<<(32-bits)), bits)
				pool = append(pool, sib)
			}
		}
	}
	return pool
}

// TestIndexMatchesTrieAndModel drives announce / withdraw / re-announce
// over nested prefixes of every length and, after every step, compares
// the flat index with the trie walk and the brute-force model at the
// edges of the touched prefix and of a sample of the pool. Withdrawing
// everything must hand every chunk back.
func TestIndexMatchesTrieAndModel(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		pool := nestedPool(rng)
		tbl, model := New(), newRefModel()
		t.Logf("seed %d", seed)
		for step := 0; step < 1500; step++ {
			p := pool[rng.Intn(len(pool))]
			if _, live := model.entries[p.String()]; live && rng.Intn(3) > 0 {
				if !tbl.Withdraw(p) {
					t.Fatalf("seed %d step %d: Withdraw(%v) of a live prefix = false", seed, step, p)
				}
				model.withdraw(p)
			} else { // new, or live: an origin change
				as := rng.Intn(50)
				if err := tbl.Announce(p, as); err != nil {
					t.Fatal(err)
				}
				model.announce(p, as)
			}
			for _, a := range edges(p) {
				checkLookup(t, tbl, model, a)
			}
			for i := 0; i < 8; i++ {
				for _, a := range edges(pool[rng.Intn(len(pool))]) {
					checkLookup(t, tbl, model, a)
				}
				checkLookup(t, tbl, model, netaddr.Addr(rng.Uint32()))
			}
		}
		for _, e := range tbl.Entries() {
			tbl.Withdraw(e.Prefix)
		}
		checkIndexEmpty(t, tbl)
		for _, p := range pool {
			for _, a := range edges(p) {
				if e, ok := tbl.Lookup(a); ok {
					t.Fatalf("seed %d: Lookup(%v) = %+v in an empty table", seed, a, e)
				}
			}
		}
	}
}

// TestIndexChunkLifecycle scripts the maintenance cases one by one: a
// covering prefix withdrawn above live more-specifics, the last
// more-specific of a /16 and of a /24 withdrawn (their chunks collapse),
// and an origin change (no slot moves).
func TestIndexChunkLifecycle(t *testing.T) {
	tbl, model := New(), newRefModel()
	var all []netaddr.Prefix
	check := func() {
		t.Helper()
		for _, p := range all {
			for _, a := range edges(p) {
				checkLookup(t, tbl, model, a)
			}
		}
	}
	announce := func(s string, as int) netaddr.Prefix {
		t.Helper()
		p := mustPfx(t, s)
		if err := tbl.Announce(p, as); err != nil {
			t.Fatal(err)
		}
		model.announce(p, as)
		all = append(all, p)
		check()
		return p
	}
	withdraw := func(p netaddr.Prefix) {
		t.Helper()
		if !tbl.Withdraw(p) {
			t.Fatalf("Withdraw(%v) = false", p)
		}
		model.withdraw(p)
		check()
	}
	live := func() int { return len(tbl.chunks) - len(tbl.freeChunks) }

	p8 := announce("10.0.0.0/8", 1)
	p16 := announce("10.1.0.0/16", 2)
	if live() != 0 {
		t.Fatalf("%d chunks for prefixes no longer than /16", live())
	}
	p20 := announce("10.1.16.0/20", 3)
	p24 := announce("10.1.17.0/24", 4)
	if live() != 1 {
		t.Fatalf("%d chunks, want the one under 10.1/16", live())
	}
	p30 := announce("10.1.17.64/30", 5)
	p32 := announce("10.1.17.65/32", 6)
	if live() != 2 {
		t.Fatalf("%d chunks, want 10.1/16 and 10.1.17/24", live())
	}

	// Origin change: entries move, slots do not.
	root := append([]uint32(nil), tbl.root...)
	chunks := append([]chunk(nil), tbl.chunks...)
	announce("10.1.17.64/30", 55)
	announce("10.0.0.0/8", 11)
	for i := range root {
		if root[i] != tbl.root[i] {
			t.Fatalf("re-announce changed root[%#x]", i)
		}
	}
	for i := range chunks {
		if chunks[i] != tbl.chunks[i] {
			t.Fatalf("re-announce changed chunk %d", i)
		}
	}

	// Covering prefixes go while their more-specifics stay.
	withdraw(p8)
	withdraw(p16)
	withdraw(p24)
	if live() != 2 {
		t.Fatalf("%d chunks, want 2: /30 and /32 still need the level-3 chunk", live())
	}
	withdraw(p32)
	if live() != 2 {
		t.Fatalf("%d chunks, want 2: the /30 is still below 10.1.17/24", live())
	}
	withdraw(p30) // last more-specific of the /24
	if live() != 1 {
		t.Fatalf("%d chunks, want 1 after the /24's last more-specific went", live())
	}
	withdraw(p20) // last more-specific of the /16
	checkIndexEmpty(t, tbl)

	// The freed chunks are reused, and filled afresh.
	announce("10.0.0.0/8", 1)
	announce("10.1.17.65/32", 6)
	if len(tbl.chunks) != 2 || live() != 2 {
		t.Fatalf("%d chunks, %d live: want the two freed ones reused", len(tbl.chunks), live())
	}
}

// TestIndexMatchesTrieFullScale compares the flat index with the trie walk
// on the full-scale synthetic DFZ: random addresses and the edges of
// every announced prefix.
func TestIndexMatchesTrieFullScale(t *testing.T) {
	tbl, err := Generate(DefaultGenConfig(7))
	if err != nil {
		t.Fatal(err)
	}
	random := 2_000_000
	if testing.Short() {
		random = 100_000
	}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < random; i++ {
		checkLookup(t, tbl, nil, netaddr.Addr(rng.Uint32()))
	}
	for _, e := range tbl.Entries() {
		for _, a := range edges(e.Prefix) {
			checkLookup(t, tbl, nil, a)
		}
	}
	t.Logf("%d prefixes: %d chunks, index %d KiB", tbl.Len(), len(tbl.chunks), (len(tbl.root)*4+len(tbl.chunks)*1024)/1024)
}

// FuzzTableOps turns a byte stream into steps of six bytes each (op,
// length, address) and checks the flat index against the trie walk and
// the model after every one. An even op announces the prefix with AS
// op>>1. An odd op is picked by bits 1–2: 0 withdraws the prefix; 1
// re-announces, with AS op>>3, the live entry the address picks (in
// Entries() order); 2 announces an ascending run of op>>3 + 1 adjacent
// prefixes of the length from the address on, as Generate does; 3
// withdraws the live entry the address picks. The seed corpus in
// testdata/fuzz holds the nested-prefix sequences the index maintenance
// turns on and the runs, withdrawals and re-announcements the descent's
// cursor and the index re-announce turn on.
func FuzzTableOps(f *testing.F) {
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		tbl, model := New(), newRefModel()
		var touched []netaddr.Prefix
		announce := func(p netaddr.Prefix, as int) {
			if err := tbl.Announce(p, as); err != nil {
				t.Fatal(err)
			}
			model.announce(p, as)
			touched = append(touched, p)
		}
		withdraw := func(p netaddr.Prefix) {
			if got, want := tbl.Withdraw(p), model.withdraw(p); got != want {
				t.Fatalf("Withdraw(%v) = %v, model %v", p, got, want)
			}
			touched = append(touched, p)
		}
		// pick returns the live entry a picks, if any.
		pick := func(a netaddr.Addr) (Entry, bool) {
			live := tbl.Entries()
			if len(live) != len(model.entries) {
				t.Fatalf("Entries() holds %d prefixes, model %d", len(live), len(model.entries))
			}
			if len(live) == 0 {
				return Entry{}, false
			}
			return live[int(a)%len(live)], true
		}
		for ; len(data) >= 6; data = data[6:] {
			op := data[0]
			a := netaddr.Addr(uint32(data[2])<<24 | uint32(data[3])<<16 | uint32(data[4])<<8 | uint32(data[5]))
			p, err := netaddr.NewPrefix(a, int(data[1])%33)
			if err != nil {
				t.Fatal(err)
			}
			n := len(touched)
			switch {
			case op&1 == 0:
				announce(p, int(op>>1))
			case op>>1&3 == 0:
				withdraw(p)
			case op>>1&3 == 1:
				if e, ok := pick(a); ok {
					announce(e.Prefix, int(op>>3))
				}
			case op>>1&3 == 2:
				for i := 0; i <= int(op>>3); i++ {
					announce(p, i)
					if p.Last() == ^netaddr.Addr(0) {
						break
					}
					p, _ = netaddr.NewPrefix(p.Last()+1, p.Bits())
				}
			default:
				if e, ok := pick(a); ok {
					withdraw(e.Prefix)
				}
			}
			for _, p := range touched[n:] {
				for _, a := range edges(p) {
					checkLookup(t, tbl, model, a)
				}
			}
		}
		for _, p := range touched {
			for _, a := range edges(p) {
				checkLookup(t, tbl, model, a)
			}
		}
		for _, e := range tbl.Entries() {
			tbl.Withdraw(e.Prefix)
		}
		checkIndexEmpty(t, tbl)
	})
}

// BenchmarkTableLookup measures Lookup of uniformly random addresses on
// the full-scale DFZ (about half fall into holes, as hashed GUIDs do).
func BenchmarkTableLookup(b *testing.B) {
	tbl, err := Generate(DefaultGenConfig(1))
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	addrs := make([]netaddr.Addr, 1<<16)
	for i := range addrs {
		addrs[i] = netaddr.Addr(rng.Uint32())
	}
	hits := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := tbl.Lookup(addrs[i&(len(addrs)-1)]); ok {
			hits++
		}
	}
	b.ReportMetric(float64(hits)/float64(b.N), "hit/op")
}

// BenchmarkGenerate measures building the full-scale DFZ, trie and index:
// 330k announcements.
func BenchmarkGenerate(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Generate(DefaultGenConfig(int64(i))); err != nil {
			b.Fatal(err)
		}
	}
}

// TestCoverageMatchesSampling cross-checks AnnouncedFraction and
// ShareByAS against Monte-Carlo sampling of the live table.
func TestCoverageMatchesSampling(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	tbl := New()
	for i := 0; i < 300; i++ {
		p, err := netaddr.NewPrefix(netaddr.Addr(rng.Uint32()), 2+rng.Intn(16))
		if err != nil {
			t.Fatal(err)
		}
		if err := tbl.Announce(p, i%20); err != nil {
			t.Fatal(err)
		}
	}

	const samples = 200000
	covered := 0
	hostedByAS := make(map[int]int)
	for i := 0; i < samples; i++ {
		a := netaddr.Addr(rng.Uint32())
		if e, ok := tbl.Lookup(a); ok {
			covered++
			hostedByAS[e.AS]++
		}
	}
	empirical := float64(covered) / samples
	if got := tbl.AnnouncedFraction(); got < empirical-0.01 || got > empirical+0.01 {
		t.Errorf("AnnouncedFraction = %.4f, sampling says %.4f", got, empirical)
	}

	shares := tbl.ShareByAS()
	for as, share := range shares {
		emp := float64(hostedByAS[as]) / samples
		if diff := share - emp; diff > 0.01 || diff < -0.01 {
			t.Errorf("AS %d share = %.4f, sampling says %.4f", as, share, emp)
		}
	}
}

// TestLookupConcurrentReaders: every client goroutine resolves against
// one shared table, so Lookup must write nothing — run under -race by
// scripts/check.sh.
func TestLookupConcurrentReaders(t *testing.T) {
	tbl, err := Generate(GenConfig{NumAS: 64, NumPrefixes: 4096, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 20000; i++ {
				a := netaddr.Addr(rng.Uint32())
				got, gok := tbl.Lookup(a)
				if want, wok := tbl.trieLookup(a); gok != wok || got != want {
					t.Errorf("Lookup(%v) = %+v %v, trie walk %+v %v", a, got, gok, want, wok)
					return
				}
			}
		}(int64(w))
	}
	wg.Wait()
}
