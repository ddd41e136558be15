package prefixtable

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"testing"
	"unsafe"

	"dmap/internal/netaddr"
)

func TestGenerateValidation(t *testing.T) {
	bad := []GenConfig{
		{NumAS: 0, NumPrefixes: 10},
		{NumAS: 10, NumPrefixes: 0},
	}
	for i, cfg := range bad {
		if _, err := Generate(cfg); err == nil {
			t.Errorf("config %d should be rejected: %+v", i, cfg)
		}
	}
}

func TestGenerateMeetsTargets(t *testing.T) {
	cfg := GenConfig{
		NumAS:       2000,
		NumPrefixes: 20000,
		Seed:        1,
	}
	tbl, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}

	frac := tbl.AnnouncedFraction()
	if math.Abs(frac-0.52) > 0.02 {
		t.Errorf("announced fraction = %.4f, want ≈0.52", frac)
	}
	n := tbl.Len()
	if n < cfg.NumPrefixes/2 || n > cfg.NumPrefixes*2 {
		t.Errorf("prefix count = %d, want within 2x of %d", n, cfg.NumPrefixes)
	}

	// The reserved top eighth (224.0.0.0/3) must be hole.
	for _, s := range []string{"224.0.0.1", "239.1.2.3", "240.0.0.1", "255.255.255.255"} {
		a, _ := netaddr.ParseAddr(s)
		if _, ok := tbl.Lookup(a); ok {
			t.Errorf("reserved address %s should not be announced", s)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	cfg := GenConfig{NumAS: 500, NumPrefixes: 5000, Seed: 42}
	t1, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t2, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	e1, e2 := t1.Entries(), t2.Entries()
	if len(e1) != len(e2) {
		t.Fatalf("lengths differ: %d vs %d", len(e1), len(e2))
	}
	key := func(e Entry) string { return e.Prefix.String() }
	sort.Slice(e1, func(i, j int) bool { return key(e1[i]) < key(e1[j]) })
	sort.Slice(e2, func(i, j int) bool { return key(e2[i]) < key(e2[j]) })
	for i := range e1 {
		if e1[i] != e2[i] {
			t.Fatalf("entry %d differs: %+v vs %+v", i, e1[i], e2[i])
		}
	}
}

func TestGenerateSeedsDiffer(t *testing.T) {
	cfg := GenConfig{NumAS: 500, NumPrefixes: 5000}
	cfg.Seed = 1
	t1, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Seed = 2
	t2, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Not a strict requirement per-entry, but tables from different seeds
	// should not be identical.
	if t1.Len() == t2.Len() {
		same := true
		e1, e2 := t1.Entries(), t2.Entries()
		sort.Slice(e1, func(i, j int) bool { return e1[i].Prefix.String() < e1[j].Prefix.String() })
		sort.Slice(e2, func(i, j int) bool { return e2[i].Prefix.String() < e2[j].Prefix.String() })
		for i := range e1 {
			if e1[i] != e2[i] {
				same = false
				break
			}
		}
		if same {
			t.Error("different seeds produced identical tables")
		}
	}
}

func TestGenerateNoOverlaps(t *testing.T) {
	tbl, err := Generate(GenConfig{NumAS: 300, NumPrefixes: 4000, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	entries := tbl.Entries()
	sort.Slice(entries, func(i, j int) bool { return entries[i].Prefix.Addr() < entries[j].Prefix.Addr() })
	for i := 1; i < len(entries); i++ {
		prev, cur := entries[i-1].Prefix, entries[i].Prefix
		if prev.Overlaps(cur) {
			t.Fatalf("overlapping prefixes generated: %v and %v", prev, cur)
		}
	}
	// With no overlaps, union coverage equals the sum of sizes, and the
	// per-AS shares must sum to the announced fraction.
	var sum float64
	for _, share := range tbl.ShareByAS() {
		sum += share
	}
	if math.Abs(sum-tbl.AnnouncedFraction()) > 1e-9 {
		t.Errorf("ShareByAS sums to %.6f, want announced fraction %.6f", sum, tbl.AnnouncedFraction())
	}
}

func TestGenerateHeavyTailedShares(t *testing.T) {
	tbl, err := Generate(GenConfig{NumAS: 1000, NumPrefixes: 10000, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	shares := tbl.ShareByAS()
	vals := make([]float64, 0, len(shares))
	var total float64
	for _, s := range shares {
		vals = append(vals, s)
		total += s
	}
	sort.Sort(sort.Reverse(sort.Float64Slice(vals)))
	topN := len(vals) / 10
	var top float64
	for _, v := range vals[:topN] {
		top += v
	}
	// A heavy tail means the top decile owns well over its proportional
	// 10% — expect > 30%.
	if top/total < 0.3 {
		t.Errorf("top 10%% of ASs own %.1f%% of announced space, want > 30%%", 100*top/total)
	}
}

func TestDefaultGenConfig(t *testing.T) {
	cfg := DefaultGenConfig(7)
	if cfg.NumAS != 26424 {
		t.Errorf("NumAS = %d, want the paper's 26424", cfg.NumAS)
	}
	if cfg.NumPrefixes != 330000 {
		t.Errorf("NumPrefixes = %d, want the paper's 330000", cfg.NumPrefixes)
	}
}

func TestGenerateHoleProbability(t *testing.T) {
	// A uniformly hashed address must miss the table with probability
	// ≈ 1 − the announced fraction (the §III-B hole probability).
	tbl, err := Generate(GenConfig{NumAS: 1000, NumPrefixes: 10000, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	misses := 0
	const trials = 20000
	// Low-discrepancy scan of the space (golden-ratio stride).
	const stride = 2654435761
	a := uint32(12345)
	for i := 0; i < trials; i++ {
		a += stride
		if _, ok := tbl.Lookup(netaddr.Addr(a)); !ok {
			misses++
		}
	}
	got := float64(misses) / trials
	want := 1 - tbl.AnnouncedFraction()
	if math.Abs(got-want) > 0.02 {
		t.Errorf("hole probability = %.4f, want ≈ %.4f", got, want)
	}
}

func TestGenerateChurn(t *testing.T) {
	tbl, err := Generate(GenConfig{NumAS: 200, NumPrefixes: 3000, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	events, err := GenerateChurn(tbl, ChurnConfig{
		WithdrawPerSec: 0.5,
		AnnouncePerSec: 0.5,
		DurationSec:    100,
		Seed:           1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(events) == 0 {
		t.Fatal("no churn generated")
	}
	withdrawn := make(map[string]bool)
	var withdrawals, announcements int
	prev := -1.0
	for _, ev := range events {
		if ev.AtSec < prev {
			t.Fatal("events not time-ordered")
		}
		prev = ev.AtSec
		if ev.AtSec < 0 || ev.AtSec >= 100 {
			t.Fatalf("event time %v outside window", ev.AtSec)
		}
		switch ev.Kind {
		case ChurnWithdraw:
			key := ev.Prefix.Prefix.String()
			if withdrawn[key] {
				t.Fatalf("prefix %s withdrawn twice", key)
			}
			withdrawn[key] = true
			withdrawals++
		case ChurnAnnounce:
			if !withdrawn[ev.Prefix.Prefix.String()] {
				t.Fatal("announcement of a never-withdrawn prefix")
			}
			announcements++
		default:
			t.Fatalf("unknown kind %v", ev.Kind)
		}
	}
	// Expect roughly rate×duration withdrawals (Poisson, generous band).
	if withdrawals < 25 || withdrawals > 90 {
		t.Errorf("withdrawals = %d, want ≈50", withdrawals)
	}
	if announcements == 0 || announcements > withdrawals {
		t.Errorf("announcements = %d vs withdrawals %d", announcements, withdrawals)
	}
}

func TestGenerateChurnValidation(t *testing.T) {
	tbl := New()
	if _, err := GenerateChurn(tbl, ChurnConfig{DurationSec: 1}); err == nil {
		t.Error("empty table should fail")
	}
	if err := tbl.Announce(netaddr.MustPrefix(netaddr.AddrFromOctets(10, 0, 0, 0), 8), 1); err != nil {
		t.Fatal(err)
	}
	if _, err := GenerateChurn(tbl, ChurnConfig{DurationSec: 0}); err == nil {
		t.Error("zero duration should fail")
	}
	if _, err := GenerateChurn(tbl, ChurnConfig{DurationSec: 1, WithdrawPerSec: -1}); err == nil {
		t.Error("negative rate should fail")
	}
}

func TestChurnKindString(t *testing.T) {
	if ChurnWithdraw.String() != "withdraw" || ChurnAnnounce.String() != "announce" {
		t.Error("kind names")
	}
	if ChurnKind(9).String() == "" {
		t.Error("unknown kind should format")
	}
}

// entriesDigest is the SHA-256 of a table's Entries(), in their order,
// each as its address (4 bytes), length (1) and AS (4), big-endian.
func entriesDigest(t *Table) string {
	h := sha256.New()
	var b [9]byte
	for _, e := range t.Entries() {
		binary.BigEndian.PutUint32(b[:4], uint32(e.Prefix.Addr()))
		b[4] = byte(e.Prefix.Bits())
		binary.BigEndian.PutUint32(b[5:], uint32(e.AS))
		h.Write(b[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// indexDigest is the SHA-256 of the flat index: the root slots, then
// every chunk in chunk order. Slots hold entry numbers, so this pins the
// numbering too.
func indexDigest(t *Table) string {
	h := sha256.New()
	writeSlots := func(h hash.Hash, slots []uint32) {
		var b [4]byte
		for _, s := range slots {
			binary.BigEndian.PutUint32(b[:], s)
			h.Write(b[:])
		}
	}
	writeSlots(h, t.root)
	for i := range t.chunks {
		writeSlots(h, t.chunks[i][:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestGeneratePinnedDigests pins the full-scale synthetic DFZ for two
// seeds: its entries in Entries() order, its index (slot values, chunk
// order, entry numbering), and the entries after bench's fold, which
// re-announces every prefix with its AS mod 3. Every results/ file and
// golden is computed over these tables; a faster build must build the
// same one.
func TestGeneratePinnedDigests(t *testing.T) {
	pins := []struct {
		seed                   int64
		n                      int
		entries, index, folded string
	}{
		{1, 342667,
			"b3526b2be8b03b20d2b56fff3f80c56b99809d5491c702fb88b815252a7fb836",
			"46dc0a2b9ecb4c6a24c5c50f640fd4dcffb0ee499d87aca9505fa40b97c0de2e",
			"3ff5684a18d72423dd7cda31afe67187c9018d3fc4ac986f70f54e92ab20fa95"},
		{7, 342305,
			"c9c5444a86bd716035db5d75aee8674b19ed8bed19c6a2fee5e235275f7332fc",
			"e6d895752aa8fe346bd8cbe0073640b4fa142c4bf4408829d26b24658581ecb6",
			"edfa46cf520ab259ff7f1164b66c8922d75bdf451f4f4ec110313bc03ab4843e"},
	}
	for _, pin := range pins {
		tbl, err := Generate(DefaultGenConfig(pin.seed))
		if err != nil {
			t.Fatal(err)
		}
		if tbl.Len() != pin.n {
			t.Errorf("seed %d: Len = %d, want %d", pin.seed, tbl.Len(), pin.n)
		}
		if got := entriesDigest(tbl); got != pin.entries {
			t.Errorf("seed %d: entries digest %s, want %s", pin.seed, got, pin.entries)
		}
		if got := indexDigest(tbl); got != pin.index {
			t.Errorf("seed %d: index digest %s, want %s", pin.seed, got, pin.index)
		}
		for _, e := range tbl.Entries() {
			if err := tbl.Announce(e.Prefix, e.AS%3); err != nil {
				t.Fatal(err)
			}
		}
		if got := entriesDigest(tbl); got != pin.folded {
			t.Errorf("seed %d: folded entries digest %s, want %s", pin.seed, got, pin.folded)
		}
		if got := indexDigest(tbl); got != pin.index {
			t.Errorf("seed %d: the fold moved the index: digest %s, want %s", pin.seed, got, pin.index)
		}
	}
}

// TestCDFSamplerMatchesSearch checks the guide-table sampler against the
// binary search it replaces, on the full-scale AS CDF and on small ones
// with plateaus (zero-weight ASs): a million random u, and every cdf[i]
// with its float neighbours, where an off-by-one would show.
func TestCDFSamplerMatchesSearch(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	cdfs := [][]float64{
		paretoCDF(DefaultGenConfig(1).NumAS, shareSkew, rng),
		paretoCDF(3, shareSkew, rng),
		{1},
		{0, 0, 0.5, 0.5, 0.5, 1, 1},
		{0.25, 0.25, 0.25, 1},
	}
	for _, cdf := range cdfs {
		s := newCDFSampler(cdf)
		check := func(u float64) {
			if u < 0 || u >= 1 {
				return // outside rand.Float64's range
			}
			if got, want := s.sample(u), sort.SearchFloat64s(cdf, u); got != want {
				t.Fatalf("%d-AS CDF: sample(%v) = %d, sort.SearchFloat64s = %d", len(cdf), u, got, want)
			}
		}
		for _, c := range cdf {
			check(c)
			check(math.Nextafter(c, 0))
			check(math.Nextafter(c, 2))
		}
		check(0)
		check(math.Nextafter(1, 0))
		for i := 0; i < 1_000_000; i++ {
			check(rng.Float64())
		}
	}
}

// tableBytes is the memory a table holds: the capacity of every slice
// behind it.
func tableBytes(t *Table) uint64 {
	return uint64(cap(t.nodes))*uint64(unsafe.Sizeof(node{})) +
		uint64(cap(t.entries))*uint64(unsafe.Sizeof(Entry{})) +
		uint64(cap(t.chunks))*uint64(unsafe.Sizeof(chunk{})) +
		uint64(cap(t.root)+cap(t.freeChunks))*4 +
		uint64(cap(t.freeNodes)+cap(t.freeEnts))*4
}

// TestGenerateAllocBudget bounds what building the full-scale DFZ
// allocates at twice the table it returns: the build neither regrows
// the table's slices nor leaves large scratch behind. Not parallel: it
// reads the process-wide allocation counter.
func TestGenerateAllocBudget(t *testing.T) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	tbl, err := Generate(DefaultGenConfig(1))
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	alloc, held := after.TotalAlloc-before.TotalAlloc, tableBytes(tbl)
	t.Logf("Generate allocated %.1f MB for a %.1f MB table", float64(alloc)/1e6, float64(held)/1e6)
	if alloc > 2*held {
		t.Errorf("Generate allocated %d bytes, over twice the %d-byte table it returns", alloc, held)
	}
}
