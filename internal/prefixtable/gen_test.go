package prefixtable

import (
	"math"
	"sort"
	"testing"

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
