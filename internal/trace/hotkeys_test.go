package trace

import (
	"encoding/binary"
	"math/rand"
	"slices"
	"testing"

	"dmap/internal/guid"
)

// benchGUIDs returns n distinct GUIDs that look like hash outputs.
func benchGUIDs(n int) []guid.GUID {
	gs := make([]guid.GUID, n)
	for i := range gs {
		binary.BigEndian.PutUint64(gs[i][:], uint64(i+1)*0x9e3779b97f4a7c15)
		binary.BigEndian.PutUint64(gs[i][8:], uint64(i+1)*0xff51afd7ed558ccd)
	}
	return gs
}

// The evicted key must be one of minimum count, found without a scan per
// miss: on a skewed stream with a tail of singletons, fed a frame at a
// time, the tracked minimum, the number of entries at it and the cursor
// agree with a scan after every frame, the counts sum to the stream's
// length (each observation adds one, whichever key inherits it), and
// ObserveAll leaves exactly what Observe, GUID by GUID, does.
func TestSpaceSavingTracksItsMinimum(t *testing.T) {
	const k = 8
	framed, single := NewSpaceSaving(k), NewSpaceSaving(k)
	gs := benchGUIDs(1 << 12)
	rng := rand.New(rand.NewSource(1))
	for frame := 0; frame < 2000; frame++ {
		var batch []guid.GUID
		for i := 0; i < 1+frame%21; i++ {
			at := rng.Intn(len(gs)) // a singleton of the tail, mostly
			if rng.Intn(3) == 0 {
				at = rng.Intn(k + 4) // one of a few more hot keys than fit
			}
			batch = append(batch, gs[at])
			single.Observe(gs[at])
		}
		framed.ObserveAll(batch)
		s := framed
		var sum uint64
		lowest, atLowest := s.entries[0].Count, 0
		for i, e := range s.entries {
			sum += e.Count
			switch {
			case e.Count < lowest:
				lowest, atLowest = e.Count, 1
			case e.Count == lowest:
				atLowest++
			}
			if s.atMin > 0 && i < s.cursor && e.Count == s.min {
				t.Fatalf("frame %d: entry %d, before the cursor at %d, holds the minimum %d", frame, i, s.cursor, s.min)
			}
		}
		if sum != s.total {
			t.Fatalf("frame %d: counts sum to %d after %d observations", frame, sum, s.total)
		}
		if s.atMin > 0 && (s.min != lowest || s.atMin != atLowest) {
			t.Fatalf("frame %d: tracked minimum %d held by %d entries; a scan finds %d held by %d", frame, s.min, s.atMin, lowest, atLowest)
		}
	}
	if a, b := framed.Top(0), single.Top(0); !slices.Equal(a, b) || framed.Total() != single.Total() {
		t.Fatalf("ObserveAll left %+v,\nObserve, GUID by GUID, %+v", a, b)
	}
}

// BenchmarkSpaceSavingMiss is the tracker's cost on a stream without
// repeats, with `serve`'s default of 32 monitored keys: every call
// scans, finds nothing and evicts — what each entry of a re-homing batch
// or of a uniform update load pays.
func BenchmarkSpaceSavingMiss(b *testing.B) {
	s := NewSpaceSaving(32)
	gs := benchGUIDs(1 << 16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Observe(gs[i&(1<<16-1)])
	}
}

// BenchmarkSpaceSavingHit is its cost on monitored keys: the scan stops
// at the key, half-way on average.
func BenchmarkSpaceSavingHit(b *testing.B) {
	s := NewSpaceSaving(32)
	gs := benchGUIDs(32)
	for _, g := range gs {
		s.Observe(g)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Observe(gs[i&31])
	}
}
