package trace

import (
	"encoding/binary"
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
