package wire

import (
	"bytes"
	"testing"

	"dmap/internal/guid"
	"dmap/internal/netaddr"
	"dmap/internal/store"
)

func repairEntry(name string, version uint64) store.Entry {
	return store.Entry{
		GUID:    guid.New(name),
		NAs:     []store.NA{{AS: 3, Addr: netaddr.AddrFromOctets(10, 0, 0, 3)}},
		Version: version,
	}
}

func sortedDigests(versions ...uint64) []store.Digest {
	ds := make([]store.Digest, len(versions))
	for i, v := range versions {
		ds[i] = store.Digest{Version: v}
		// Distinct ascending GUIDs: index in the leading byte.
		ds[i].GUID[0] = byte(i + 1)
	}
	return ds
}

func TestRepairDigestRoundTrip(t *testing.T) {
	after := guid.GUID{}
	through := guid.Max()
	ds := sortedDigests(7, 9, 2)
	b, err := AppendRepairDigest(nil, after, through, ds)
	if err != nil {
		t.Fatal(err)
	}
	gotAfter, gotThrough, gotDs, err := DecodeRepairDigest(b)
	if err != nil {
		t.Fatal(err)
	}
	if gotAfter != after || gotThrough != through {
		t.Fatalf("range = (%s, %s]", gotAfter, gotThrough)
	}
	if len(gotDs) != len(ds) {
		t.Fatalf("digests = %d, want %d", len(gotDs), len(ds))
	}
	for i := range ds {
		if gotDs[i] != ds[i] {
			t.Fatalf("digest %d = %+v, want %+v", i, gotDs[i], ds[i])
		}
	}
}

func TestRepairDigestEmptyPage(t *testing.T) {
	// A zero-digest page over a live range is legal: it advertises that
	// the sender holds nothing there, prompting push-back.
	b, err := AppendRepairDigest(nil, guid.GUID{}, guid.Max(), nil)
	if err != nil {
		t.Fatal(err)
	}
	_, _, ds, err := DecodeRepairDigest(b)
	if err != nil {
		t.Fatal(err)
	}
	if len(ds) != 0 {
		t.Fatalf("digests = %d, want 0", len(ds))
	}
}

func TestRepairDigestRejectsBadPages(t *testing.T) {
	// Empty range.
	if _, err := AppendRepairDigest(nil, guid.Max(), guid.Max(), nil); err == nil {
		t.Fatal("empty range accepted")
	}
	// Out-of-order digests.
	ds := sortedDigests(1, 2)
	ds[0].GUID, ds[1].GUID = ds[1].GUID, ds[0].GUID
	if _, err := AppendRepairDigest(nil, guid.GUID{}, guid.Max(), ds); err == nil {
		t.Fatal("out-of-order page accepted")
	}
	// Digest outside the range.
	outside := sortedDigests(1)
	var through guid.GUID
	through[19] = 1 // tiny range, digest GUID {1,0,...} is beyond it
	if _, err := AppendRepairDigest(nil, guid.GUID{}, through, outside); err == nil {
		t.Fatal("out-of-range digest accepted")
	}
	// Decoder enforces the same invariants on hand-rolled bytes.
	good, err := AppendRepairDigest(nil, guid.GUID{}, guid.Max(), sortedDigests(5, 6))
	if err != nil {
		t.Fatal(err)
	}
	bad := append([]byte(nil), good...)
	// Swap the two digest GUID prefixes to break ordering.
	off := 2*guid.Size + 2
	bad[off], bad[off+guid.Size+8] = bad[off+guid.Size+8], bad[off]
	if _, _, _, err := DecodeRepairDigest(bad); err == nil {
		t.Fatal("decoder accepted out-of-order digests")
	}
	if _, _, _, err := DecodeRepairDigest(good[:len(good)-1]); err == nil {
		t.Fatal("decoder accepted truncated page")
	}
	if _, _, _, err := DecodeRepairDigest(append(append([]byte(nil), good...), 0)); err == nil {
		t.Fatal("decoder accepted trailing bytes")
	}
}

func TestRepairDiffRoundTrip(t *testing.T) {
	covered := guid.Max()
	newer := []store.Entry{repairEntry("fresh-a", 9), repairEntry("fresh-b", 4)}
	want := []guid.GUID{guid.New("want-1"), guid.New("want-2"), guid.New("want-3")}
	b, err := AppendRepairDiff(nil, covered, newer, want)
	if err != nil {
		t.Fatal(err)
	}
	gotCovered, gotNewer, gotWant, err := DecodeRepairDiff(b)
	if err != nil {
		t.Fatal(err)
	}
	if gotCovered != covered {
		t.Fatalf("covered = %s", gotCovered)
	}
	if len(gotNewer) != 2 || gotNewer[0].Version != 9 || gotNewer[1].Version != 4 {
		t.Fatalf("newer = %+v", gotNewer)
	}
	if len(gotWant) != 3 || gotWant[0] != want[0] || gotWant[2] != want[2] {
		t.Fatalf("want = %+v", gotWant)
	}

	// The all-caught-up reply: nothing newer, nothing wanted.
	b, err = AppendRepairDiff(nil, covered, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, n, w, err := DecodeRepairDiff(b); err != nil || n != nil || w != nil {
		t.Fatalf("empty diff = %v %v %v", n, w, err)
	}
}

func TestRepairFramesFitTheirPayloadBounds(t *testing.T) {
	// A maximal digest page must fit the non-batch frame bound.
	ds := make([]store.Digest, MaxRepairDigests)
	for i := range ds {
		ds[i].GUID[0] = byte(i >> 8)
		ds[i].GUID[1] = byte(i)
		ds[i].GUID[2] = 1 // strictly ascending, nonzero
	}
	b, err := AppendRepairDigest(nil, guid.GUID{}, guid.Max(), ds)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := AppendFrameID(nil, MsgRepairDigest, 1, b); err != nil {
		t.Fatalf("maximal digest page exceeds MaxPayload: %d bytes", len(b))
	}

	// A maximal diff (MaxBatch worst-case entries + MaxBatch wants)
	// must fit the batch bound.
	newer := make([]store.Entry, MaxBatch)
	want := make([]guid.GUID, MaxBatch)
	for i := range newer {
		e := store.Entry{Version: 1, Meta: 0xFFFFFFFF}
		e.GUID[0] = byte(i >> 8)
		e.GUID[1] = byte(i)
		e.GUID[2] = 1
		for j := 0; j < store.MaxNAs; j++ {
			e.NAs = append(e.NAs, store.NA{AS: 1 << 30, Addr: netaddr.Addr(0xFFFFFFFF)})
		}
		newer[i] = e
		want[i] = e.GUID
	}
	b, err = AppendRepairDiff(nil, guid.Max(), newer, want)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := AppendFrameID(nil, MsgRepairDiff, 1, b); err != nil {
		t.Fatalf("maximal diff exceeds MaxPayload: %d bytes", len(b))
	}
	if len(b) <= MaxFrame {
		t.Fatalf("maximal diff (%d bytes) fits MaxFrame; the batch bound is pointless", len(b))
	}
}

// FuzzDecodeRepairDigest hardens the digest-page decoder: never panic,
// and any accepted page re-encodes byte-identically (the ordering and
// range invariants survive a round trip).
func FuzzDecodeRepairDigest(f *testing.F) {
	seed, _ := AppendRepairDigest(nil, guid.GUID{}, guid.Max(), sortedDigests(3, 1, 4))
	f.Add(seed)
	empty, _ := AppendRepairDigest(nil, guid.GUID{}, guid.Max(), nil)
	f.Add(empty)
	f.Add(bytes.Repeat([]byte{0x42}, 2*guid.Size+2))
	f.Add([]byte{1, 2, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		after, through, ds, err := DecodeRepairDigest(data)
		if err != nil {
			return
		}
		enc, err := AppendRepairDigest(nil, after, through, ds)
		if err != nil {
			t.Fatalf("decoded page fails re-encode: %v", err)
		}
		if !bytes.Equal(enc, data) {
			t.Fatal("re-encoding differs from accepted bytes")
		}
	})
}

// FuzzDecodeRepairDiff hardens the diff decoder the same way.
func FuzzDecodeRepairDiff(f *testing.F) {
	seed, _ := AppendRepairDiff(nil, guid.Max(),
		[]store.Entry{repairEntry("n", 2)}, []guid.GUID{guid.New("w")})
	f.Add(seed)
	empty, _ := AppendRepairDiff(nil, guid.GUID{}, nil, nil)
	f.Add(empty)
	f.Add(bytes.Repeat([]byte{0xAA}, 64))
	f.Fuzz(func(t *testing.T, data []byte) {
		covered, newer, want, err := DecodeRepairDiff(data)
		if err != nil {
			return
		}
		enc, err := AppendRepairDiff(nil, covered, newer, want)
		if err != nil {
			t.Fatalf("decoded diff fails re-encode: %v", err)
		}
		if !bytes.Equal(enc, data) {
			t.Fatal("re-encoding differs from accepted bytes")
		}
	})
}
