package wire

import (
	"testing"

	"dmap/internal/guid"
	"dmap/internal/netaddr"
	"dmap/internal/store"
)

func intoTestEntry() store.Entry {
	return store.Entry{
		GUID: guid.New("into"),
		NAs: []store.NA{
			{AS: 1, Addr: netaddr.AddrFromOctets(10, 0, 0, 1)},
			{AS: 2, Addr: netaddr.AddrFromOctets(10, 0, 0, 2)},
			{AS: 3, Addr: netaddr.AddrFromOctets(10, 0, 0, 3)},
		},
		Version: 42,
		Meta:    7,
	}
}

func TestDecodeEntryInto(t *testing.T) {
	want := intoTestEntry()
	enc, err := AppendEntry(nil, want)
	if err != nil {
		t.Fatal(err)
	}
	nas := make([]store.NA, 0, store.MaxNAs)
	e, rest, err := DecodeEntryAppend(nas, enc)
	if err != nil || len(rest) != 0 {
		t.Fatalf("DecodeEntryAppend = (%d rest, %v)", len(rest), err)
	}
	if e.GUID != want.GUID || e.Version != want.Version || e.Meta != want.Meta || len(e.NAs) != 3 || e.NAs[2] != want.NAs[2] || &e.NAs[0] != &nas[:1][0] {
		t.Fatalf("decoded %+v, want %+v in the caller's buffer", e, want)
	}
	// Reuse across decodes with pre-grown capacity allocates nothing.
	allocs := testing.AllocsPerRun(100, func() {
		if _, _, err := DecodeEntryAppend(nas, enc); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("DecodeEntryAppend allocs/op = %v, want 0", allocs)
	}
	if _, _, err := DecodeEntryAppend(nas, enc[:5]); err == nil {
		t.Fatal("accepted truncated entry")
	}
}

func TestDecodeLookupRespInto(t *testing.T) {
	want := intoTestEntry()
	hit, err := AppendLookupResp(nil, LookupResp{Found: true, Entry: want})
	if err != nil {
		t.Fatal(err)
	}
	miss, _ := AppendLookupResp(nil, LookupResp{})

	var e store.Entry
	e.NAs = make([]store.NA, 0, store.MaxNAs)
	found, err := DecodeLookupRespInto(&e, hit)
	if err != nil || !found {
		t.Fatalf("DecodeLookupRespInto(hit) = (%v, %v)", found, err)
	}
	if e.GUID != want.GUID || e.Version != want.Version {
		t.Fatalf("decoded %+v", e)
	}
	found, err = DecodeLookupRespInto(&e, miss)
	if err != nil || found {
		t.Fatalf("DecodeLookupRespInto(miss) = (%v, %v)", found, err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if ok, err := DecodeLookupRespInto(&e, hit); err != nil || !ok {
			t.Fatal("decode failed")
		}
	})
	if allocs != 0 {
		t.Fatalf("DecodeLookupRespInto allocs/op = %v, want 0", allocs)
	}
}
