package wire

import (
	"bytes"
	"errors"
	"reflect"
	"testing"

	"dmap/internal/guid"
	"dmap/internal/netaddr"
	"dmap/internal/store"
)

func testEntry(i int) store.Entry {
	return store.Entry{
		GUID:    [20]byte{byte(i), byte(i >> 8), 0xAB},
		NAs:     []store.NA{{AS: i%100 + 1, Addr: netaddr.AddrFromOctets(10, 0, byte(i>>8), byte(i))}},
		Version: uint64(i + 1),
		Meta:    uint32(i),
	}
}

func TestHelloRoundTrip(t *testing.T) {
	b := AppendHello(nil, Version2)
	if len(b) != 5 {
		t.Fatalf("legacy hello = %d bytes, want 5", len(b))
	}
	v, err := DecodeHello(b)
	if err != nil || v != Version2 {
		t.Fatalf("DecodeHello = %d, %v; want %d, nil", v, err, Version2)
	}
	for _, bad := range [][]byte{nil, {1, 2, 3, 4}, {0, 0, 0, 0, 2}, AppendHello(nil, 0)} {
		if _, err := DecodeHello(bad); err == nil {
			t.Fatalf("DecodeHello(%v) accepted malformed hello", bad)
		}
	}

	ack := AppendHelloAck(nil, Version2)
	if len(ack) != 1 {
		t.Fatalf("legacy hello ack = %d bytes, want 1", len(ack))
	}
	v, feat, err := DecodeHelloAck(ack)
	if err != nil || v != Version2 || feat != 0 {
		t.Fatalf("DecodeHelloAck = %d, %#x, %v; want %d, 0, nil", v, feat, err, Version2)
	}
	if _, _, err := DecodeHelloAck([]byte{0}); err == nil {
		t.Fatal("DecodeHelloAck accepted version 0")
	}
	if _, _, err := DecodeHelloAck(nil); err == nil {
		t.Fatal("DecodeHelloAck accepted empty payload")
	}
}

// TestHelloFeatRoundTrip: the feature byte a hello once carried, sixth
// in the hello and second in the ack, still decodes — a node ignores the
// hello's, and a dialer the ack's — so a peer that sends one is not
// refused for it.
func TestHelloFeatRoundTrip(t *testing.T) {
	v, err := DecodeHello(append(AppendHello(nil, Version2), 1))
	if err != nil || v != Version2 {
		t.Fatalf("DecodeHello of a 6-byte hello = %d, %v; want %d, nil", v, err, Version2)
	}
	v, feat, err := DecodeHelloAck(append(AppendHelloAck(nil, Version2), 1))
	if err != nil || v != Version2 || feat != 1 {
		t.Fatalf("DecodeHelloAck of a 2-byte ack = %d, %#x, %v; want %d, 0x1, nil", v, feat, err, Version2)
	}
	if _, err := DecodeHello(append(AppendHello(nil, Version2), 1, 1)); err == nil {
		t.Fatal("DecodeHello accepted a 7-byte hello")
	}
}

func TestFrameIDRoundTrip(t *testing.T) {
	payload := AppendGUID(nil, [20]byte{7})
	const id = 0xDEADBEEFCAFE0001
	frame, err := AppendFrameID(nil, MsgLookup, id, payload)
	if err != nil {
		t.Fatalf("AppendFrameID: %v", err)
	}
	buf := bytes.NewBuffer(frame)
	typ, gotID, got, err := ReadFrameIDInto(buf, nil)
	if err != nil {
		t.Fatalf("ReadFrameIDInto: %v", err)
	}
	if typ != MsgLookup || gotID != id || !bytes.Equal(got, payload) {
		t.Fatalf("round trip = (%v, %#x, %x)", typ, gotID, got)
	}
	if buf.Len() != 0 {
		t.Fatalf("%d bytes left after one frame", buf.Len())
	}
}

func TestFrameIDEmptyPayload(t *testing.T) {
	frame, err := AppendFrameID(nil, MsgPing, 42, nil)
	if err != nil {
		t.Fatalf("AppendFrameID: %v", err)
	}
	typ, id, payload, err := ReadFrameIDInto(bytes.NewReader(frame), nil)
	if err != nil || typ != MsgPing || id != 42 || len(payload) != 0 {
		t.Fatalf("round trip = (%v, %d, %x, %v)", typ, id, payload, err)
	}
}

func TestFrameIDBounds(t *testing.T) {
	// A length claim below the 8-byte ID is truncated, not a read of
	// negative payload.
	short := []byte{0, 0, 0, 7, byte(MsgPing), 0, 0, 0, 0, 0, 0, 0, 1}
	if _, _, _, err := ReadFrameIDInto(bytes.NewReader(short), nil); !errors.Is(err, ErrTruncated) {
		t.Fatalf("length < idSize: err = %v, want ErrTruncated", err)
	}

	// Non-batch types keep the small bound even in v2 framing.
	big := make([]byte, MaxFrame+1)
	if _, err := AppendFrameID(nil, MsgInsert, 1, big); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("oversized non-batch write: err = %v, want ErrFrameTooLarge", err)
	}
	hostile := []byte{0xFF, 0xFF, 0xFF, 0xFF, byte(MsgInsert), 0, 0, 0, 0, 0, 0, 0, 1}
	if _, _, _, err := ReadFrameIDInto(bytes.NewReader(hostile), nil); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("hostile length claim: err = %v, want ErrFrameTooLarge", err)
	}

	// Batch types get the larger bound: the same payload size that is
	// rejected for MsgInsert is accepted for MsgBatchInsert framing.
	frame, err := AppendFrameID(nil, MsgBatchInsert, 1, big)
	if err != nil {
		t.Fatalf("batch frame rejected at %d bytes: %v", len(big), err)
	}
	if _, _, _, err := ReadFrameIDInto(bytes.NewReader(frame), nil); err != nil {
		t.Fatalf("batch frame read: %v", err)
	}
	over := make([]byte, MaxBatchFrame+1)
	if _, err := AppendFrameID(nil, MsgBatchInsert, 1, over); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("oversized batch write: err = %v, want ErrFrameTooLarge", err)
	}
}

func TestFrameIDPipelined(t *testing.T) {
	// Many frames written back-to-back demux in order with their IDs
	// intact — the invariant the client's reader goroutine relies on.
	var frames []byte
	const n = 100
	for i := 0; i < n; i++ {
		var err error
		if frames, err = AppendFrameID(frames, MsgLookup, uint64(i)<<32|1, AppendGUID(nil, [20]byte{byte(i)})); err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
	}
	buf := bytes.NewReader(frames)
	for i := 0; i < n; i++ {
		typ, id, payload, err := ReadFrameIDInto(buf, nil)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if typ != MsgLookup || id != uint64(i)<<32|1 || payload[0] != byte(i) {
			t.Fatalf("frame %d demuxed as (%v, %#x, %x)", i, typ, id, payload[:1])
		}
	}
}

func TestBatchInsertRoundTrip(t *testing.T) {
	entries := make([]store.Entry, 300)
	for i := range entries {
		entries[i] = testEntry(i)
	}
	b, err := AppendBatchInsert(nil, entries)
	if err != nil {
		t.Fatalf("AppendBatchInsert: %v", err)
	}
	if len(b) > MaxBatchFrame {
		t.Fatalf("batch of %d entries encodes to %d bytes > MaxBatchFrame", len(entries), len(b))
	}
	got, err := DecodeBatchInsert(b)
	if err != nil {
		t.Fatalf("DecodeBatchInsert: %v", err)
	}
	if len(got) != len(entries) {
		t.Fatalf("decoded %d entries, want %d", len(got), len(entries))
	}
	for i := range got {
		if got[i].GUID != entries[i].GUID || got[i].Version != entries[i].Version {
			t.Fatalf("entry %d mismatched after round trip", i)
		}
	}
	if _, err := DecodeBatchInsert(b[:len(b)-3]); err == nil {
		t.Fatal("truncated batch accepted")
	}
	if _, err := DecodeBatchInsert(append(b, 0)); err == nil {
		t.Fatal("trailing bytes accepted")
	}
}

func TestBatchSizeBounds(t *testing.T) {
	if _, err := AppendBatchInsert(nil, nil); !errors.Is(err, ErrBatchSize) {
		t.Fatalf("empty batch: err = %v, want ErrBatchSize", err)
	}
	big := make([]guid.GUID, MaxBatch+1)
	if _, err := AppendBatchLookup(nil, big); !errors.Is(err, ErrBatchSize) {
		t.Fatalf("oversized batch: err = %v, want ErrBatchSize", err)
	}
	if _, err := AppendBatchLookup(nil, big[:MaxBatch]); err != nil {
		t.Fatalf("MaxBatch batch rejected: %v", err)
	}
	// A hostile count of zero or > MaxBatch is rejected on decode.
	if _, err := DecodeBatchLookup([]byte{0, 0}); !errors.Is(err, ErrBatchSize) {
		t.Fatalf("zero count: err = %v, want ErrBatchSize", err)
	}
	if _, err := DecodeBatchLookup([]byte{0xFF, 0xFF}); !errors.Is(err, ErrBatchSize) {
		t.Fatalf("huge count: err = %v, want ErrBatchSize", err)
	}
}

func TestBatchInsertAckRoundTrip(t *testing.T) {
	acked := []bool{true, false, true, true, false}
	b, err := AppendBatchInsertAck(nil, acked)
	if err != nil {
		t.Fatalf("AppendBatchInsertAck: %v", err)
	}
	got, err := DecodeBatchInsertAck(b)
	if err != nil {
		t.Fatalf("DecodeBatchInsertAck: %v", err)
	}
	for i := range acked {
		if got[i] != acked[i] {
			t.Fatalf("ack %d = %v, want %v", i, got[i], acked[i])
		}
	}
	if _, err := DecodeBatchInsertAck([]byte{0, 2, 1, 7}); err == nil {
		t.Fatal("bad ack flag accepted")
	}
	if _, err := DecodeBatchInsertAck(b[:len(b)-1]); !errors.Is(err, ErrTruncated) {
		t.Fatalf("truncated ack: err = %v, want ErrTruncated", err)
	}
}

func TestBatchLookupRoundTrip(t *testing.T) {
	gs := make([]guid.GUID, 64)
	for i := range gs {
		gs[i] = guid.GUID{byte(i), 0x55}
	}
	b, err := AppendBatchLookup(nil, gs)
	if err != nil {
		t.Fatalf("AppendBatchLookup: %v", err)
	}
	got, err := DecodeBatchLookup(b)
	if err != nil {
		t.Fatalf("DecodeBatchLookup: %v", err)
	}
	for i := range gs {
		if got[i] != gs[i] {
			t.Fatalf("guid %d mismatched", i)
		}
	}
	if _, err := DecodeBatchLookup(b[:len(b)-1]); !errors.Is(err, ErrTruncated) {
		t.Fatalf("truncated lookup batch: err = %v, want ErrTruncated", err)
	}
	if _, err := DecodeBatchLookup(append(b, 9)); !errors.Is(err, ErrTruncated) {
		t.Fatalf("trailing bytes: err = %v, want ErrTruncated", err)
	}
}

func TestBatchLookupRespRoundTrip(t *testing.T) {
	rs := []LookupResp{
		{Found: true, Entry: testEntry(1)},
		{},
		{Found: true, Entry: testEntry(2)},
	}
	b, err := AppendBatchLookupResp(nil, rs)
	if err != nil {
		t.Fatalf("AppendBatchLookupResp: %v", err)
	}
	got, err := DecodeBatchLookupResp(b)
	if err != nil {
		t.Fatalf("DecodeBatchLookupResp: %v", err)
	}
	if len(got) != 3 || !got[0].Found || got[1].Found || !got[2].Found {
		t.Fatalf("found flags mismatched: %+v", got)
	}
	if got[0].Entry.GUID != rs[0].Entry.GUID || got[2].Entry.Version != rs[2].Entry.Version {
		t.Fatal("entries mismatched after round trip")
	}
	if _, err := DecodeBatchLookupResp(b[:len(b)-2]); err == nil {
		t.Fatal("truncated resp batch accepted")
	}
	if _, err := DecodeBatchLookupResp(append(b, 0)); err == nil {
		t.Fatal("trailing bytes accepted")
	}
}

// The entries of one decoded frame share backing arrays for their NAs;
// growing one entry's must not write into the next one's.
func TestBatchLookupRespEntriesDoNotAlias(t *testing.T) {
	rs := make([]LookupResp, 12)
	for i := range rs {
		rs[i] = LookupResp{Found: i != 2, Entry: testEntry(i)}
		for i%2 == 1 && len(rs[i].Entry.NAs) < store.MaxNAs { // enough to need a second array
			rs[i].Entry.NAs = append(rs[i].Entry.NAs, store.NA{AS: 7, Addr: 7})
		}
	}
	b, err := AppendBatchLookupResp(nil, rs)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeBatchLookupResp(b)
	if err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if !got[i].Found {
			continue
		}
		got[i].Entry.NAs = append(got[i].Entry.NAs, store.NA{AS: 0xBAD, Addr: 0xBAD})
	}
	for i, r := range rs {
		if !r.Found {
			continue
		}
		nas := got[i].Entry.NAs
		if len(nas) != len(r.Entry.NAs)+1 || !reflect.DeepEqual(nas[:len(nas)-1], r.Entry.NAs) {
			t.Errorf("entry %d: NAs = %v after its neighbours grew, want %v first", i, nas, r.Entry.NAs)
		}
	}
}
