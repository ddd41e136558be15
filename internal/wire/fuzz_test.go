package wire

import (
	"bytes"
	"testing"

	"dmap/internal/guid"
	"dmap/internal/netaddr"
	"dmap/internal/store"
	"dmap/internal/trace"
)

// FuzzDecodeEntry hardens the wire decoder against arbitrary bytes: it
// must never panic, and anything it accepts must re-encode canonically.
func FuzzDecodeEntry(f *testing.F) {
	seed, _ := AppendEntry(nil, store.Entry{
		GUID:    [20]byte{1, 2, 3},
		NAs:     []store.NA{{AS: 7, Addr: netaddr.AddrFromOctets(10, 0, 0, 1)}},
		Version: 9,
	})
	f.Add(seed)
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xFF}, 64))
	f.Fuzz(func(t *testing.T, data []byte) {
		e, rest, err := DecodeEntryAppend(nil, data)
		if err != nil {
			return
		}
		if len(rest) > len(data) {
			t.Fatal("rest longer than input")
		}
		enc, err := AppendEntry(nil, e)
		if err != nil {
			t.Fatalf("decoded entry fails validation on re-encode: %v", err)
		}
		if !bytes.Equal(enc, data[:len(data)-len(rest)]) {
			t.Fatal("re-encoding differs from accepted bytes")
		}
	})
}

// FuzzDecodeLookupResp must never panic on arbitrary bytes.
func FuzzDecodeLookupResp(f *testing.F) {
	ok, _ := AppendLookupResp(nil, LookupResp{})
	f.Add(ok)
	f.Add([]byte{1})
	f.Fuzz(func(t *testing.T, data []byte) {
		_, _ = DecodeLookupRespInto(new(store.Entry), data)
	})
}

// FuzzDecodeFrame covers the full frame path the server and client run
// on every message: header + payload via ReadFrame, then the per-type
// payload decoder. It must never panic, never read past the frame it
// accepted, and accepted frames must round-trip canonically through
// WriteFrame.
func FuzzDecodeFrame(f *testing.F) {
	var seed bytes.Buffer
	entry, _ := AppendEntry(nil, store.Entry{
		GUID:    [20]byte{9},
		NAs:     []store.NA{{AS: 1, Addr: netaddr.AddrFromOctets(198, 51, 100, 7)}},
		Version: 3,
	})
	_ = WriteFrame(&seed, MsgInsert, entry)
	f.Add(append([]byte(nil), seed.Bytes()...))
	seed.Reset()
	_ = WriteFrame(&seed, MsgLookup, AppendGUID(nil, [20]byte{1}))
	f.Add(append([]byte(nil), seed.Bytes()...))
	seed.Reset()
	resp, _ := AppendLookupResp(nil, LookupResp{})
	_ = WriteFrame(&seed, MsgLookupResp, resp)
	f.Add(append([]byte(nil), seed.Bytes()...))
	seed.Reset()
	_ = WriteFrame(&seed, MsgError, AppendErrorKind(nil, ErrKindGeneric, "draining"))
	f.Add(append([]byte(nil), seed.Bytes()...))
	f.Add([]byte{0, 0, 0, 0, byte(MsgPing)})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0})
	f.Add(bytes.Repeat([]byte{7}, 300))

	f.Fuzz(func(t *testing.T, data []byte) {
		r := bytes.NewReader(data)
		typ, payload, err := ReadFrame(r)
		if err != nil {
			return
		}
		consumed := len(data) - r.Len()
		if want := 5 + len(payload); consumed != want {
			t.Fatalf("ReadFrame consumed %d bytes, want header+payload = %d", consumed, want)
		}
		// Canonical round trip: re-encoding the accepted frame must
		// reproduce the consumed bytes exactly.
		var out bytes.Buffer
		if err := WriteFrame(&out, typ, payload); err != nil {
			t.Fatalf("accepted frame fails re-encode: %v", err)
		}
		if !bytes.Equal(out.Bytes(), data[:consumed]) {
			t.Fatal("re-encoded frame differs from accepted bytes")
		}
		// The per-type payload decoders must be panic-free on whatever
		// the framing layer hands them.
		switch typ {
		case MsgInsert:
			_, _, _ = DecodeEntryAppend(nil, payload)
		case MsgLookup, MsgDelete:
			_, _, _ = DecodeGUID(payload)
		case MsgLookupResp:
			_, _ = DecodeLookupRespInto(new(store.Entry), payload)
		case MsgError:
			_, _, _ = DecodeErrorKind(payload)
		}
	})
}

// FuzzReadFrame must never panic or over-allocate on hostile streams.
func FuzzReadFrame(f *testing.F) {
	var buf bytes.Buffer
	_ = WriteFrame(&buf, MsgPing, []byte("x"))
	f.Add(buf.Bytes())
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		_, _, _ = ReadFrame(bytes.NewReader(data))
	})
}

// FuzzDecodeFrameV2 covers the identified (v2) frame path: header with
// request ID via ReadFrameIDInto, then the per-type payload decoder —
// including the batch codecs and handshake bodies. Accepted frames must
// round-trip canonically through AppendFrameID with the same ID, and the
// per-type decoders must be panic-free.
func FuzzDecodeFrameV2(f *testing.F) {
	seed := func(t MsgType, id uint64, payload []byte) {
		frame, _ := AppendFrameID(nil, t, id, payload)
		f.Add(frame)
	}
	entry, _ := AppendEntry(nil, store.Entry{
		GUID:    [20]byte{9},
		NAs:     []store.NA{{AS: 1, Addr: netaddr.AddrFromOctets(198, 51, 100, 7)}},
		Version: 3,
	})
	batch, _ := AppendBatchInsert(nil, []store.Entry{
		{GUID: [20]byte{1}, NAs: []store.NA{{AS: 2, Addr: netaddr.AddrFromOctets(10, 0, 0, 9)}}, Version: 1},
		{GUID: [20]byte{2}, NAs: []store.NA{{AS: 3, Addr: netaddr.AddrFromOctets(10, 0, 0, 8)}}, Version: 2},
	})
	seed(MsgBatchInsert, 1, batch)
	lookups, _ := AppendBatchLookup(nil, []guid.GUID{{1}, {2}, {3}})
	seed(MsgBatchLookup, 2, lookups)
	resp, _ := AppendBatchLookupResp(nil, []LookupResp{{}, {Found: true, Entry: mustEntry(entry)}})
	seed(MsgBatchLookupResp, 3, resp)
	acks, _ := AppendBatchInsertAck(nil, []bool{true, false})
	seed(MsgBatchInsertAck, 4, acks)
	seed(MsgInsert, 5, entry)
	// Hostile shapes: length below the ID width, huge length claim.
	f.Add([]byte{0, 0, 0, 3, byte(MsgPing), 0, 0, 0})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, byte(MsgBatchInsert), 0, 0, 0, 0, 0, 0, 0, 1})

	f.Fuzz(func(t *testing.T, data []byte) {
		r := bytes.NewReader(data)
		typ, id, payload, err := ReadFrameIDInto(r, nil)
		if err != nil {
			return
		}
		consumed := len(data) - r.Len()
		if want := 13 + len(payload); consumed != want {
			t.Fatalf("ReadFrameIDInto consumed %d bytes, want header+payload = %d", consumed, want)
		}
		out, err := AppendFrameID(nil, typ, id, payload)
		if err != nil {
			t.Fatalf("accepted frame fails re-encode: %v", err)
		}
		if !bytes.Equal(out, data[:consumed]) {
			t.Fatal("re-encoded frame differs from accepted bytes")
		}
		switch typ {
		case MsgInsert:
			_, _, _ = DecodeEntryAppend(nil, payload)
		case MsgLookup, MsgDelete:
			_, _, _ = DecodeGUID(payload)
		case MsgLookupResp:
			_, _ = DecodeLookupRespInto(new(store.Entry), payload)
		case MsgError:
			_, _, _ = DecodeErrorKind(payload)
		case MsgHello:
			_, _ = DecodeHello(payload)
		case MsgHelloAck:
			_, _, _ = DecodeHelloAck(payload)
		case MsgBatchInsert:
			_, _ = DecodeBatchInsert(payload)
		case MsgBatchInsertAck:
			_, _ = DecodeBatchInsertAck(payload)
		case MsgBatchLookup:
			_, _ = DecodeBatchLookup(payload)
		case MsgBatchLookupResp:
			_, _ = DecodeBatchLookupResp(payload)
		}
	})
}

// FuzzDecodeBatchInsert checks the batch entry codec never panics and
// re-encodes canonically.
func FuzzDecodeBatchInsert(f *testing.F) {
	seed, _ := AppendBatchInsert(nil, []store.Entry{
		{GUID: [20]byte{4}, NAs: []store.NA{{AS: 1, Addr: netaddr.AddrFromOctets(10, 1, 2, 3)}}, Version: 7},
	})
	f.Add(seed)
	f.Add([]byte{0, 1})
	f.Add(bytes.Repeat([]byte{0xAA}, 128))
	f.Fuzz(func(t *testing.T, data []byte) {
		entries, err := DecodeBatchInsert(data)
		if err != nil {
			return
		}
		enc, err := AppendBatchInsert(nil, entries)
		if err != nil {
			t.Fatalf("decoded batch fails re-encode: %v", err)
		}
		if !bytes.Equal(enc, data) {
			t.Fatal("re-encoding differs from accepted bytes")
		}
	})
}

// FuzzDecodeHello hardens the handshake decoders.
func FuzzDecodeHello(f *testing.F) {
	f.Add(AppendHello(nil, Version2))
	f.Add(AppendHelloAck(nil, 1))
	f.Add(append(AppendHello(nil, Version2), 1)) // a feature byte, ignored
	f.Add(append(AppendHelloAck(nil, Version2), 1))
	f.Fuzz(func(t *testing.T, data []byte) {
		_, _ = DecodeHello(data)
		_, _, _ = DecodeHelloAck(data)
	})
}

// FuzzDecodeTraceContext hardens the trace-context prefix decoder: it
// must never panic, and accepted prefixes must re-encode canonically.
func FuzzDecodeTraceContext(f *testing.F) {
	f.Add(AppendTraceContext(nil, trace.Context{Trace: 0xDEADBEEF, Span: 3, Sampled: true}))
	f.Add(AppendTraceContext(nil, trace.Context{Trace: 1}))
	f.Add(append(AppendTraceContext(nil, trace.Context{Trace: 7, Sampled: true}), 0xAA, 0xBB))
	f.Add(bytes.Repeat([]byte{0xFF}, TraceContextLen))
	f.Add([]byte{1, 2, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		tc, rest, err := DecodeTraceContext(data)
		if err != nil {
			return
		}
		if tc.Trace == 0 {
			t.Fatal("accepted zero trace ID")
		}
		if len(rest) != len(data)-TraceContextLen {
			t.Fatalf("rest = %d bytes, want %d", len(rest), len(data)-TraceContextLen)
		}
		enc := AppendTraceContext(nil, tc)
		if !bytes.Equal(enc, data[:TraceContextLen]) {
			t.Fatalf("re-encoding differs: %x vs %x", enc, data[:TraceContextLen])
		}
	})
}

func mustEntry(b []byte) store.Entry {
	e, _, err := DecodeEntryAppend(nil, b)
	if err != nil {
		panic(err)
	}
	return e
}
