// Tests for the explicit buffer-ownership contract (DESIGN.md §9):
// every Append* must treat dst as append-only — preserving whatever the
// caller already accumulated and reusing its capacity — and every
// Decode* must copy, so no decoded value aliases the buffer it was
// parsed from. The poison tests prove the second half the hard way:
// the source buffer is scribbled over after decoding, and the decoded
// values must not notice.
package wire

import (
	"bytes"
	"testing"

	"dmap/internal/guid"
	"dmap/internal/store"
	"dmap/internal/trace"
)

// appendCase exercises one Append function: encode onto a dirty dst
// with spare capacity, then hand the encoded suffix to check.
type appendCase struct {
	name   string
	append func(dst []byte) ([]byte, error)
	check  func(t *testing.T, encoded []byte)
}

func appendCases() []appendCase {
	entry := sampleEntry(3)
	tc := trace.Context{Trace: 0xABCDEF0123456789, Span: 99, Sampled: true}
	g := guid.New("alias-test")
	return []appendCase{
		{"AppendFrameID", func(dst []byte) ([]byte, error) {
			return AppendFrameID(dst, MsgLookupResp, 12345, []byte("resp"))
		}, func(t *testing.T, enc []byte) {
			typ, id, body, err := ReadFrameIDInto(bytes.NewReader(enc), nil)
			if err != nil || typ != MsgLookupResp || id != 12345 || string(body) != "resp" {
				t.Fatalf("ReadFrameIDInto = %v %d %q %v", typ, id, body, err)
			}
		}},
		{"AppendFrameIDTrace", func(dst []byte) ([]byte, error) {
			return AppendFrameIDTrace(dst, MsgLookup, 77, tc, []byte("traced"))
		}, func(t *testing.T, enc []byte) {
			typ, id, body, err := ReadFrameIDInto(bytes.NewReader(enc), nil)
			if err != nil || !IsTraced(typ) || BaseType(typ) != MsgLookup || id != 77 {
				t.Fatalf("ReadFrameIDInto = %v %d %v", typ, id, err)
			}
			gotTC, rest, err := DecodeTraceContext(body)
			if err != nil || gotTC != tc || string(rest) != "traced" {
				t.Fatalf("DecodeTraceContext = %+v %q %v", gotTC, rest, err)
			}
		}},
		{"AppendEntry", func(dst []byte) ([]byte, error) {
			return AppendEntry(dst, entry)
		}, func(t *testing.T, enc []byte) {
			dec, rest, err := DecodeEntryAppend(nil, enc)
			if err != nil || len(rest) != 0 || dec.GUID != entry.GUID || len(dec.NAs) != len(entry.NAs) {
				t.Fatalf("DecodeEntryAppend = %+v rest=%d %v", dec, len(rest), err)
			}
		}},
		{"AppendGUID", func(dst []byte) ([]byte, error) {
			return AppendGUID(dst, g), nil
		}, func(t *testing.T, enc []byte) {
			dec, rest, err := DecodeGUID(enc)
			if err != nil || len(rest) != 0 || dec != g {
				t.Fatalf("DecodeGUID = %v rest=%d %v", dec, len(rest), err)
			}
		}},
		{"AppendError", func(dst []byte) ([]byte, error) {
			return AppendErrorKind(dst, ErrKindGeneric, "kaboom"), nil
		}, func(t *testing.T, enc []byte) {
			kind, reason, err := DecodeErrorKind(enc)
			if err != nil || kind != ErrKindGeneric || reason != "kaboom" {
				t.Fatalf("DecodeErrorKind = %v %q %v", kind, reason, err)
			}
		}},
		{"AppendLookupResp", func(dst []byte) ([]byte, error) {
			return AppendLookupResp(dst, LookupResp{Found: true, Entry: entry})
		}, func(t *testing.T, enc []byte) {
			var e store.Entry
			found, err := DecodeLookupRespInto(&e, enc)
			if err != nil || !found || e.GUID != entry.GUID {
				t.Fatalf("DecodeLookupRespInto = %t %+v %v", found, e, err)
			}
		}},
		{"AppendTraceContext", func(dst []byte) ([]byte, error) {
			return AppendTraceContext(dst, tc), nil
		}, func(t *testing.T, enc []byte) {
			got, rest, err := DecodeTraceContext(enc)
			if err != nil || len(rest) != 0 || got != tc {
				t.Fatalf("DecodeTraceContext = %+v rest=%d %v", got, len(rest), err)
			}
		}},
		{"AppendBatchInsert", func(dst []byte) ([]byte, error) {
			return AppendBatchInsert(dst, []store.Entry{entry, entry})
		}, func(t *testing.T, enc []byte) {
			es, err := DecodeBatchInsert(enc)
			if err != nil || len(es) != 2 || es[0].GUID != entry.GUID {
				t.Fatalf("DecodeBatchInsert = %d entries %v", len(es), err)
			}
		}},
		{"AppendBatchInsertAck", func(dst []byte) ([]byte, error) {
			return AppendBatchInsertAck(dst, []bool{true, false, true})
		}, func(t *testing.T, enc []byte) {
			acks, err := DecodeBatchInsertAck(enc)
			if err != nil || len(acks) != 3 || !acks[0] || acks[1] {
				t.Fatalf("DecodeBatchInsertAck = %v %v", acks, err)
			}
		}},
		{"AppendBatchLookup", func(dst []byte) ([]byte, error) {
			return AppendBatchLookup(dst, []guid.GUID{g, entry.GUID})
		}, func(t *testing.T, enc []byte) {
			gs, err := DecodeBatchLookup(enc)
			if err != nil || len(gs) != 2 || gs[0] != g {
				t.Fatalf("DecodeBatchLookup = %v %v", gs, err)
			}
		}},
		{"AppendBatchLookupResp", func(dst []byte) ([]byte, error) {
			return AppendBatchLookupResp(dst, []LookupResp{{Found: true, Entry: entry}, {}})
		}, func(t *testing.T, enc []byte) {
			rs, err := DecodeBatchLookupResp(enc)
			if err != nil || len(rs) != 2 || !rs[0].Found || rs[1].Found {
				t.Fatalf("DecodeBatchLookupResp = %d resps %v", len(rs), err)
			}
		}},
	}
}

// TestAppendPreservesReusedDst encodes onto a non-empty dst that has
// spare capacity — the shape every pooled call site passes — and
// verifies (1) the caller's prefix survives byte-for-byte, (2) the
// encoder reused dst's storage instead of reallocating, and (3) the
// encoded suffix decodes.
func TestAppendPreservesReusedDst(t *testing.T) {
	for _, tc := range appendCases() {
		t.Run(tc.name, func(t *testing.T) {
			prefix := []byte("caller-owned prefix \x00\xA5\xFF")
			dst := append(make([]byte, 0, 8<<10), prefix...)
			out, err := tc.append(dst)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(out[:len(prefix)], prefix) {
				t.Fatalf("prefix clobbered: %q", out[:len(prefix)])
			}
			if &out[0] != &dst[0] {
				t.Fatal("encoder reallocated despite sufficient capacity")
			}
			tc.check(t, out[len(prefix):])
		})
	}
}

// TestAppendIntoDirtyCapacity re-encodes into the same truncated buffer
// twice: leftover garbage beyond len(dst) from a previous use must not
// leak into the new encoding.
func TestAppendIntoDirtyCapacity(t *testing.T) {
	for _, tc := range appendCases() {
		t.Run(tc.name, func(t *testing.T) {
			buf := bytes.Repeat([]byte{0xA5}, 8<<10) // dirty storage
			first, err := tc.append(buf[:0])
			if err != nil {
				t.Fatal(err)
			}
			snapshot := append([]byte(nil), first...)
			second, err := tc.append(first[:0]) // reuse, still dirty past len 0
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(second, snapshot) {
				t.Fatal("encoding differs when reusing dirty capacity")
			}
			tc.check(t, second)
		})
	}
}

// TestDecodedValuesSurvivePoisonedPut is the aliasing proof: decode
// out of a pooled buffer, release the buffer with poisoning on (Put
// overwrites every byte), and check the decoded values are untouched.
// Any Decode* that returned a view into the buffer instead of a copy
// fails here deterministically.
func TestDecodedValuesSurvivePoisonedPut(t *testing.T) {
	saved := Poison
	Poison = true
	defer func() { Poison = saved }()

	pool := NewBufPool(4)
	entry := sampleEntry(store.MaxNAs)
	g := guid.New("poison")

	buf := pool.Get(512)
	buf, err := AppendEntry(buf, entry)
	if err != nil {
		t.Fatal(err)
	}
	mark := len(buf)
	buf = AppendGUID(buf, g)
	buf = AppendErrorKind(buf, ErrKindGeneric, "poisoned reason")

	dec, _, err := DecodeEntryAppend(nil, buf[:mark])
	if err != nil {
		t.Fatal(err)
	}
	gotG, _, err := DecodeGUID(buf[mark:])
	if err != nil {
		t.Fatal(err)
	}
	_, reason, err := DecodeErrorKind(buf[mark+len(g):])
	if err != nil {
		t.Fatal(err)
	}

	pool.Put(buf) // poisons every byte of the backing array

	if dec.GUID != entry.GUID || dec.Version != entry.Version || dec.Meta != entry.Meta {
		t.Fatalf("entry header corrupted by Put: %+v", dec)
	}
	for i := range dec.NAs {
		if dec.NAs[i] != entry.NAs[i] {
			t.Fatalf("entry NA %d aliases the pooled buffer: %+v", i, dec.NAs[i])
		}
	}
	if gotG != g {
		t.Fatalf("GUID aliases the pooled buffer: %v", gotG)
	}
	if reason != "poisoned reason" {
		t.Fatalf("error string aliases the pooled buffer: %q", reason)
	}
}

// TestReadFrameIDIntoReuse checks the Decode-into contract: a dst with
// enough capacity is reused (no allocation, payload aliases dst), and
// an undersized dst is abandoned for grown storage.
func TestReadFrameIDIntoReuse(t *testing.T) {
	frame, err := AppendFrameID(nil, MsgLookup, 9, []byte("abcdef"))
	if err != nil {
		t.Fatal(err)
	}

	dst := make([]byte, 0, 256)
	typ, id, payload, err := ReadFrameIDInto(bytes.NewReader(frame), dst)
	if err != nil || typ != MsgLookup || id != 9 || string(payload) != "abcdef" {
		t.Fatalf("ReadFrameIDInto = %v %d %q %v", typ, id, payload, err)
	}
	if cap(payload) != cap(dst) {
		t.Fatalf("payload cap %d, want dst's storage reused (cap %d)", cap(payload), cap(dst))
	}

	// Undersized dst: the read must still succeed on grown storage.
	small := make([]byte, 0, 2)
	typ, id, payload, err = ReadFrameIDInto(bytes.NewReader(frame), small)
	if err != nil || typ != MsgLookup || id != 9 || string(payload) != "abcdef" {
		t.Fatalf("grown ReadFrameIDInto = %v %d %q %v", typ, id, payload, err)
	}
	if cap(payload) == cap(small) {
		t.Fatal("payload claims to fit in a 2-byte dst")
	}
}

// TestReadFrameIntoReuse mirrors TestReadFrameIDIntoReuse for the v1
// frame reader.
func TestReadFrameIntoReuse(t *testing.T) {
	var frame bytes.Buffer
	if err := WriteFrame(&frame, MsgInsert, []byte("v1-payload")); err != nil {
		t.Fatal(err)
	}
	dst := make([]byte, 0, 256)
	typ, payload, err := ReadFrameInto(&frame, dst)
	if err != nil || typ != MsgInsert || string(payload) != "v1-payload" {
		t.Fatalf("ReadFrameInto = %v %q %v", typ, payload, err)
	}
	if cap(payload) != cap(dst) {
		t.Fatalf("payload cap %d, want dst's storage reused (cap %d)", cap(payload), cap(dst))
	}
}
