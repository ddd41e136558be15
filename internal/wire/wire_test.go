package wire

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"

	"dmap/internal/guid"
	"dmap/internal/netaddr"
	"dmap/internal/store"
)

func sampleEntry(nas int) store.Entry {
	e := store.Entry{GUID: guid.New("sample"), Version: 42, Meta: 7}
	for i := 0; i < nas; i++ {
		e.NAs = append(e.NAs, store.NA{AS: 100 + i, Addr: netaddr.AddrFromOctets(10, 0, 0, byte(i))})
	}
	return e
}

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	payload := []byte("hello")
	if err := WriteFrame(&buf, MsgLookup, payload); err != nil {
		t.Fatal(err)
	}
	typ, body, err := ReadFrame(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if typ != MsgLookup || !bytes.Equal(body, payload) {
		t.Errorf("got (%v, %q)", typ, body)
	}
}

func TestEmptyFrame(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, MsgPing, nil); err != nil {
		t.Fatal(err)
	}
	typ, body, err := ReadFrame(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if typ != MsgPing || len(body) != 0 {
		t.Errorf("got (%v, %d bytes)", typ, len(body))
	}
}

func TestFrameTooLarge(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, MsgInsert, make([]byte, MaxFrame+1)); !errors.Is(err, ErrFrameTooLarge) {
		t.Errorf("write err = %v", err)
	}
	// Hostile length header.
	hostile := []byte{0xFF, 0xFF, 0xFF, 0xFF, byte(MsgInsert)}
	if _, _, err := ReadFrame(bytes.NewReader(hostile)); !errors.Is(err, ErrFrameTooLarge) {
		t.Errorf("read err = %v", err)
	}
}

func TestTruncatedFrame(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, MsgLookup, []byte("abc")); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	for cut := 1; cut < len(raw); cut++ {
		if _, _, err := ReadFrame(bytes.NewReader(raw[:cut])); err == nil {
			t.Errorf("cut=%d should fail", cut)
		}
	}
}

func TestEntryRoundTrip(t *testing.T) {
	for nas := 1; nas <= store.MaxNAs; nas++ {
		e := sampleEntry(nas)
		enc, err := AppendEntry(nil, e)
		if err != nil {
			t.Fatal(err)
		}
		dec, rest, err := DecodeEntryAppend(nil, enc)
		if err != nil {
			t.Fatal(err)
		}
		if len(rest) != 0 {
			t.Errorf("nas=%d: %d leftover bytes", nas, len(rest))
		}
		if dec.GUID != e.GUID || dec.Version != e.Version || dec.Meta != e.Meta {
			t.Errorf("nas=%d: header mismatch: %+v", nas, dec)
		}
		if len(dec.NAs) != nas {
			t.Fatalf("nas=%d: decoded %d NAs", nas, len(dec.NAs))
		}
		for i := range dec.NAs {
			if dec.NAs[i] != e.NAs[i] {
				t.Errorf("NA %d mismatch", i)
			}
		}
	}
}

func TestEntryEncodedSize(t *testing.T) {
	// GUID(20) + version(8) + meta(4) + count(1) + n×(AS 4 + addr 4).
	// The §IV-A 352-bit figure covers the stored fields (GUID + 5 addrs
	// + meta); the wire adds the version and AS indices for the
	// freshest-wins protocol.
	for n := 1; n <= store.MaxNAs; n++ {
		enc, err := AppendEntry(nil, sampleEntry(n))
		if err != nil {
			t.Fatal(err)
		}
		if want := 20 + 8 + 4 + 1 + 8*n; len(enc) != want {
			t.Errorf("n=%d: encoded size = %d bytes, want %d", n, len(enc), want)
		}
	}
}

func TestEntryValidationOnBothSides(t *testing.T) {
	if _, err := AppendEntry(nil, store.Entry{GUID: guid.New("x")}); err == nil {
		t.Error("encoding invalid entry should fail")
	}
	// Zero NA count on the wire.
	e := sampleEntry(1)
	enc, _ := AppendEntry(nil, e)
	enc[guid.Size+8+4] = 0
	if _, _, err := DecodeEntryAppend(nil, enc); err == nil {
		t.Error("zero NA count should fail")
	}
	enc[guid.Size+8+4] = store.MaxNAs + 1
	if _, _, err := DecodeEntryAppend(nil, enc); err == nil {
		t.Error("excessive NA count should fail")
	}
}

// An AS index travels in four bytes: one that does not fit is refused by
// the encoder (store.Entry.Validate), never truncated into another AS,
// and the ends of the range round-trip.
func TestEntryASIndexBounds(t *testing.T) {
	for _, c := range []struct {
		as int
		ok bool
	}{{-1, false}, {0, true}, {1<<32 - 1, true}, {1 << 32, false}} {
		e := sampleEntry(2)
		e.NAs[1].AS = c.as
		enc, err := AppendEntry(nil, e)
		if (err == nil) != c.ok {
			t.Errorf("AppendEntry with AS %d: err = %v, want accepted = %v", c.as, err, c.ok)
			continue
		}
		if !c.ok {
			continue
		}
		var nas [store.MaxNAs]store.NA
		if dec, rest, err := DecodeEntryAppend(nas[:0], enc); err != nil || len(rest) != 0 || dec.NAs[1].AS != c.as {
			t.Errorf("AS %d decoded as %+v, rest %d, %v", c.as, dec.NAs, len(rest), err)
		}
	}
}

func TestDecodeEntryTruncated(t *testing.T) {
	enc, _ := AppendEntry(nil, sampleEntry(3))
	for cut := 0; cut < len(enc); cut++ {
		if _, _, err := DecodeEntryAppend(nil, enc[:cut]); err == nil {
			t.Errorf("cut=%d should fail", cut)
		}
	}
}

func TestGUIDRoundTrip(t *testing.T) {
	f := func(v uint64) bool {
		g := guid.FromUint64(v)
		enc := AppendGUID(nil, g)
		dec, rest, err := DecodeGUID(enc)
		return err == nil && dec == g && len(rest) == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	if _, _, err := DecodeGUID(make([]byte, guid.Size-1)); !errors.Is(err, ErrTruncated) {
		t.Error("short GUID should fail")
	}
}

func TestLookupRespRoundTrip(t *testing.T) {
	// Not found.
	enc, err := AppendLookupResp(nil, LookupResp{})
	if err != nil {
		t.Fatal(err)
	}
	var dec store.Entry
	found, err := DecodeLookupRespInto(&dec, enc)
	if err != nil || found {
		t.Errorf("not-found round trip: %t, %v", found, err)
	}
	// Found.
	e := sampleEntry(2)
	enc, err = AppendLookupResp(nil, LookupResp{Found: true, Entry: e})
	if err != nil {
		t.Fatal(err)
	}
	found, err = DecodeLookupRespInto(&dec, enc)
	if err != nil || !found || dec.GUID != e.GUID {
		t.Errorf("found round trip: %t %+v, %v", found, dec, err)
	}
	// Garbage flag.
	if _, err := DecodeLookupRespInto(&dec, []byte{9}); err == nil {
		t.Error("bad flag should fail")
	}
	if _, err := DecodeLookupRespInto(&dec, nil); !errors.Is(err, ErrTruncated) {
		t.Error("empty should fail")
	}
}

func TestMsgTypeString(t *testing.T) {
	types := []MsgType{MsgInsert, MsgInsertAck, MsgLookup, MsgLookupResp, MsgDelete, MsgDeleteAck, MsgPing, MsgPong, MsgType(99)}
	for _, typ := range types {
		if typ.String() == "" {
			t.Errorf("type %d has empty name", typ)
		}
	}
}
