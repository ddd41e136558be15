// The wire protocol's connection framing (DESIGN.md §7): multiplexed,
// pipelined frames with batched operations.
//
// A connection opens with a two-frame handshake under the plain 5-byte
// header — MsgHello (magic + version), answered by MsgHelloAck with the
// version (Handshake in conn.go; the server's half is server.serveConn),
// negotiating nothing else — and from then on
// carries identified frames only: an 8-byte request ID sits between the
// type byte and the payload, so responses may return in any order and
// many requests can be in flight on one connection. Request IDs are
// opaque to the server; it echoes the ID of the request a frame answers.
// There is one protocol version and no fallback to an older one.
//
// Batch frames (MsgBatchInsert/MsgBatchLookup and their acks) carry up
// to MaxBatch entries/GUIDs each under the larger MaxBatchFrame payload
// bound, amortizing per-frame and per-syscall overhead — the standard
// lever for mobile-host churn at the paper's §VI update rates.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"dmap/internal/guid"
	"dmap/internal/store"
)

// Version2 is the protocol version the hello carries. Version 1,
// sequential anonymous frames, is no longer spoken by anything.
const Version2 = 2

// helloMagic guards the handshake against a non-DMap peer that happens
// to send a length-plausible first frame.
const helloMagic = 0x444D6150 // "DMaP"

// ErrBadHello reports a MsgHello payload that is not a DMap handshake.
var ErrBadHello = errors.New("wire: malformed hello")

// AppendHello encodes a MsgHello body: magic(4) ‖ version(1).
func AppendHello(dst []byte, version byte) []byte {
	dst = binary.BigEndian.AppendUint32(dst, helloMagic)
	return append(dst, version)
}

// DecodeHello decodes a MsgHello body and returns the requested
// version. A sixth byte, the feature flags a hello once carried, is
// accepted and ignored: the hello negotiates nothing.
func DecodeHello(b []byte) (version byte, err error) {
	if len(b) != 5 && len(b) != 6 {
		return 0, ErrBadHello
	}
	if binary.BigEndian.Uint32(b) != helloMagic {
		return 0, ErrBadHello
	}
	if b[4] == 0 {
		return 0, ErrBadHello
	}
	return b[4], nil
}

// AppendHelloAck encodes a MsgHelloAck body: the accepted version.
func AppendHelloAck(dst []byte, version byte) []byte {
	return append(dst, version)
}

// DecodeHelloAck decodes a MsgHelloAck body, returning the accepted
// version and the feature byte a 2-byte ack carries, which nothing
// grants any more and a dialer ignores.
func DecodeHelloAck(b []byte) (version, feat byte, err error) {
	if (len(b) != 1 && len(b) != 2) || b[0] == 0 {
		return 0, 0, fmt.Errorf("wire: malformed hello ack")
	}
	if len(b) == 2 {
		feat = b[1]
	}
	return b[0], feat, nil
}

// idSize is the per-frame request-ID width in v2 framing.
const idSize = 8

// FrameIDHeaderLen is the identified (v2) frame header:
// uint32 length ‖ type ‖ uint64 request ID.
const FrameIDHeaderLen = 4 + 1 + idSize

// AppendFrameID appends one complete identified (v2) frame (header +
// request ID + payload) to dst. Existing dst bytes are preserved, so
// frames can be coalesced back to back into one buffer and written with
// a single syscall (Writer does exactly that).
func AppendFrameID(dst []byte, t MsgType, id uint64, payload []byte) ([]byte, error) {
	if len(payload) > MaxPayload(t) {
		return nil, ErrFrameTooLarge
	}
	var hdr [FrameIDHeaderLen]byte
	binary.BigEndian.PutUint32(hdr[:4], uint32(idSize+len(payload)))
	hdr[4] = byte(t)
	binary.BigEndian.PutUint64(hdr[5:FrameIDHeaderLen], id)
	dst = append(dst, hdr[:]...)
	return append(dst, payload...), nil
}

// ReadFrameIDInto reads one identified (v2) frame into dst's capacity,
// growing it only when the payload does not fit. The returned payload
// aliases the (possibly grown) dst: the caller owns it and must not
// release dst (e.g. back to a BufPool) until it is done with the
// payload and everything decoded-with-aliasing from it.
//
// The header is staged through dst's own storage rather than a local
// array: a stack array passed to io.ReadFull escapes through the
// io.Reader interface and would cost one heap allocation per frame.
//
// On a bare connection this is two reads per frame; a connection's read
// loop goes through Reader, which shares one read among the frames of a
// pipelined burst under this same contract.
func ReadFrameIDInto(r io.Reader, dst []byte) (MsgType, uint64, []byte, error) {
	hdr := grow(dst, FrameIDHeaderLen)
	if _, err := io.ReadFull(r, hdr); err != nil {
		return 0, 0, nil, err
	}
	t, id, n, err := parseFrameIDHeader(hdr)
	if err != nil {
		return 0, 0, nil, err
	}
	// The payload overwrites the header bytes — they are fully parsed.
	payload := grow(dst, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return 0, 0, nil, err
	}
	return t, id, payload, nil
}

// parseFrameIDHeader decodes an identified frame header and returns the
// payload length that follows it, rejecting a length below the request
// ID's width or above the type's payload bound — before any caller
// sizes a buffer by it. On error the other results are unspecified.
// (Shaped to stay within the inliner's budget: it runs once per frame.)
func parseFrameIDHeader(hdr []byte) (t MsgType, id uint64, payloadLen int, err error) {
	n := binary.BigEndian.Uint32(hdr)
	t = MsgType(hdr[4])
	if n < idSize {
		err = ErrTruncated
	} else if n-idSize > uint32(MaxPayload(t)) {
		err = ErrFrameTooLarge
	}
	return t, binary.BigEndian.Uint64(hdr[5:]), int(n) - idSize, err
}

// MaxBatch bounds the entries/GUIDs per batch frame.
const MaxBatch = 512

// ErrBatchSize reports a batch outside [1, MaxBatch].
var ErrBatchSize = errors.New("wire: batch size out of range")

// AppendBatchCount validates and encodes the uint16 count that leads
// every batch body. The Append* batch encoders call it themselves; it is
// exported for an encoder that streams its items — the server appends
// each lookup response under the store's read lock instead of staging
// a []LookupResp for AppendBatchLookupResp.
func AppendBatchCount(dst []byte, n int) ([]byte, error) {
	if n < 1 || n > MaxBatch {
		return nil, ErrBatchSize
	}
	return binary.BigEndian.AppendUint16(dst, uint16(n)), nil
}

// DecodeBatchCount decodes and validates the leading uint16 count and
// returns the items' bytes: exported, like AppendBatchCount, for a
// decoder that streams its items — the server stores each entry of a
// batch insert as it decodes it instead of staging a []store.Entry.
func DecodeBatchCount(b []byte) (int, []byte, error) {
	if len(b) < 2 {
		return 0, nil, ErrTruncated
	}
	n := int(binary.BigEndian.Uint16(b))
	if n < 1 || n > MaxBatch {
		return 0, nil, ErrBatchSize
	}
	return n, b[2:], nil
}

// AppendBatchInsert encodes a MsgBatchInsert body:
// uint16 count ‖ count × entry.
func AppendBatchInsert(dst []byte, entries []store.Entry) ([]byte, error) {
	dst, err := AppendBatchCount(dst, len(entries))
	if err != nil {
		return nil, err
	}
	for _, e := range entries {
		if dst, err = AppendEntry(dst, e); err != nil {
			return nil, err
		}
	}
	return dst, nil
}

// DecodeBatchInsert decodes a MsgBatchInsert body. Trailing bytes are
// rejected: an honest encoder never leaves any.
func DecodeBatchInsert(b []byte) ([]store.Entry, error) {
	n, b, err := DecodeBatchCount(b)
	if err != nil {
		return nil, err
	}
	entries := make([]store.Entry, n)
	for i := 0; i < n; i++ {
		if entries[i], b, err = DecodeEntryAppend(nil, b); err != nil {
			return nil, err
		}
	}
	if len(b) != 0 {
		return nil, fmt.Errorf("wire: %d trailing bytes after batch insert", len(b))
	}
	return entries, nil
}

// AppendBatchInsertAck encodes a MsgBatchInsertAck body:
// uint16 count ‖ count × acked flag (1 = stored, 0 = refused).
func AppendBatchInsertAck(dst []byte, acked []bool) ([]byte, error) {
	dst, err := AppendBatchCount(dst, len(acked))
	if err != nil {
		return nil, err
	}
	for _, ok := range acked {
		f := byte(0)
		if ok {
			f = 1
		}
		dst = append(dst, f)
	}
	return dst, nil
}

// DecodeBatchInsertAck decodes a MsgBatchInsertAck body.
func DecodeBatchInsertAck(b []byte) ([]bool, error) {
	n, b, err := DecodeBatchCount(b)
	if err != nil {
		return nil, err
	}
	if len(b) != n {
		return nil, ErrTruncated
	}
	acked := make([]bool, n)
	for i := 0; i < n; i++ {
		switch b[i] {
		case 0:
		case 1:
			acked[i] = true
		default:
			return nil, fmt.Errorf("wire: bad ack flag %d", b[i])
		}
	}
	return acked, nil
}

// AppendBatchLookup encodes a MsgBatchLookup body:
// uint16 count ‖ count × GUID.
func AppendBatchLookup(dst []byte, gs []guid.GUID) ([]byte, error) {
	dst, err := AppendBatchCount(dst, len(gs))
	if err != nil {
		return nil, err
	}
	for _, g := range gs {
		dst = AppendGUID(dst, g)
	}
	return dst, nil
}

// DecodeBatchLookup decodes a MsgBatchLookup body.
func DecodeBatchLookup(b []byte) ([]guid.GUID, error) {
	n, b, err := DecodeBatchCount(b)
	if err != nil {
		return nil, err
	}
	if len(b) != n*guid.Size {
		return nil, ErrTruncated
	}
	gs := make([]guid.GUID, n)
	for i := 0; i < n; i++ {
		if gs[i], b, err = DecodeGUID(b); err != nil {
			return nil, err
		}
	}
	return gs, nil
}

// AppendBatchLookupResp encodes a MsgBatchLookupResp body:
// uint16 count ‖ count × lookup response (found flag [+ entry]).
func AppendBatchLookupResp(dst []byte, rs []LookupResp) ([]byte, error) {
	dst, err := AppendBatchCount(dst, len(rs))
	if err != nil {
		return nil, err
	}
	for _, r := range rs {
		if dst, err = AppendLookupResp(dst, r); err != nil {
			return nil, err
		}
	}
	return dst, nil
}

// DecodeBatchLookupResp decodes a MsgBatchLookupResp body. The found
// entries' NAs are carved from an array the frame shares — sized for one
// NA per remaining item, with a further one taken when a multi-homed
// entry would not fit — each capped at its own length, so an append to
// one entry's NAs copies instead of overwriting its neighbour's.
func DecodeBatchLookupResp(b []byte) ([]LookupResp, error) {
	n, b, err := DecodeBatchCount(b)
	if err != nil {
		return nil, err
	}
	rs := make([]LookupResp, n)
	var free []store.NA // the part of the shared NA array no entry has taken
	for i := 0; i < n; i++ {
		if len(b) < 1 {
			return nil, ErrTruncated
		}
		switch b[0] {
		case 0:
			b = b[1:]
		case 1:
			if len(free) < store.MaxNAs {
				free = make([]store.NA, n-i+store.MaxNAs)
			}
			e, rest, err := DecodeEntryAppend(free[:0], b[1:])
			if err != nil {
				return nil, err
			}
			free = free[len(e.NAs):]
			e.NAs = e.NAs[:len(e.NAs):len(e.NAs)]
			rs[i] = LookupResp{Found: true, Entry: e}
			b = rest
		default:
			return nil, fmt.Errorf("wire: bad found flag %d", b[0])
		}
	}
	if len(b) != 0 {
		return nil, fmt.Errorf("wire: %d trailing bytes after batch lookup resp", len(b))
	}
	return rs, nil
}
