// Package wire defines the binary protocol spoken between DMap resolver
// nodes and clients: length-prefixed frames carrying fixed-layout
// messages, encoded with encoding/binary. The layout mirrors the §IV-A
// storage accounting: a mapping entry is the 160-bit GUID, a version, 32
// bits of metadata and up to five 64-bit NAs (32-bit AS index + 32-bit
// address).
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"dmap/internal/guid"
	"dmap/internal/netaddr"
	"dmap/internal/store"
)

// MsgType tags a frame.
type MsgType byte

// Frame types.
const (
	MsgInsert MsgType = iota + 1 // entry → ack; also used for updates
	MsgInsertAck
	MsgLookup     // guid → lookup resp
	MsgLookupResp // found flag + entry
	MsgDelete     // guid → delete ack
	MsgDeleteAck  // existed flag
	MsgPing       // empty → pong
	MsgPong
	MsgError // UTF-8 reason; a node rejecting a request instead of hanging

	// Hello/HelloAck are the handshake that opens every connection
	// (v2.go); the batch types carry up to MaxBatch entries/GUIDs per
	// frame and are allowed a larger payload bound.
	MsgHello          // magic + requested version → hello ack
	MsgHelloAck       // accepted version
	MsgBatchInsert    // uint16 count + entries → batch insert ack
	MsgBatchInsertAck // uint16 count + per-entry acked flags
	MsgBatchLookup    // uint16 count + GUIDs → batch lookup resp
	MsgBatchLookupResp

	// Anti-entropy repair frames (repair.go): a digest page advertising
	// (GUID, version) fingerprints over a keyspace range, answered by the
	// differences.
	MsgRepairDigest // after + through + digests → repair diff
	MsgRepairDiff   // covered + newer entries + wanted GUIDs
)

// String names the frame type.
func (t MsgType) String() string {
	if IsTraced(t) {
		return "traced+" + BaseType(t).String()
	}
	switch t {
	case MsgInsert:
		return "insert"
	case MsgInsertAck:
		return "insert-ack"
	case MsgLookup:
		return "lookup"
	case MsgLookupResp:
		return "lookup-resp"
	case MsgDelete:
		return "delete"
	case MsgDeleteAck:
		return "delete-ack"
	case MsgPing:
		return "ping"
	case MsgPong:
		return "pong"
	case MsgError:
		return "error"
	case MsgHello:
		return "hello"
	case MsgHelloAck:
		return "hello-ack"
	case MsgBatchInsert:
		return "batch-insert"
	case MsgBatchInsertAck:
		return "batch-insert-ack"
	case MsgBatchLookup:
		return "batch-lookup"
	case MsgBatchLookupResp:
		return "batch-lookup-resp"
	case MsgRepairDigest:
		return "repair-digest"
	case MsgRepairDiff:
		return "repair-diff"
	default:
		return fmt.Sprintf("MsgType(%d)", byte(t))
	}
}

// MaxFrame bounds a non-batch frame's payload, defending the decoder
// against hostile lengths.
const MaxFrame = 16 * 1024

// MaxBatchFrame bounds a batch frame's payload: MaxBatch entries at the
// maximum entry encoding (73 bytes) fit with room to spare.
const MaxBatchFrame = 64 * 1024

// MaxPayload returns the payload bound for a frame type: batch frames
// are allowed MaxBatchFrame, everything else MaxFrame; a traced frame
// (TraceBit set) is allowed its base type's bound plus the fixed
// trace-context prefix. Both sides of the protocol enforce it
// symmetrically, so a frame one peer can encode is a frame the other
// will accept.
func MaxPayload(t MsgType) int {
	bound := MaxFrame
	switch BaseType(t) {
	case MsgBatchInsert, MsgBatchInsertAck, MsgBatchLookup, MsgBatchLookupResp, MsgRepairDiff:
		// MsgRepairDiff carries up to MaxBatch full entries plus a want
		// list, which does not fit the non-batch bound.
		bound = MaxBatchFrame
	}
	if IsTraced(t) {
		bound += TraceContextLen
	}
	return bound
}

// Frame errors.
var (
	ErrFrameTooLarge = errors.New("wire: frame exceeds payload bound")
	ErrTruncated     = errors.New("wire: truncated message")
)

// FrameHeaderLen is the un-identified frame header the handshake is
// spoken in: uint32 length ‖ type byte.
const FrameHeaderLen = 5

// WriteFrame writes one un-identified frame: uint32 payload length,
// type byte, payload.
func WriteFrame(w io.Writer, t MsgType, payload []byte) error {
	if len(payload) > MaxPayload(t) {
		return ErrFrameTooLarge
	}
	var hdr [FrameHeaderLen]byte
	binary.BigEndian.PutUint32(hdr[:4], uint32(len(payload)))
	hdr[4] = byte(t)
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	if len(payload) > 0 {
		if _, err := w.Write(payload); err != nil {
			return err
		}
	}
	return nil
}

// ReadFrame reads one un-identified frame, rejecting oversized payloads
// before allocating. The payload is freshly allocated; prefer
// ReadFrameInto on hot paths.
func ReadFrame(r io.Reader) (MsgType, []byte, error) {
	return ReadFrameInto(r, nil)
}

// ReadFrameInto reads one frame into dst's capacity, growing it only
// when the payload does not fit. The returned payload aliases the
// (possibly grown) dst: the caller owns it and must not hand dst to
// anyone else until it is done with the payload.
func ReadFrameInto(r io.Reader, dst []byte) (MsgType, []byte, error) {
	// Stage the header through dst's storage: a local array passed to
	// io.ReadFull escapes through the interface and allocates per frame.
	hdr := grow(dst, FrameHeaderLen)
	if _, err := io.ReadFull(r, hdr); err != nil {
		return 0, nil, err
	}
	n := binary.BigEndian.Uint32(hdr[:4])
	t := MsgType(hdr[4])
	if n > uint32(MaxPayload(t)) {
		return 0, nil, ErrFrameTooLarge
	}
	// The payload overwrites the header bytes — they are fully parsed.
	payload := grow(dst, int(n))
	if _, err := io.ReadFull(r, payload); err != nil {
		return 0, nil, err
	}
	return t, payload, nil
}

// grow returns a length-n slice reusing dst's storage when it fits.
func grow(dst []byte, n int) []byte {
	if cap(dst) >= n {
		return dst[:n]
	}
	return make([]byte, n)
}

// AppendEntry encodes a mapping entry:
// GUID(20) ‖ version(8) ‖ meta(4) ‖ naCount(1) ‖ naCount × (AS(4) ‖ addr(4)).
func AppendEntry(dst []byte, e store.Entry) ([]byte, error) {
	if err := e.Validate(); err != nil {
		return nil, err
	}
	dst = append(dst, e.GUID[:]...)
	dst = binary.BigEndian.AppendUint64(dst, e.Version)
	dst = binary.BigEndian.AppendUint32(dst, e.Meta)
	dst = append(dst, byte(len(e.NAs)))
	for _, na := range e.NAs {
		dst = binary.BigEndian.AppendUint32(dst, uint32(na.AS))
		dst = binary.BigEndian.AppendUint32(dst, uint32(na.Addr))
	}
	return dst, nil
}

// DecodeEntryAppend decodes an entry whose NAs are nas with the decoded
// ones appended, and returns the remaining bytes; nil nas allocates a
// fresh slice. It is the one entry decode, by value so that a buffer on
// the caller's stack — nas[:0] of a [store.MaxNAs]store.NA, as the server
// decodes an insert — stays there: stored through a pointer, as
// DecodeLookupRespInto stores e.NAs, the same buffer would escape.
func DecodeEntryAppend(nas []store.NA, b []byte) (e store.Entry, rest []byte, err error) {
	const fixed = guid.Size + 8 + 4 + 1
	if len(b) < fixed {
		return store.Entry{}, nil, ErrTruncated
	}
	n := int(b[fixed-1])
	if n == 0 || n > store.MaxNAs {
		return store.Entry{}, nil, fmt.Errorf("wire: NA count %d out of range", n)
	}
	if len(b) < fixed+8*n {
		return store.Entry{}, nil, ErrTruncated
	}
	copy(e.GUID[:], b)
	e.Version = binary.BigEndian.Uint64(b[guid.Size:])
	e.Meta = binary.BigEndian.Uint32(b[guid.Size+8:])
	for rest = b[fixed:]; n > 0; n, rest = n-1, rest[8:] {
		nas = append(nas, store.NA{
			AS:   int(binary.BigEndian.Uint32(rest)),
			Addr: netaddr.Addr(binary.BigEndian.Uint32(rest[4:])),
		})
	}
	e.NAs = nas
	if err := e.Validate(); err != nil {
		return store.Entry{}, nil, err
	}
	return e, rest, nil
}

// AppendGUID encodes a bare GUID.
func AppendGUID(dst []byte, g guid.GUID) []byte {
	return append(dst, g[:]...)
}

// DecodeGUID decodes a bare GUID and returns the remaining bytes.
func DecodeGUID(b []byte) (guid.GUID, []byte, error) {
	if len(b) < guid.Size {
		return guid.GUID{}, nil, ErrTruncated
	}
	var g guid.GUID
	copy(g[:], b[:guid.Size])
	return g, b[guid.Size:], nil
}

// MaxErrorLen bounds a MsgError reason string.
const MaxErrorLen = 256

// ErrKind classifies a MsgError reply so clients can react per cause
// instead of string-matching reasons. The split that matters under load:
// a draining node (ErrKindDraining) has answered and will keep refusing,
// so the client should fail over to another replica immediately, while
// an overloaded node (ErrKindShed) refused only this instant's excess —
// the client should back off and retry rather than migrate its load to
// the next replica and overload that one too.
type ErrKind byte

// MsgError kinds. The byte is the first payload byte of every MsgError
// frame: kind(1) ‖ reason(UTF-8).
const (
	// ErrKindGeneric is an unclassified refusal (also what an empty
	// MsgError payload decodes to).
	ErrKindGeneric ErrKind = 0
	// ErrKindBadRequest reports a malformed or unknown frame.
	ErrKindBadRequest ErrKind = 1
	// ErrKindDraining reports a write refused by a draining node
	// (§III-D1 handoff posture): fail over, the node stays read-only.
	ErrKindDraining ErrKind = 2
	// ErrKindShed reports a request refused by admission control: the
	// node is over its in-flight limit right now. Back off and retry;
	// do not treat the node as down.
	ErrKindShed ErrKind = 3
	// ErrKindInternal reports a server-side failure handling a
	// well-formed request.
	ErrKindInternal ErrKind = 4
)

// String names the error kind.
func (k ErrKind) String() string {
	switch k {
	case ErrKindGeneric:
		return "generic"
	case ErrKindBadRequest:
		return "bad-request"
	case ErrKindDraining:
		return "draining"
	case ErrKindShed:
		return "shed"
	case ErrKindInternal:
		return "internal"
	default:
		return fmt.Sprintf("ErrKind(%d)", byte(k))
	}
}

// AppendErrorKind encodes a MsgError body — kind(1) ‖ reason —
// truncating oversized reasons.
func AppendErrorKind(dst []byte, kind ErrKind, reason string) []byte {
	if len(reason) > MaxErrorLen {
		reason = reason[:MaxErrorLen]
	}
	dst = append(dst, byte(kind))
	return append(dst, reason...)
}

// DecodeErrorKind decodes a MsgError body into its kind and reason.
// An empty payload decodes as (ErrKindGeneric, ""); unknown kind bytes
// are returned as-is so newer kinds degrade to a caller's default
// handling instead of a decode failure. Oversized payloads are rejected
// rather than truncated: an honest node never sends one.
func DecodeErrorKind(b []byte) (ErrKind, string, error) {
	if len(b) == 0 {
		return ErrKindGeneric, "", nil
	}
	if len(b) > 1+MaxErrorLen {
		return 0, "", fmt.Errorf("wire: error reason %d bytes exceeds %d", len(b)-1, MaxErrorLen)
	}
	return ErrKind(b[0]), string(b[1:]), nil
}

// LookupResp is the body of a MsgLookupResp frame.
type LookupResp struct {
	Found bool
	Entry store.Entry
}

// AppendLookupResp encodes a lookup response.
func AppendLookupResp(dst []byte, r LookupResp) ([]byte, error) {
	if !r.Found {
		return append(dst, 0), nil
	}
	dst = append(dst, 1)
	return AppendEntry(dst, r.Entry)
}

// DecodeLookupRespInto decodes a lookup response into e, reusing its
// NAs capacity, and reports whether the entry was found (e is untouched
// on a miss and on an error). With cap(e.NAs) >= store.MaxNAs it
// allocates nothing — the client's LookupInto path is built on that.
func DecodeLookupRespInto(e *store.Entry, b []byte) (bool, error) {
	if len(b) < 1 {
		return false, ErrTruncated
	}
	switch b[0] {
	case 0:
		return false, nil
	case 1:
		d, _, err := DecodeEntryAppend(e.NAs[:0], b[1:])
		if err != nil {
			return false, err
		}
		*e = d
		return true, nil
	default:
		return false, fmt.Errorf("wire: bad found flag %d", b[0])
	}
}
