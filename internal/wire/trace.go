// Trace-context propagation: the frame extension behind the
// internal/trace distributed tracer.
//
// A request frame may be *traced*: its type byte carries the high
// TraceBit and its payload is prefixed with a fixed 17-byte trace
// context: trace ID(8) ‖ parent span ID(8) ‖ flags(1). Every node
// accepts traced frames, on every connection, with nothing negotiated:
// it strips the context and joins it only when it has a tracer.
// Responses are never traced (the client already owns the trace).
package wire

import (
	"encoding/binary"
	"errors"

	"dmap/internal/trace"
)

// TraceBit marks a frame type as trace-prefixed. The bit is outside
// the range of defined message types, so a traced frame cannot be
// misparsed as a plain one.
const TraceBit MsgType = 0x80

// TraceContextLen is the fixed size of the wire trace context:
// trace ID(8) ‖ parent span ID(8) ‖ flags(1).
const TraceContextLen = 17

// traceFlagSampled is the only defined context flag bit.
const traceFlagSampled = 0x01

// ErrBadTraceContext reports a malformed trace-context prefix.
var ErrBadTraceContext = errors.New("wire: malformed trace context")

// WithTrace sets the trace bit on a frame type.
func WithTrace(t MsgType) MsgType { return t | TraceBit }

// IsTraced reports whether a frame type carries the trace bit.
func IsTraced(t MsgType) bool { return t&TraceBit != 0 }

// BaseType strips the trace bit, returning the underlying frame type.
func BaseType(t MsgType) MsgType { return t &^ TraceBit }

// AppendTraceContext encodes a trace context prefix.
func AppendTraceContext(dst []byte, tc trace.Context) []byte {
	var buf [TraceContextLen]byte
	binary.BigEndian.PutUint64(buf[0:8], uint64(tc.Trace))
	binary.BigEndian.PutUint64(buf[8:16], uint64(tc.Span))
	if tc.Sampled {
		buf[16] = traceFlagSampled
	}
	return append(dst, buf[:]...)
}

// DecodeTraceContext decodes a trace context prefix and returns the
// remaining payload. Unknown flag bits and a zero trace ID are
// rejected: an honest sender never produces either, and strictness
// here keeps the flag space available for future extensions.
func DecodeTraceContext(b []byte) (trace.Context, []byte, error) {
	if len(b) < TraceContextLen {
		return trace.Context{}, nil, ErrBadTraceContext
	}
	flags := b[16]
	if flags&^byte(traceFlagSampled) != 0 {
		return trace.Context{}, nil, ErrBadTraceContext
	}
	tc := trace.Context{
		Trace:   trace.TraceID(binary.BigEndian.Uint64(b[0:8])),
		Span:    trace.SpanID(binary.BigEndian.Uint64(b[8:16])),
		Sampled: flags&traceFlagSampled != 0,
	}
	if tc.Trace == 0 {
		return trace.Context{}, nil, ErrBadTraceContext
	}
	return tc, b[TraceContextLen:], nil
}

// AppendFrameIDTrace appends one complete traced identified frame to
// dst: the frame type gains TraceBit and the payload is prefixed with
// the encoded tc. Like AppendFrameID it preserves existing dst bytes, so
// traced and plain frames coalesce into the same buffer.
func AppendFrameIDTrace(dst []byte, t MsgType, id uint64, tc trace.Context, payload []byte) ([]byte, error) {
	t = WithTrace(t)
	if TraceContextLen+len(payload) > MaxPayload(t) {
		return nil, ErrFrameTooLarge
	}
	var hdr [FrameIDHeaderLen]byte
	binary.BigEndian.PutUint32(hdr[:4], uint32(idSize+TraceContextLen+len(payload)))
	hdr[4] = byte(t)
	binary.BigEndian.PutUint64(hdr[5:FrameIDHeaderLen], id)
	dst = append(dst, hdr[:]...)
	dst = AppendTraceContext(dst, tc)
	return append(dst, payload...), nil
}
