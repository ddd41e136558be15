package wire

import (
	"bytes"
	"errors"
	"net"
	"testing"

	"dmap/internal/trace"
)

func TestTraceBitHelpers(t *testing.T) {
	tt := WithTrace(MsgLookup)
	if !IsTraced(tt) || IsTraced(MsgLookup) {
		t.Fatalf("IsTraced(%v)=%v, IsTraced(%v)=%v", tt, IsTraced(tt), MsgLookup, IsTraced(MsgLookup))
	}
	if BaseType(tt) != MsgLookup {
		t.Fatalf("BaseType(%v) = %v", tt, BaseType(tt))
	}
	if tt.String() != "traced+lookup" {
		t.Fatalf("String = %q", tt.String())
	}
	// Payload bound: traced frames get the base bound plus the prefix.
	if MaxPayload(tt) != MaxFrame+TraceContextLen {
		t.Fatalf("MaxPayload(traced lookup) = %d", MaxPayload(tt))
	}
	if MaxPayload(WithTrace(MsgBatchLookup)) != MaxBatchFrame+TraceContextLen {
		t.Fatalf("MaxPayload(traced batch) = %d", MaxPayload(WithTrace(MsgBatchLookup)))
	}
}

func TestTraceContextRoundTrip(t *testing.T) {
	for _, tc := range []trace.Context{
		{Trace: 1, Span: 0, Sampled: false},
		{Trace: 0xDEADBEEFCAFEF00D, Span: 42, Sampled: true},
	} {
		b := AppendTraceContext(nil, tc)
		if len(b) != TraceContextLen {
			t.Fatalf("encoded context = %d bytes, want %d", len(b), TraceContextLen)
		}
		got, rest, err := DecodeTraceContext(append(b, 0xAB))
		if err != nil {
			t.Fatalf("DecodeTraceContext: %v", err)
		}
		if got != tc {
			t.Fatalf("round trip = %+v, want %+v", got, tc)
		}
		if len(rest) != 1 || rest[0] != 0xAB {
			t.Fatalf("rest = %x", rest)
		}
	}

	// Malformed prefixes: short, unknown flags, zero trace ID.
	short := AppendTraceContext(nil, trace.Context{Trace: 1})[:TraceContextLen-1]
	if _, _, err := DecodeTraceContext(short); !errors.Is(err, ErrBadTraceContext) {
		t.Fatalf("short context err = %v", err)
	}
	badFlags := AppendTraceContext(nil, trace.Context{Trace: 1})
	badFlags[16] = 0x02
	if _, _, err := DecodeTraceContext(badFlags); !errors.Is(err, ErrBadTraceContext) {
		t.Fatalf("unknown-flag context err = %v", err)
	}
	zero := AppendTraceContext(nil, trace.Context{Trace: 0, Sampled: true})
	if _, _, err := DecodeTraceContext(zero); !errors.Is(err, ErrBadTraceContext) {
		t.Fatalf("zero-trace context err = %v", err)
	}
}

func TestWriteFrameIDTrace(t *testing.T) {
	client, server := net.Pipe()
	defer client.Close()
	defer server.Close()
	payload := AppendGUID(nil, [20]byte{9})
	tc := trace.Context{Trace: 0x1111, Span: 7, Sampled: true}
	const id = 0xABCDEF
	errc := make(chan error, 1)
	go func() { errc <- NewWriter(client, nil).WriteFrameIDTrace(MsgLookup, id, tc, payload) }()
	typ, gotID, body, err := ReadFrameIDInto(server, nil)
	if err != nil {
		t.Fatalf("ReadFrameIDInto: %v", err)
	}
	if err := <-errc; err != nil {
		t.Fatalf("WriteFrameIDTrace: %v", err)
	}
	if !IsTraced(typ) || BaseType(typ) != MsgLookup || gotID != id {
		t.Fatalf("frame = (%v, %#x)", typ, gotID)
	}
	gotTC, rest, err := DecodeTraceContext(body)
	if err != nil || gotTC != tc {
		t.Fatalf("context = %+v, %v; want %+v", gotTC, err, tc)
	}
	if !bytes.Equal(rest, payload) {
		t.Fatalf("payload = %x, want %x", rest, payload)
	}

	// A max-size base payload still fits once the prefix is added.
	big := make([]byte, MaxFrame)
	if _, err := AppendFrameIDTrace(nil, MsgPing, 1, tc, big); err != nil {
		t.Fatalf("max-size traced frame rejected: %v", err)
	}
}
