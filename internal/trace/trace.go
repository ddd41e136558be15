// Package trace is the repository's request-tracing layer: a
// stdlib-only, deterministic, sampling distributed tracer for the
// networked DMap stack, plus the two aggregate profilers the paper's
// evaluation calls for — a slow-op log (tail-latency capture, §IV-B)
// and a Space-Saving top-K hot-GUID tracker (storage/query load
// balance, §IV-C).
//
// The paper's single-overlay-hop claim lives or dies on per-request
// latency decomposition: when a lookup takes 80 ms instead of the
// hop-count-predicted 20 ms, aggregate histograms (internal/metrics)
// cannot say whether the time went into the dial, a retry backoff, a
// replica failover or the store itself. A sampled trace can. The
// design constraints, in order:
//
//  1. The hot path must stay allocation-free when sampling is off.
//     Every public entry point is nil-receiver safe: a nil *Tracer and
//     a nil *Span no-op, so instrumented code calls unconditionally
//     and disabled tracing costs a nil check.
//  2. Determinism. Sampling decisions and trace IDs derive from a
//     seeded counter (splitmix64), never from wall-clock or math/rand:
//     two runs with the same seed and the same operation order sample
//     the same ops and assign the same IDs, so span trees are
//     comparable across runs (and testable for equality).
//  3. Bounded memory. Completed traces and slow ops land in fixed-size
//     lock-free ring buffers; the hot-GUID trackers hold exactly K
//     monitored keys (Space-Saving, Metwally et al.).
//
// Trace context (trace ID, parent span ID, sampled flag) propagates on
// the wire via the frame extension in internal/wire, which every node
// accepts and a node without a tracer strips.
package trace

import "time"

// TraceID identifies one end-to-end operation across processes. Zero
// means "no trace".
type TraceID uint64

// SpanID identifies one span within a trace. Zero means "no span".
type SpanID uint64

// Context is the wire-propagated trace context: it rides on v2 frames
// (see wire.AppendTraceContext) so the server can parent its spans
// under the client attempt that sent the request.
type Context struct {
	// Trace is the trace the request belongs to.
	Trace TraceID
	// Span is the sender's span for this request (the remote parent of
	// whatever spans the receiver opens).
	Span SpanID
	// Sampled reports whether the trace is being recorded; receivers
	// skip span bookkeeping for unsampled requests.
	Sampled bool
}

// splitmix64 is the mixing function behind every derived ID: a
// bijective 64-bit finalizer (Steele et al.) with full avalanche, so
// sequential inputs yield well-spread IDs deterministically.
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return x
}

// NewTraceID derives the trace ID for the n-th sampled operation under
// seed. The derivation is deterministic and collision-free per seed
// (splitmix64 is bijective).
func NewTraceID(seed, n uint64) TraceID {
	id := TraceID(splitmix64(seed ^ (n + 1)))
	if id == 0 {
		id = 1
	}
	return id
}

// FromRequestID derives a trace ID from a v2 wire request ID. Servers
// use it to stamp slow-op log entries for requests that arrived
// without trace context (unsampled, or from an untraced client), so a
// slow frame is still correlatable with the client's
// connection logs by request ID.
func FromRequestID(id uint64) TraceID {
	t := TraceID(splitmix64(id))
	if t == 0 {
		t = 1
	}
	return t
}

// sinceUs returns the elapsed microseconds from t0 to t, never
// negative and never zero for a completed interval (sub-microsecond
// work rounds up to 1µs so "finished" and "still open" stay
// distinguishable in span records).
func sinceUs(t0, t time.Time) int64 {
	us := t.Sub(t0).Microseconds()
	if us <= 0 {
		return 1
	}
	return us
}
