// The Tracer: sampling decisions, trace assembly entry points, the
// completed-trace ring and the slow-op log.
package trace

import (
	"sync/atomic"
	"time"

	"dmap/internal/guid"
)

// Ring capacities: the completed-trace ring and the slow-op log each
// retain this many of their most recent records.
const (
	ringSize    = 256
	slowLogSize = 256
)

// Config tunes a Tracer. The zero value records nothing (no sampling,
// no slow-op capture) but still hands out a usable Tracer, which is
// occasionally convenient in tests; a nil *Tracer is the normal
// "tracing off" form.
type Config struct {
	// Sample is the sampling ratio: 1 in Sample operations opens a
	// recorded trace (1 = every op, 0 or negative = none). The decision
	// is a deterministic function of the op counter, not a coin flip.
	Sample int
	// SlowOp is the slow-operation threshold: any finished op at or
	// above it lands in the slow-op log even when unsampled. 0 disables
	// slow-op capture.
	SlowOp time.Duration
	// Seed parameterizes trace-ID derivation; runs with equal seeds and
	// equal op orders assign equal IDs.
	Seed uint64
}

// Tracer samples operations into traces and captures slow operations.
// All methods are safe for concurrent use and safe on a nil receiver
// (where they no-op).
type Tracer struct {
	cfg  Config
	ops  atomic.Uint64 // operation counter: sampling + ID derivation
	ring *ring[TraceView]
	slow *ring[SlowOp]

	sampled  atomic.Uint64 // traces published
	slowSeen atomic.Uint64 // slow ops recorded
}

// New builds a Tracer from cfg.
func New(cfg Config) *Tracer {
	return &Tracer{
		cfg:  cfg,
		ring: newRing[TraceView](ringSize),
		slow: newRing[SlowOp](slowLogSize),
	}
}

// StartOp opens the root span of a new operation trace, or returns nil
// when the op is not sampled (or the tracer is nil / sampling is off).
func (t *Tracer) StartOp(name string) *Span {
	if t == nil || t.cfg.Sample <= 0 {
		return nil
	}
	n := t.ops.Add(1) - 1
	if n%uint64(t.cfg.Sample) != 0 {
		return nil
	}
	return t.newRoot(name, NewTraceID(t.cfg.Seed, n), 0)
}

// StartSpanFromContext opens a root span joined to a remote trace (the
// server side of a traced request): same trace ID, parented under the
// sender's span. Returns nil for unsampled or empty contexts.
func (t *Tracer) StartSpanFromContext(name string, tc Context) *Span {
	if t == nil || !tc.Sampled || tc.Trace == 0 {
		return nil
	}
	return t.newRoot(name, tc.Trace, tc.Span)
}

func (t *Tracer) newRoot(name string, id TraceID, remote SpanID) *Span {
	now := time.Now()
	td := &TraceData{tracer: t, id: id, start: now}
	td.spans = append(td.spans, SpanRecord{ID: 1, Remote: remote, Name: name})
	return &Span{td: td, idx: 0, id: 1, start: now}
}

func (t *Tracer) publish(v *TraceView) {
	t.ring.put(v)
	t.sampled.Add(1)
}

// FinishOp completes an operation: it ends the op's span (sp may be
// nil for unsampled ops), and records a slow-op entry when the op's
// duration reaches the configured threshold — sampled or not. g and
// err annotate the slow entry (zero/nil are fine).
func (t *Tracer) FinishOp(sp *Span, op string, g guid.GUID, start time.Time, err error) {
	if t == nil {
		return
	}
	if err != nil {
		sp.Eventf("error: %v", err)
	}
	sp.End()
	if t.cfg.SlowOp <= 0 {
		return
	}
	d := time.Since(start)
	if d < t.cfg.SlowOp {
		return
	}
	so := SlowOp{
		Time:    start,
		Op:      op,
		Trace:   TraceID(sp.TraceID()),
		DurUs:   d.Microseconds(),
		Sampled: sp != nil,
	}
	if !g.IsZero() {
		so.GUID = g.String()
	}
	if err != nil {
		so.Err = err.Error()
	}
	t.recordSlow(&so)
}

// ObserveServerOp feeds the slow-op log from the server's frame loop.
// Requests that arrived without trace context get a trace ID derived
// from the v2 wire request ID, so a slow frame remains correlatable
// even when the trace was unsampled.
func (t *Tracer) ObserveServerOp(op string, reqID uint64, tc Context, start time.Time) {
	if t == nil || t.cfg.SlowOp <= 0 {
		return
	}
	d := time.Since(start)
	if d < t.cfg.SlowOp {
		return
	}
	id := tc.Trace
	if id == 0 {
		id = FromRequestID(reqID)
	}
	t.recordSlow(&SlowOp{
		Time:    start,
		Op:      op,
		Trace:   id,
		DurUs:   d.Microseconds(),
		Sampled: tc.Sampled,
	})
}

// SlowEnabled reports whether slow-op capture is on — the guard for
// callers that want to skip reading the clock when it is off.
func (t *Tracer) SlowEnabled() bool { return t != nil && t.cfg.SlowOp > 0 }

func (t *Tracer) recordSlow(so *SlowOp) {
	t.slow.put(so)
	t.slowSeen.Add(1)
}

// Traces returns the retained completed traces, oldest first.
func (t *Tracer) Traces() []*TraceView {
	if t == nil {
		return nil
	}
	return t.ring.snapshot()
}

// SlowOps returns the retained slow-op records, oldest first.
func (t *Tracer) SlowOps() []*SlowOp {
	if t == nil {
		return nil
	}
	return t.slow.snapshot()
}

// Stats is a point-in-time summary of the tracer's activity.
type Stats struct {
	// Ops is the number of operations that consulted the sampler.
	Ops uint64
	// Sampled is the number of completed traces published to the ring.
	Sampled uint64
	// SlowOps is the number of slow operations recorded.
	SlowOps uint64
}

// Stats returns the tracer's activity counters (zero for nil).
func (t *Tracer) Stats() Stats {
	if t == nil {
		return Stats{}
	}
	return Stats{Ops: t.ops.Load(), Sampled: t.sampled.Load(), SlowOps: t.slowSeen.Load()}
}

// SlowOp is one slow-op log entry.
type SlowOp struct {
	Time time.Time `json:"time"`
	// Op names the operation ("lookup", "server.batch_insert", ...).
	Op string `json:"op"`
	// GUID is the operation's subject mapping, hex-encoded (empty when
	// not applicable, e.g. batch ops).
	GUID string `json:"guid,omitempty"`
	// Trace correlates with the sampled trace ring when Sampled, or is
	// derived (wire request ID) / zero when not.
	Trace   TraceID `json:"trace"`
	DurUs   int64   `json:"dur_us"`
	Err     string  `json:"err,omitempty"`
	Sampled bool    `json:"sampled"`
}
