// Span assembly and rendering. A trace is assembled in one TraceData
// value shared by all of its spans; when the root span ends, the
// assembly is frozen into an immutable TraceView and published to the
// tracer's ring. Span IDs are sequential within a trace (1 = root), so
// identically-ordered runs produce identical trees.
package trace

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"
)

// Event is one timestamped annotation on a span (a retry, a failover,
// a redial, an error).
type Event struct {
	// AtUs is the event's offset from the trace start in microseconds.
	AtUs int64  `json:"at_us"`
	Msg  string `json:"msg"`
}

// SpanRecord is one completed (or still-open) span in a TraceView.
type SpanRecord struct {
	ID SpanID `json:"id"`
	// Parent is the parent span ID within this trace view (0 for the
	// root). Span IDs are only unique per process, so a remote parent
	// carried in the wire context is kept in Remote, not here — it could
	// collide with a local ID.
	Parent SpanID `json:"parent"`
	// Remote is the remote parent span ID from the wire context, set
	// only on a server-side root span joined to a client trace.
	Remote SpanID `json:"remote_parent,omitempty"`
	Name   string `json:"name"`
	// StartUs is the span's start offset from the trace start (µs).
	StartUs int64 `json:"start_us"`
	// DurUs is the span's duration (µs); 0 marks a span that was still
	// open when the root ended (e.g. a hedged lookup attempt abandoned
	// after the freshness grace).
	DurUs  int64   `json:"dur_us"`
	Events []Event `json:"events,omitempty"`
}

// TraceData is the mutable assembly for one in-flight trace.
type TraceData struct {
	tracer *Tracer
	id     TraceID
	start  time.Time

	mu    sync.Mutex
	spans []SpanRecord
}

// Span is a handle on one span of an in-flight trace. A nil *Span is
// valid and inert: every method no-ops, which is how unsampled
// operations stay allocation-free.
type Span struct {
	td    *TraceData
	idx   int // index into td.spans
	id    SpanID
	start time.Time
}

// TraceID returns the span's trace ID as a raw uint64, 0 for a nil
// span — the form histogram exemplars and slow-op records want.
func (s *Span) TraceID() uint64 {
	if s == nil {
		return 0
	}
	return uint64(s.td.id)
}

// Context returns the wire context identifying this span as the remote
// parent of whatever the receiver opens. Zero for a nil span.
func (s *Span) Context() Context {
	if s == nil {
		return Context{}
	}
	return Context{Trace: s.td.id, Span: s.id, Sampled: true}
}

// NewChild opens a child span. Returns nil on a nil receiver.
func (s *Span) NewChild(name string) *Span {
	if s == nil {
		return nil
	}
	now := time.Now()
	td := s.td
	td.mu.Lock()
	id := SpanID(len(td.spans) + 1)
	td.spans = append(td.spans, SpanRecord{
		ID:      id,
		Parent:  s.id,
		Name:    name,
		StartUs: now.Sub(td.start).Microseconds(),
	})
	idx := len(td.spans) - 1
	td.mu.Unlock()
	return &Span{td: td, idx: idx, id: id, start: now}
}

// Eventf annotates the span. On a nil span the format arguments are
// never evaluated by fmt, keeping the disabled path cheap.
func (s *Span) Eventf(format string, args ...any) {
	if s == nil {
		return
	}
	msg := fmt.Sprintf(format, args...)
	at := time.Since(s.td.start).Microseconds()
	s.td.mu.Lock()
	r := &s.td.spans[s.idx]
	r.Events = append(r.Events, Event{AtUs: at, Msg: msg})
	s.td.mu.Unlock()
}

// End completes the span. Ending the root span freezes the whole trace
// into an immutable view and publishes it to the tracer's ring; spans
// still open at that point keep DurUs == 0 in the published view (and
// their own later End is a no-op against the published copy).
func (s *Span) End() {
	if s == nil {
		return
	}
	now := time.Now()
	td := s.td
	td.mu.Lock()
	r := &td.spans[s.idx]
	if r.DurUs == 0 {
		r.DurUs = sinceUs(s.start, now)
	}
	if s.idx != 0 {
		td.mu.Unlock()
		return
	}
	view := &TraceView{
		Trace: td.id,
		Start: td.start,
		DurUs: r.DurUs,
		Spans: append([]SpanRecord(nil), td.spans...),
	}
	for i := range view.Spans {
		view.Spans[i].Events = append([]Event(nil), view.Spans[i].Events...)
	}
	td.mu.Unlock()
	td.tracer.publish(view)
}

// TraceView is an immutable, completed trace: what the ring retains,
// /debug/traces serves and tests compare.
type TraceView struct {
	Trace TraceID      `json:"trace"`
	Start time.Time    `json:"start"`
	DurUs int64        `json:"dur_us"`
	Spans []SpanRecord `json:"spans"`
}

// Tree renders the trace as an indented span tree. withTimes selects
// whether durations and offsets are included. Without them the
// rendering depends only on structure, names and event messages, and
// sibling subtrees are rendered in canonical (sorted) order — parallel
// fan-out (a K-replica insert, a hedged lookup, a batched chunk spread)
// appends children in scheduler order, so creation order is the one
// thing about a trace that is NOT deterministic; canonical ordering
// makes identically-seeded runs render byte-identical trees anyway.
// With times, chronological record order is kept (the operator view).
func (v *TraceView) Tree(withTimes bool) string {
	var sb strings.Builder
	if withTimes {
		fmt.Fprintf(&sb, "trace %016x dur=%dµs spans=%d\n", uint64(v.Trace), v.DurUs, len(v.Spans))
	} else {
		fmt.Fprintf(&sb, "trace %016x spans=%d\n", uint64(v.Trace), len(v.Spans))
	}
	children := make(map[SpanID][]int, len(v.Spans))
	var roots []int
	for i, r := range v.Spans {
		if r.Parent != 0 {
			children[r.Parent] = append(children[r.Parent], i)
		} else {
			roots = append(roots, i)
		}
	}
	var render func(i int, depth int) string
	render = func(i int, depth int) string {
		var b strings.Builder
		r := v.Spans[i]
		indent := strings.Repeat("  ", depth)
		if withTimes {
			if r.DurUs == 0 {
				fmt.Fprintf(&b, "%s- %s @+%dµs (open)\n", indent, r.Name, r.StartUs)
			} else {
				fmt.Fprintf(&b, "%s- %s @+%dµs %dµs\n", indent, r.Name, r.StartUs, r.DurUs)
			}
		} else {
			fmt.Fprintf(&b, "%s- %s\n", indent, r.Name)
		}
		for _, e := range r.Events {
			if withTimes {
				fmt.Fprintf(&b, "%s  · @+%dµs %s\n", indent, e.AtUs, e.Msg)
			} else {
				fmt.Fprintf(&b, "%s  · %s\n", indent, e.Msg)
			}
		}
		subs := make([]string, 0, len(children[r.ID]))
		for _, c := range children[r.ID] {
			subs = append(subs, render(c, depth+1))
		}
		if !withTimes {
			sort.Strings(subs)
		}
		for _, s := range subs {
			b.WriteString(s)
		}
		return b.String()
	}
	for _, i := range roots {
		if r := v.Spans[i].Remote; r != 0 {
			fmt.Fprintf(&sb, "(remote parent span %016x)\n", uint64(r))
		}
		sb.WriteString(render(i, 0))
	}
	return sb.String()
}
