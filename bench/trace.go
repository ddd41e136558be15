package main

import (
	"encoding/json"
	"os"
	"sync"
	"time"
)

// span is one timed interval recorded by the driver around a call into
// a layer's public API. Parent 0 is the run itself. Times are
// nanoseconds since the run's span clock started.
type span struct {
	ID     uint32 `json:"id"`
	Parent uint32 `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// spansPerPhase caps what the workers of one phase keep between them: a
// traced closed phase makes tens of thousands of calls a second and the
// file is for reading, not for replaying. Dropped spans are counted.
const spansPerPhase = 8192

// spanLog keeps spans in memory until the run ends. A nil *spanLog
// records nothing, so untraced phases pay one nil check per call.
type spanLog struct {
	t0      time.Time
	mu      sync.Mutex
	spans   []span
	nextID  uint32
	dropped int64
}

func newSpanLog() *spanLog { return &spanLog{t0: time.Now()} }

// begin opens a span (a phase, a probe) and returns its id.
func (l *spanLog) begin(parent uint32, name string) uint32 {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.nextID++
	l.spans = append(l.spans, span{ID: l.nextID, Parent: parent, Name: name, Start: int64(time.Since(l.t0))})
	return l.nextID
}

// end closes a span opened by begin.
func (l *spanLog) end(id uint32) {
	if l == nil {
		return
	}
	now := int64(time.Since(l.t0))
	l.mu.Lock()
	defer l.mu.Unlock()
	for i := len(l.spans) - 1; i >= 0; i-- {
		if l.spans[i].ID == id {
			l.spans[i].End = now
			return
		}
	}
}

// record appends one finished call span to a worker's private slice of
// at most limit spans — no lock, no id yet; merge assigns ids.
func (l *spanLog) record(dst []span, limit int, parent uint32, name string, t0, t1 time.Time) []span {
	if len(dst) >= limit {
		return dst
	}
	return append(dst, span{Parent: parent, Name: name, Start: int64(t0.Sub(l.t0)), End: int64(t1.Sub(l.t0))})
}

// merge moves a worker's spans into the log. calls is how many calls
// the worker made, so the ones beyond the cap are counted as dropped.
func (l *spanLog) merge(spans []span, calls int) {
	if l == nil {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, s := range spans {
		l.nextID++
		s.ID = l.nextID
		l.spans = append(l.spans, s)
	}
	l.dropped += int64(calls - len(spans))
}

// write dumps the log as one JSON document.
func (l *spanLog) write(path, runID string) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	doc := struct {
		Run     string `json:"run"`
		Dropped int64  `json:"dropped_spans"`
		Spans   []span `json:"spans"`
	}{runID, l.dropped, l.spans}
	b, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
