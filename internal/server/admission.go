package server

import (
	"sync/atomic"

	"dmap/internal/wire"
)

// limiter is a lock-free in-flight admission counter with an optional
// cap. max <= 0 means unbounded: the counter still tracks in-flight
// work (so the inflight gauge stays truthful) but never refuses.
//
// tryAcquire is optimistic — add, then undo on overshoot — so the
// admit path is a single atomic add when under the limit and exactly
// two when shedding. Under a racing burst the counter can transiently
// exceed max by the number of racing acquirers, each of which then
// backs off; the limit is enforced on admission, not on the transient.
type limiter struct {
	n   atomic.Int64
	max int64
}

// tryAcquire claims a slot, reporting false (and claiming nothing)
// when the limiter is at capacity.
func (l *limiter) tryAcquire() bool {
	if l.max <= 0 {
		l.n.Add(1)
		return true
	}
	if l.n.Add(1) > l.max {
		l.n.Add(-1)
		return false
	}
	return true
}

// acquire claims a slot unconditionally, ignoring the cap. Used for
// frames that must never be shed (pings: refusing the liveness probe
// would make an overloaded node indistinguishable from a dead one).
func (l *limiter) acquire() { l.n.Add(1) }

// release returns a slot.
func (l *limiter) release() { l.n.Add(-1) }

// inflight reports the currently claimed slots.
func (l *limiter) inflight() int64 { return l.n.Load() }

// Pre-encoded shed reply bodies: admission refusals happen on the read
// loop under overload, exactly when allocating is most harmful, so the
// MsgError payload (kind ‖ reason) is built once. wire.Writer copies
// the body before returning, so sharing one slice across connections is
// safe.
var (
	shedConnBody   = wire.AppendErrorKind(nil, wire.ErrKindShed, "overloaded: connection in-flight limit")
	shedGlobalBody = wire.AppendErrorKind(nil, wire.ErrKindShed, "overloaded: node in-flight limit")
)

// tryAdmit claims a per-connection slot then a global slot for one
// request frame. On refusal nothing stays claimed; global reports
// which limit refused (false = the per-conn limit). Pings are always
// admitted but still occupy slots, so the inflight gauge counts them.
//
// Both limiters are touched on every frame — including when both are
// unbounded — which is what keeps server.inflight live on all paths.
func (n *Node) tryAdmit(ca *limiter, t wire.MsgType) (ok bool, global bool) {
	if t == wire.MsgPing {
		ca.acquire()
		n.admit.acquire()
		return true, false
	}
	if !ca.tryAcquire() {
		return false, false
	}
	if !n.admit.tryAcquire() {
		ca.release()
		return false, true
	}
	return true, false
}

// admitRelease returns the slots tryAdmit claimed. It runs once the
// frame's reply is with the Writer's flusher — on the worker that served
// it, or at the read loop's flush — so a dying connection drains its
// claims as its workers and its loop finish, never leaking global
// capacity.
func (n *Node) admitRelease(ca *limiter) {
	ca.release()
	n.admit.release()
}

// countShed records one refused frame against the limit that refused it.
func (n *Node) countShed(global bool) {
	if global {
		n.shedsGlobal.Add(1)
	} else {
		n.shedsConn.Add(1)
	}
}

// shedBody returns the pre-encoded MsgError payload for a refusal.
func shedBody(global bool) []byte {
	if global {
		return shedGlobalBody
	}
	return shedConnBody
}
