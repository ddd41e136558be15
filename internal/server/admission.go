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

// tryAdmit claims a global slot for one request frame and counts it in
// *corked: the frames its connection's read loop has served since the
// last flush, which is what the per-connection limit bounds. On refusal
// nothing is claimed or counted; global reports which limit refused
// (false = the per-conn limit). Pings are always admitted but still
// claim and count, so the inflight gauge counts them.
//
// The global limiter is touched on every frame — even when unbounded —
// which is what keeps server.inflight live.
func (n *Node) tryAdmit(corked *int64, t wire.MsgType) (ok bool, global bool) {
	if t == wire.MsgPing {
		n.admit.acquire()
	} else if n.maxConnInflight > 0 && *corked >= n.maxConnInflight {
		return false, false
	} else if !n.admit.tryAcquire() {
		return false, true
	}
	*corked++
	return true, false
}

// admitRelease returns the global slots of the *corked frames and zeroes
// the count. The read loop calls it at each flush, the one that carries
// their replies, so a dying connection drains its claims with its last
// flush, never leaking global capacity.
func (n *Node) admitRelease(corked *int64) {
	for ; *corked > 0; *corked-- {
		n.admit.release()
	}
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
