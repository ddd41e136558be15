// Retry policy and failure accounting for the cluster client. The
// policy mirrors §III-D3 of the paper at the transport layer: a replica
// that times out or refuses a connection is retried a bounded number of
// times with exponential backoff, then the operation fails over to the
// next hashed replica in Algorithm 1 order.
//
// Backoff jitter is deterministic — derived by hashing (seed, replica,
// attempt) rather than drawn from a shared PRNG — so tests and replayed
// traces see identical pause schedules.
package client

import (
	"time"
)

// RetryPolicy bounds per-replica persistence. The zero value selects
// the defaults below.
type RetryPolicy struct {
	// MaxAttempts is the total tries per replica per operation,
	// including the first (≥ 1). Default 2.
	MaxAttempts int
	// JitterSeed feeds the deterministic jitter hash. Two clients with
	// equal seeds pause identically.
	JitterSeed int64
}

// Retry defaults. The pause before the second attempt is
// DefaultBaseBackoff; it doubles every further attempt, capped at
// DefaultMaxBackoff.
const (
	DefaultMaxAttempts = 2
	DefaultBaseBackoff = 10 * time.Millisecond
	DefaultMaxBackoff  = 500 * time.Millisecond
)

func (p RetryPolicy) withDefaults() RetryPolicy {
	if p.MaxAttempts < 1 {
		p.MaxAttempts = DefaultMaxAttempts
	}
	return p
}

// Backoff returns the pause before attempt (2, 3, …) against replica
// AS as: exponential growth capped at DefaultMaxBackoff, then scaled into
// [50%, 100%] by a hash of (JitterSeed, as, attempt) — the "equal
// jitter" scheme, decorrelating replicas without a PRNG stream.
func (p RetryPolicy) Backoff(as, attempt int) time.Duration {
	if attempt <= 1 {
		return 0
	}
	d := DefaultBaseBackoff << (attempt - 2)
	if d <= 0 || d > DefaultMaxBackoff { // <= 0 catches shift overflow
		d = DefaultMaxBackoff
	}
	h := mix64(uint64(p.JitterSeed) ^ uint64(as)*0x9e3779b97f4a7c15 ^ uint64(attempt)<<32)
	frac := float64(h>>11) / float64(1<<53) // uniform [0, 1)
	return d/2 + time.Duration(float64(d/2)*frac)
}

// mix64 is the splitmix64 finalizer: a cheap, well-distributed 64-bit
// hash for jitter derivation.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// Stats is a snapshot of the client's failure-path counters. All
// counters are cumulative since the cluster was created.
type Stats struct {
	// Dials counts fresh TCP connections.
	Dials int64
	// Redials counts stale-pool redials: a pooled connection found dead
	// on first use and replaced. (Previously an invisible internal
	// retry; now accounted and bounded by the retry policy loop.)
	Redials int64
	// Retries counts same-replica attempts beyond the first.
	Retries int64
	// Failovers counts replica-to-replica moves after a transport
	// failure or rejection (§III-D3's "try the next hashed replica").
	Failovers int64
	// Rejects counts MsgError refusals from nodes (e.g. draining).
	// Load-shed refusals are counted separately under Sheds.
	Rejects int64
	// Sheds counts ErrKindShed refusals: the node was at an in-flight
	// admission limit. Each one is retried on the same replica after a
	// backoff rather than failed over.
	Sheds int64
	// Timeouts counts attempts that died on the per-attempt deadline.
	Timeouts int64
	// Deadlines counts operations aborted by the per-operation budget.
	Deadlines int64
}
