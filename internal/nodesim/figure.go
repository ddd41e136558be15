package nodesim

import (
	"cmp"
	"slices"

	"dmap/internal/core"
	"dmap/internal/guid"
	"dmap/internal/simnet"
)

// Faults is what the attempts of a figure lookup (Lookup) meet: the
// zero value is the fault-free walk of Fig. 4 and Table I.
type Faults struct {
	Seed     int64   // keys every draw
	MissRate float64 // P(a live replica answers "GUID missing"), Fig. 5
	Loss     float64 // P(an attempt's request or its reply is lost)
	// Failed marks the ASs whose node never answers; their hosts still
	// query, which a simnet crash window would stop. nil: none.
	Failed []bool
	// Timeout bounds each attempt; 0: none. Retries is how many more
	// times the client tries a replica that timed out before it fails
	// over (client.RetryPolicy's MaxAttempts − 1).
	Timeout simnet.Time
	Retries int
}

// outcome is what one attempt at one replica meets.
type outcome uint8

const (
	hit  outcome = iota // the replica's node answers from its store
	miss                // it answers "GUID missing" (churn, §III-D1): the RTT, then the next replica
	drop                // its node is down (§III-D3), or the request or its reply is lost: the timeout
)

// outcome returns what attempt `attempt` of trace lookup li meets at AS
// as. It is a pure function, so a replica meets the same outcome at every
// K (K = 3's replicas are a prefix of K = 5's), in any evaluation order
// and on every worker. home is the AS holding the GUID's §III-C local
// copy (-1: none); it never misses.
func (f *Faults) outcome(li, as, attempt, home int) outcome {
	if f.Failed != nil && f.Failed[as] {
		return drop
	}
	if f.Loss == 0 && f.MissRate == 0 {
		return hit
	}
	// A uniform [0, 1) draw: splitmix64 over (seed, lookup, AS, attempt),
	// the pattern of client.RetryPolicy's jitter.
	h := mix64(uint64(f.Seed) ^ 0x9e3779b97f4a7c15)
	h = mix64(h ^ uint64(li))
	h = mix64(h ^ uint64(as))
	h = mix64(h ^ uint64(attempt))
	switch u := float64(h>>11) / (1 << 53); {
	case u < f.Loss:
		return drop
	case u < f.Loss+f.MissRate && as != home:
		return miss
	}
	return hit
}

// mix64 is the splitmix64 finalizer.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// walk is the Lookup in progress: its faults (nil outside a Lookup), its
// trace index and home, the AS it asks and how many attempts that AS got
// — the client asks one AS at a time — and the first AS that missed.
type walk struct {
	f                          *Faults
	li, home, as, sent, missed int
}

// draw is what the walk's next attempt at AS as meets. The first AS to
// answer "missing" is the one the client re-asks once the others are
// spent, and it answers: §III-D1 pulls the copy on the first miss.
func (w *walk) draw(as int) outcome {
	switch {
	case w.f == nil || as == w.missed:
		return hit
	case as != w.as:
		w.as, w.sent = as, 0
	}
	o := w.f.outcome(w.li, as, w.sent, w.home)
	w.sent++
	if o == miss && w.missed < 0 {
		w.missed = as
	}
	return o
}

// ranker is a LatencyOracle that ranks replicas for the client's walk by
// something other than the RTT: hop counts, for §IV-B2a's least-hops
// selection. Rank(src, dst) stands in for the RTT from src to dst.
type ranker interface {
	Rank(src, dst int) int64
}

// noTimeout stands in for Faults.Timeout 0: longer than any path.
const noTimeout = simnet.Time(3_600_000_000) // an hour

// Lookup is one lookup of the paper's figures: trace lookup li of g from
// AS src by the shipped client on the link, placing with res (its K is
// the walk's) and trying each replica AS 1 + f.Retries times under
// f.Timeout, every attempt meeting f's draw. home is the AS holding g's
// §III-C local copy, -1 without one; the local read races the walk when
// src is home, or one of the walk's replicas whose copy does not miss.
// Lookup runs at the top level, never in a process, and drains the
// simulator before it returns, so each lookup starts alone.
func (d *Deployment) Lookup(res *core.Resolver, f *Faults, src, li, home int, g guid.GUID) (LookupResult, error) {
	key := figureKey{res, f}
	c, ok := d.figures[key]
	if !ok {
		c = newClient(res, d.aimed, cmp.Or(f.Timeout, noTimeout), 1+f.Retries)
		d.figures[key] = c
	}
	local, held, err := d.local(src, g, nil)
	if err != nil {
		return LookupResult{ServedBy: -1}, err
	}
	held = held && home >= 0 && (src == home || f.outcome(li, src, 0, home) != miss && isReplica(res, g, src))
	d.aimed.src = src
	d.walk = walk{f: f, li: li, home: home, as: -1, missed: -1}
	before := c.Stats()
	r, err := d.read(c, src, g, local, held)
	after := c.Stats()
	d.walk.f = nil
	r.Timeouts, r.Failovers = int(after.Timeouts-before.Timeouts), int(after.Failovers-before.Failovers)
	d.Sim().Run(0) // spent timers and late replies
	return r, err
}

// figureKey names one of Lookup's clients, which all share the querier
// each Lookup aims.
type figureKey struct {
	res *core.Resolver
	f   *Faults
}

// isReplica reports whether res places one of g's replicas at AS as.
func isReplica(res *core.Resolver, g guid.GUID, as int) bool {
	var buf [8]core.Placement
	place, _ := res.PlaceInto(g, buf[:0]) // none on error
	return slices.ContainsFunc(place, func(p core.Placement) bool { return p.AS == as })
}
