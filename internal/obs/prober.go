// Black-box SLO prober: synthetic canary traffic against every node,
// speaking the same wire protocol a real client does, measuring what
// the cluster promises from OUTSIDE the node processes —
//
//   - availability: did the node answer the canary write and read at
//     all (sheds, drains, partitions and crashes all land here);
//   - staleness-after-write: the paper's §III-D2 version lag — how far
//     behind the newest acknowledged version a node's answer is;
//   - repair convergence: a node answering with a version the prober
//     never directly wrote to it proves anti-entropy delivered it.
//
// The prober writes versioned sentinel entries under its own GUIDs to
// every target (DMap nodes deliberately store whatever they are sent,
// so every target acts as a replica of the sentinels), then reads them
// back from every target and folds the outcomes into two SLOTrackers
// with multiwindow burn-rate alerting.
package obs

import (
	"context"
	"fmt"
	"time"

	"dmap/internal/guid"
	"dmap/internal/metrics"
	"dmap/internal/netaddr"
	"dmap/internal/store"
	"dmap/internal/wire"
)

// ProbeTarget is one node the prober exercises: Addr is the node's
// serving TCP address (not the debug HTTP one).
type ProbeTarget struct {
	Name string
	Addr string
}

// probeTimeout bounds one probe operation, the dial included.
const probeTimeout = 2 * time.Second

// ProberConfig configures a Prober. Zero values pick defaults.
type ProberConfig struct {
	Targets []ProbeTarget
	// Sentinels is the number of sentinel GUIDs probed per round
	// (default 3). More sentinels smooth the signal; each costs one
	// write and one read per target per round.
	Sentinels int
	// MaxLag is the acceptable staleness in versions: a read observing
	// a version more than MaxLag behind the newest acknowledged write
	// of that sentinel is a staleness failure (default 0 — reads must
	// be fresh).
	MaxLag uint64
	// Availability and Staleness configure the two objectives; names
	// default to "availability" and "staleness".
	Availability SLOConfig
	Staleness    SLOConfig
	// Registry, when set, receives the prober's own metrics
	// (probe.op_us, probe.ops, probe.failures, probe.stale,
	// probe.repaired).
	Registry *metrics.Registry
	// Now overrides the clock; every time the prober reads goes through it.
	// The sentinels' first version is its time in milliseconds, so a
	// restarted prober's writes still supersede its previous
	// incarnation's.
	Now func() time.Time
	// Dial opens the connection to a target's Addr. Nil selects wire.Dial
	// (TCP and the handshake); internal/nodesim dials simulated links.
	Dial func(addr string, timeout time.Duration) (ProbeConn, error)
}

// ProbeConn is a connection to a target, one exchange at a time: what
// the prober uses of a *wire.Conn.
type ProbeConn interface {
	wire.RoundTripper
	Close() error
}

// ProbeTargetStatus is one target's outcome in the latest round.
type ProbeTargetStatus struct {
	Name    string `json:"name"`
	WriteOK bool   `json:"write_ok"`
	ReadOK  bool   `json:"read_ok"`
	// Lag is the worst version lag observed across sentinels this
	// round (meaningful when ReadOK).
	Lag uint64 `json:"lag"`
	// Stale reports whether any sentinel read breached MaxLag.
	Stale bool `json:"stale"`
	// Repaired reports whether this round observed a version at this
	// target that the prober never directly wrote to it — proof that
	// anti-entropy (not the prober) delivered it.
	Repaired bool   `json:"repaired"`
	LatUs    uint64 `json:"lat_us"` // spent on this target, both passes
	Err      string `json:"err,omitempty"`
}

// ProbeStatus summarizes the prober for fleet views and JSON.
type ProbeStatus struct {
	Rounds    uint64              `json:"rounds"`
	Sentinels int                 `json:"sentinels"`
	SLOs      []SLOStatus         `json:"slos"`
	Targets   []ProbeTargetStatus `json:"targets"`
	// Repaired counts convergence events observed over the prober's
	// lifetime (see ProbeTargetStatus.Repaired).
	Repaired uint64 `json:"repaired"`
}

// Breaching reports whether any objective is currently breaching.
func (s ProbeStatus) Breaching() bool {
	for _, slo := range s.SLOs {
		if slo.Breaching {
			return true
		}
	}
	return false
}

// Prober drives probe rounds against the configured targets. It is not
// safe for concurrent use.
type Prober struct {
	cfg       ProberConfig
	sentinels []guid.GUID
	version   uint64
	rounds    uint64
	repaired  uint64

	availability *SLOTracker
	staleness    *SLOTracker

	conns []ProbeConn // per target, nil when down
	// dialErr[t] is the dial failure target t met this round; the rest of
	// its operations fail with it, so a silent target costs one probeTimeout.
	dialErr []error
	// acked[t][s] is the newest version target t directly acknowledged
	// for sentinel s; maxAcked[s] is the newest version ANY target
	// acknowledged — the freshness reference for staleness.
	acked    [][]uint64
	maxAcked []uint64

	opBuf []byte // reused request/scratch buffer

	hOp       *metrics.Histogram
	cOps      *metrics.Counter
	cFailures *metrics.Counter
	cStale    *metrics.Counter
	cRepaired *metrics.Counter
}

// NewProber returns a prober over cfg.Targets. Sentinel GUIDs are
// deterministic (guid.New over a fixed naming scheme), so independent
// prober runs against the same cluster probe the same keys.
func NewProber(cfg ProberConfig) *Prober {
	if cfg.Sentinels <= 0 {
		cfg.Sentinels = 3
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	if cfg.Dial == nil {
		cfg.Dial = func(addr string, timeout time.Duration) (ProbeConn, error) {
			return wire.Dial(context.Background(), addr, timeout)
		}
	}
	if cfg.Availability.Name == "" {
		cfg.Availability.Name = "availability"
	}
	if cfg.Staleness.Name == "" {
		cfg.Staleness.Name = "staleness"
	}
	p := &Prober{
		cfg:          cfg,
		version:      uint64(cfg.Now().UnixMilli()),
		availability: NewSLOTracker(cfg.Availability),
		staleness:    NewSLOTracker(cfg.Staleness),
		conns:        make([]ProbeConn, len(cfg.Targets)),
		acked:        make([][]uint64, len(cfg.Targets)),
		maxAcked:     make([]uint64, cfg.Sentinels),
	}
	for i := 0; i < cfg.Sentinels; i++ {
		p.sentinels = append(p.sentinels, guid.New(fmt.Sprintf("dmap.obs.sentinel.%d", i)))
	}
	for i := range p.acked {
		p.acked[i] = make([]uint64, cfg.Sentinels)
	}
	if reg := cfg.Registry; reg != nil {
		p.hOp = reg.Histogram("probe.op_us")
		p.cOps = reg.Counter("probe.ops")
		p.cFailures = reg.Counter("probe.failures")
		p.cStale = reg.Counter("probe.stale")
		p.cRepaired = reg.Counter("probe.repaired")
	}
	return p
}

// Round runs one probe round: the write pass over every target, then
// the read pass, so every read is held against the newest version any
// target acknowledged this round. Returns the round's status.
func (p *Prober) Round() ProbeStatus {
	p.version++
	return p.round(true)
}

// ReadRound is a round without the write pass, so a stale replica stays
// observably stale: what a chaos scenario runs between a partition's
// heal and the repair it must be seen to precede.
func (p *Prober) ReadRound() ProbeStatus { return p.round(false) }

func (p *Prober) round(write bool) ProbeStatus {
	targets := make([]ProbeTargetStatus, len(p.cfg.Targets))
	p.dialErr = make([]error, len(targets))
	for t := range targets {
		targets[t] = ProbeTargetStatus{Name: p.cfg.Targets[t].Name, WriteOK: true, ReadOK: true}
		if write {
			p.writePass(t, &targets[t])
		}
	}
	for t := range targets {
		p.readPass(t, &targets[t])
	}
	p.rounds++
	// Snapshot status BEFORE advancing: Advance opens an empty round,
	// and the fast burn window must cover the round just probed.
	st := ProbeStatus{
		Rounds:    p.rounds,
		Sentinels: p.cfg.Sentinels,
		SLOs:      []SLOStatus{p.availability.Status(), p.staleness.Status()},
		Targets:   targets,
		Repaired:  p.repaired,
	}
	p.availability.Advance()
	p.staleness.Advance()
	return st
}

// Close drops the prober's connections.
func (p *Prober) Close() {
	for i, c := range p.conns {
		if c != nil {
			c.Close()
			p.conns[i] = nil
		}
	}
}

// writePass writes every sentinel at the round's version to target t.
func (p *Prober) writePass(t int, st *ProbeTargetStatus) {
	start := p.cfg.Now()
	for s, g := range p.sentinels {
		err := p.insert(t, g)
		p.countOp(err)
		p.availability.Observe(err == nil)
		if err != nil {
			st.WriteOK = false
			st.Err = err.Error()
			continue
		}
		// Grow-only: an ack means the node has AT LEAST this version
		// (a node already holding a newer one acks the stale write too),
		// so a repair-observed higher version must not be overwritten.
		if p.version > p.acked[t][s] {
			p.acked[t][s] = p.version
		}
		if p.version > p.maxAcked[s] {
			p.maxAcked[s] = p.version
		}
	}
	st.LatUs += uint64(p.cfg.Now().Sub(start).Microseconds())
}

// readPass reads every sentinel back from target t.
func (p *Prober) readPass(t int, st *ProbeTargetStatus) {
	start := p.cfg.Now()
	for s, g := range p.sentinels {
		v, found, err := p.lookup(t, g)
		p.countOp(err)
		p.availability.Observe(err == nil)
		if err != nil {
			st.ReadOK = false
			st.Err = err.Error()
			continue
		}
		// Staleness: compare against the newest version ANY node
		// acknowledged. A missing sentinel counts as infinitely stale
		// once one has been acked somewhere.
		ref := p.maxAcked[s]
		if ref == 0 {
			continue // nothing acked yet; nothing to compare
		}
		var lag uint64
		if !found || v < ref {
			if found {
				lag = ref - v
			} else {
				lag = ref
			}
		}
		fresh := lag <= p.cfg.MaxLag
		p.staleness.Observe(fresh)
		if !fresh {
			st.Stale = true
			if p.cStale != nil {
				p.cStale.Inc()
			}
		}
		if lag > st.Lag {
			st.Lag = lag
		}
		// Convergence: the target answered with a version newer than
		// anything the prober directly wrote to it — anti-entropy
		// delivered it.
		if found && v > p.acked[t][s] {
			st.Repaired = true
			p.repaired++
			if p.cRepaired != nil {
				p.cRepaired.Inc()
			}
			p.acked[t][s] = v
		}
	}
	st.LatUs += uint64(p.cfg.Now().Sub(start).Microseconds())
}

// countOp books one wire operation (a probe write or read) into the
// prober's own metrics; SLO observations are tracked separately so one
// read feeding both availability and staleness still counts as one op.
func (p *Prober) countOp(err error) {
	if p.cOps != nil {
		p.cOps.Inc()
	}
	if err != nil && p.cFailures != nil {
		p.cFailures.Inc()
	}
}

// sentinelEntry builds the canary entry written each round. The NA is a
// fixed loopback locator: sentinels are never routed to, only versioned.
func (p *Prober) sentinelEntry(g guid.GUID) store.Entry {
	return store.Entry{
		GUID:    g,
		NAs:     []store.NA{{AS: 0, Addr: netaddr.AddrFromOctets(127, 0, 0, 1)}},
		Version: p.version,
	}
}

func (p *Prober) insert(t int, g guid.GUID) error {
	payload, err := wire.AppendEntry(p.opBuf[:0], p.sentinelEntry(g))
	if err != nil {
		return err
	}
	p.opBuf = payload
	rt, resp, err := p.roundTrip(t, wire.MsgInsert, payload)
	if err != nil {
		return err
	}
	if rt != wire.MsgInsertAck {
		return respError(rt, resp)
	}
	return nil
}

func (p *Prober) lookup(t int, g guid.GUID) (version uint64, found bool, err error) {
	p.opBuf = wire.AppendGUID(p.opBuf[:0], g)
	rt, resp, err := p.roundTrip(t, wire.MsgLookup, p.opBuf)
	if err != nil {
		return 0, false, err
	}
	if rt != wire.MsgLookupResp {
		return 0, false, respError(rt, resp)
	}
	var e store.Entry
	found, err = wire.DecodeLookupRespInto(&e, resp)
	return e.Version, found, err
}

func respError(t wire.MsgType, payload []byte) error {
	if t == wire.MsgError {
		if kind, reason, err := wire.DecodeErrorKind(payload); err == nil {
			return fmt.Errorf("probe: node error (%s): %s", kind, reason)
		}
	}
	return fmt.Errorf("probe: unexpected %s response", t)
}

// roundTrip performs one exchange on the target's persistent
// connection, dialing first when there is none. The exchange alone is
// timed into probe.op_us, not the dial. Any error tears the connection
// down and a failed dial is not repeated before the next round — a
// prober must never wedge on a sick peer.
func (p *Prober) roundTrip(t int, mt wire.MsgType, payload []byte) (wire.MsgType, []byte, error) {
	if p.conns[t] == nil {
		if p.dialErr[t] == nil {
			p.conns[t], p.dialErr[t] = p.cfg.Dial(p.cfg.Targets[t].Addr, probeTimeout)
		}
		if p.dialErr[t] != nil {
			p.conns[t] = nil // a dialer may hand back a nil *wire.Conn beside its error
			return 0, nil, p.dialErr[t]
		}
	}
	start := p.cfg.Now()
	rt, resp, err := p.conns[t].RoundTrip(mt, payload, probeTimeout)
	if err != nil {
		p.conns[t].Close()
		p.conns[t] = nil
		return 0, nil, err
	}
	if p.hOp != nil {
		p.hOp.ObserveDuration(p.cfg.Now().Sub(start))
	}
	return rt, resp, nil
}
