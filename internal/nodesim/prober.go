// The simulated link under the shipped black-box prober (internal/obs):
// a probe connection whose RoundTrip is one insertReq or lookupReq sent
// through the deployment's simnet and awaited in virtual time. The
// prober's rounds, staleness accounting and SLO windows are obs.Prober's
// own; partitions, crashes, loss and delay faults hit its requests as
// they hit protocol traffic, so the chaos suite asserts that an injected
// partition is VISIBLE to the prober an operator runs before
// anti-entropy repairs the divergence.
package nodesim

import (
	"fmt"
	"net"
	"os"
	"strconv"
	"time"

	"dmap/internal/obs"
	"dmap/internal/simnet"
	"dmap/internal/wire"
)

// probeLink is an obs.ProbeConn from AS src to AS dst. RoundTrip steps
// the simulator, so it is called from a scenario's top level only.
type probeLink struct {
	d        *Deployment
	src, dst int
}

// probeConfig fills the two seams that put a prober on d's virtual
// network as seen from AS src: the clock and the dialer, which reads a
// target's Addr as its AS number.
func (d *Deployment) probeConfig(src int, cfg obs.ProberConfig) obs.ProberConfig {
	cfg.Now = func() time.Time { return time.UnixMicro(int64(d.Sim().Now())) }
	cfg.Dial = func(addr string, _ time.Duration) (obs.ProbeConn, error) {
		dst, err := strconv.Atoi(addr)
		if err != nil || dst < 0 || dst >= d.sys.NumAS() {
			return nil, fmt.Errorf("nodesim: probe target %q is not an AS of this deployment", addr)
		}
		return &probeLink{d: d, src: src, dst: dst}, nil
	}
	return cfg
}

func (l *probeLink) Close() error { return nil }

// RoundTrip sends one MsgInsert or MsgLookup as the deployment's own
// message and steps the simulator until the node's reply or the virtual
// deadline. A lookup's order is spent on arrival (next = 1 of 1), so a
// miss is this target's answer, not a reason to ask the next replica.
func (l *probeLink) RoundTrip(t wire.MsgType, payload []byte, timeout time.Duration) (wire.MsgType, []byte, error) {
	d := l.d
	d.nextReq++
	reqID := d.nextReq
	var (
		msg interface{}
		rt  wire.MsgType // set by the reply
		res LookupResult
	)
	switch t {
	case wire.MsgInsert:
		e, _, err := wire.DecodeEntry(payload)
		if err != nil {
			return 0, nil, err
		}
		msg = insertReq{entry: e, reqID: reqID}
		d.inserts[reqID] = &insertOp{start: d.Sim().Now(), pending: 1,
			done: func(InsertResult) { rt = wire.MsgInsertAck }}
	case wire.MsgLookup:
		g, _, err := wire.DecodeGUID(payload)
		if err != nil {
			return 0, nil, err
		}
		msg = lookupReq{guid: g, reqID: reqID}
		d.lookups[reqID] = &lookupOp{g: g, src: l.src, start: d.Sim().Now(), order: []int{l.dst}, next: 1, attempts: 1,
			done: func(r LookupResult) { rt, res = wire.MsgLookupResp, r }}
	default:
		return 0, nil, fmt.Errorf("nodesim: probe link carries no %s", t)
	}
	err := d.net.Send(l.src, l.dst, msg)
	deadline := d.Sim().Now() + simnet.Time(timeout.Microseconds())
	if err == nil && !d.Sim().StepUntil(deadline, func() bool { return rt != 0 }) {
		err = &net.OpError{Op: "read", Net: "simnet", Err: os.ErrDeadlineExceeded}
	}
	if err != nil {
		delete(d.inserts, reqID)
		delete(d.lookups, reqID)
		return 0, nil, err
	}
	if rt == wire.MsgInsertAck {
		return rt, nil, nil
	}
	reply, err := wire.AppendLookupResp(nil, wire.LookupResp{Found: res.Found, Entry: res.Entry})
	return rt, reply, err
}
