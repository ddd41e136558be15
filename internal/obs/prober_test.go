package obs

import (
	"context"
	"net"
	"runtime"
	"testing"
	"time"

	"dmap/internal/metrics"
	"dmap/internal/server"
	"dmap/internal/store"
	"dmap/internal/wire"
)

func startProbeNode(t *testing.T) (*server.Node, string) {
	t.Helper()
	n := server.NewWithOptions(nil, server.Options{})
	addr, err := n.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { n.Close() })
	return n, addr
}

func TestProberHealthyCluster(t *testing.T) {
	_, a := startProbeNode(t)
	_, b := startProbeNode(t)
	reg := metrics.NewRegistry()
	p := NewProber(ProberConfig{
		Targets:   []ProbeTarget{{Name: "a", Addr: a}, {Name: "b", Addr: b}},
		Sentinels: 2,
		Registry:  reg,
	})
	defer p.Close()

	var st ProbeStatus
	for i := 0; i < 3; i++ {
		st = p.Round()
	}
	if st.Rounds != 3 {
		t.Errorf("rounds = %d, want 3", st.Rounds)
	}
	for _, ts := range st.Targets {
		if !ts.WriteOK || !ts.ReadOK || ts.Stale || ts.Lag != 0 {
			t.Errorf("healthy target status %+v", ts)
		}
	}
	for _, slo := range st.SLOs {
		if slo.Bad != 0 || slo.Breaching {
			t.Errorf("healthy cluster SLO %+v", slo)
		}
	}
	if st.Breaching() {
		t.Error("healthy cluster breaching")
	}
	snap := reg.Snapshot()
	// 2 targets × 2 sentinels × (write+read) × 3 rounds = 24 ops.
	if snap.Counters["probe.ops"] != 24 {
		t.Errorf("probe.ops = %d, want 24", snap.Counters["probe.ops"])
	}
	if snap.Counters["probe.failures"] != 0 {
		t.Errorf("probe.failures = %d, want 0", snap.Counters["probe.failures"])
	}
	if snap.Histograms["probe.op_us"].Count == 0 {
		t.Error("probe latency histogram empty")
	}
}

func TestProberDetectsDownNode(t *testing.T) {
	na, a := startProbeNode(t)
	_, b := startProbeNode(t)
	p := NewProber(ProberConfig{
		Targets:   []ProbeTarget{{Name: "a", Addr: a}, {Name: "b", Addr: b}},
		Sentinels: 1,
	})
	defer p.Close()

	p.Round()
	na.Close() // node a goes dark
	st := p.Round()

	var down, up *ProbeTargetStatus
	for i := range st.Targets {
		switch st.Targets[i].Name {
		case "a":
			down = &st.Targets[i]
		case "b":
			up = &st.Targets[i]
		}
	}
	if down.WriteOK && down.ReadOK {
		t.Fatalf("dead node probed OK: %+v", down)
	}
	if down.Err == "" {
		t.Error("dead node has no error")
	}
	if !up.WriteOK || !up.ReadOK {
		t.Errorf("live node affected by dead peer: %+v", up)
	}
	if !st.Breaching() {
		t.Error("availability breach not flagged with half the fleet dark")
	}
}

// TestProberSeesRepair verifies the convergence signal: a sentinel
// version the prober never wrote to a target shows up there (here
// injected directly, standing in for anti-entropy delivery) and the
// prober reports it as repaired rather than as its own write.
func TestProberSeesRepair(t *testing.T) {
	_, a := startProbeNode(t)
	nb, b := startProbeNode(t)
	p := NewProber(ProberConfig{
		Targets:   []ProbeTarget{{Name: "a", Addr: a}, {Name: "b", Addr: b}},
		Sentinels: 1,
	})
	defer p.Close()
	p.Round()

	// Deliver a NEWER sentinel version to b out of band.
	e := p.sentinelEntry(p.sentinels[0])
	e.Version = p.version + 50
	if _, err := nb.Store().Put(e); err != nil {
		t.Fatal(err)
	}

	st := p.Round()
	var bs *ProbeTargetStatus
	for i := range st.Targets {
		if st.Targets[i].Name == "b" {
			bs = &st.Targets[i]
		}
	}
	if !bs.Repaired {
		t.Fatalf("out-of-band version not reported as repaired: %+v", bs)
	}
	if st.Repaired == 0 {
		t.Error("repair counter not incremented")
	}
	// The newer version is FRESHER than the prober's own writes, so it
	// must not count as staleness.
	if bs.Stale {
		t.Errorf("fresher-than-acked read flagged stale: %+v", bs)
	}
}

// TestProberStaleRead verifies staleness accounting: a target answering
// with an old sentinel version breaches the freshness objective.
func TestProberStaleRead(t *testing.T) {
	_, a := startProbeNode(t)
	p := NewProber(ProberConfig{
		Targets:   []ProbeTarget{{Name: "a", Addr: a}},
		Sentinels: 1,
	})
	defer p.Close()
	p.Round()

	// Simulate a partition-and-heal history: the prober believes a
	// newer version was acked somewhere, but the target still answers
	// the old one.
	p.maxAcked[0] = p.version + 10

	st := p.Round()
	ts := st.Targets[0]
	// The write pass of this round re-acks version+1 < maxAcked, so the
	// read observes a lag of maxAcked − observed.
	if !ts.Stale || ts.Lag == 0 {
		t.Fatalf("stale read not flagged: %+v", ts)
	}
	for _, slo := range st.SLOs {
		if slo.Name == "staleness" && slo.Bad == 0 {
			t.Errorf("staleness SLO saw no bad probes: %+v", slo)
		}
	}
}

// TestProberTimesExchangesNotHandshake: probe.op_us measures what a node
// takes to answer, so the dial and the handshake — slow here — stay
// outside it, as the dial always did. The fake speaks exactly what a
// node does: hello ack, then identified replies. Close ends the
// connection's reader goroutine with it.
func TestProberTimesExchangesNotHandshake(t *testing.T) {
	const helloDelay = 300 * time.Millisecond
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	base := runtime.NumGoroutine()
	done := make(chan struct{})
	go func() {
		defer close(done)
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		if mt, _, err := wire.ReadFrame(conn); err != nil || mt != wire.MsgHello {
			return
		}
		time.Sleep(helloDelay)
		if err := wire.WriteFrame(conn, wire.MsgHelloAck, wire.AppendHelloAck(nil, wire.Version2)); err != nil {
			return
		}
		st := store.New()
		for {
			mt, id, payload, err := wire.ReadFrameIDInto(conn, nil)
			if err != nil {
				return
			}
			rt, resp := wire.MsgError, wire.AppendErrorKind(nil, wire.ErrKindBadRequest, "unexpected")
			switch mt {
			case wire.MsgInsert:
				e, _, _ := wire.DecodeEntryAppend(nil, payload)
				st.Put(e)
				rt, resp = wire.MsgInsertAck, nil
			case wire.MsgLookup:
				g, _, _ := wire.DecodeGUID(payload)
				e, ok := st.Get(g)
				rt = wire.MsgLookupResp
				resp, _ = wire.AppendLookupResp(nil, wire.LookupResp{Found: ok, Entry: e})
			}
			frame, _ := wire.AppendFrameID(nil, rt, id, resp)
			if _, err := conn.Write(frame); err != nil || rt == wire.MsgError {
				return
			}
		}
	}()

	reg := metrics.NewRegistry()
	p := NewProber(ProberConfig{
		Targets:   []ProbeTarget{{Name: "slow-hello", Addr: ln.Addr().String()}},
		Sentinels: 1,
		Registry:  reg,
	})
	start := time.Now()
	st := p.Round()
	elapsed := time.Since(start)
	p.Close()
	<-done
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > base; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after Close, %d before the round", runtime.NumGoroutine(), base)
		}
	}
	if ts := st.Targets[0]; !ts.WriteOK || !ts.ReadOK || ts.Stale {
		t.Fatalf("node not probed cleanly: %+v", ts)
	}
	if elapsed < helloDelay {
		t.Fatalf("round took %v, the handshake alone %v", elapsed, helloDelay)
	}
	h := reg.Snapshot().Histograms["probe.op_us"]
	if h.Count != 2 {
		t.Fatalf("probe.op_us holds %d samples, want the write and the read", h.Count)
	}
	if max := time.Duration(h.Max) * time.Microsecond; max >= helloDelay {
		t.Errorf("probe.op_us max = %v: the %v handshake was timed into an operation", max, helloDelay)
	}
}

// TestProberDialsSickTargetOncePerRound: a target that accepts and never
// answers the hello costs a round one dial and one timeout, not one per
// operation — Run cannot stop between a round's operations, so at the 2 s
// probeTimeout six dials held a round (and a shutdown) for 12 s per sick
// target. Every operation is still an availability failure, and the next
// round dials again.
func TestProberDialsSickTargetOncePerRound(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			defer conn.Close() // held open, never answered
		}
	}()

	// The dial bounds the handshake itself, shorter than probeTimeout, so
	// that the round stays short; one sick dial per operation would still
	// cost six of it.
	const timeout = 100 * time.Millisecond
	dials := 0
	p := NewProber(ProberConfig{
		Targets: []ProbeTarget{{Name: "silent", Addr: ln.Addr().String()}},
		Dial: func(addr string, d time.Duration) (ProbeConn, error) {
			dials++
			if d != probeTimeout {
				t.Errorf("dial bounded by %v, want probeTimeout (%v)", d, probeTimeout)
			}
			return wire.Dial(context.Background(), addr, timeout)
		},
	})
	defer p.Close()

	start := time.Now()
	st := p.Round()
	if elapsed := time.Since(start); elapsed >= 250*time.Millisecond {
		t.Errorf("round against one silent target took %v at a %v timeout", elapsed, timeout)
	}
	if dials != 1 {
		t.Errorf("%d dials in one round, want 1", dials)
	}
	if ts := st.Targets[0]; ts.WriteOK || ts.ReadOK || ts.Err == "" {
		t.Errorf("silent target probed OK: %+v", ts)
	}
	// 3 sentinels × (write + read), each one an availability failure.
	if slo := st.SLOs[0]; slo.Good != 0 || slo.Bad != 6 {
		t.Errorf("availability good=%d bad=%d, want 0 and 6", slo.Good, slo.Bad)
	}
	p.Round()
	if dials != 2 {
		t.Errorf("%d dials after two rounds, want 2", dials)
	}
}
