// Shed-vs-drain retry semantics: an ErrKindShed refusal means "healthy
// but saturated", so the client backs off and retries the same replica;
// every other MsgError kind means "retrying is pointless", so the
// client aborts toward failover. These tests drive the retry loop with
// a scripted fake node so each refusal flavor is exact and repeatable.
package client

import (
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dmap/internal/core"
	"dmap/internal/guid"
	"dmap/internal/prefixtable"
	"dmap/internal/server"
	"dmap/internal/store"
	"dmap/internal/wire"
)

// scriptedServer is a fake node that grants every hello and answers
// each request frame by script(reqNum, type, payload), where reqNum
// counts requests across all connections starting at 1.
func scriptedServer(t *testing.T, script func(req int64, typ wire.MsgType, payload []byte) (wire.MsgType, []byte)) string {
	t.Helper()
	return scriptedNode(t, func(int64) bool { return true }, script)
}

// scriptedNode is scriptedServer with a say in the handshake: connection
// number conn (from 1) gets its hello granted when grant(conn) holds,
// and otherwise the answer of a node that does not know the frame — one
// un-identified MsgError, then a close.
func scriptedNode(t *testing.T, grant func(conn int64) bool, script func(req int64, typ wire.MsgType, payload []byte) (wire.MsgType, []byte)) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	var conns, reqs atomic.Int64
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer conn.Close()
				if typ, _, err := wire.ReadFrame(conn); err != nil || typ != wire.MsgHello {
					return
				}
				if !grant(conns.Add(1)) {
					_ = wire.WriteFrame(conn, wire.MsgError, wire.AppendErrorKind(nil, wire.ErrKindBadRequest, "unknown frame type"))
					return
				}
				if err := wire.WriteFrame(conn, wire.MsgHelloAck, wire.AppendHelloAck(nil, wire.Version2)); err != nil {
					return
				}
				for {
					typ, id, payload, err := wire.ReadFrameIDInto(conn, nil)
					if err != nil {
						return
					}
					rt, body := script(reqs.Add(1), typ, payload)
					frame, _ := wire.AppendFrameID(nil, rt, id, body)
					if _, err := conn.Write(frame); err != nil {
						return
					}
				}
			}()
		}
	}()
	return ln.Addr().String()
}

// scriptedCluster wires a single-replica client (K=1, so there is no
// replica to fail over to — any recovery must come from retrying) to a
// scripted server.
func scriptedCluster(t *testing.T, addr string, retry RetryPolicy) *Cluster {
	t.Helper()
	tbl, err := prefixtable.Generate(prefixtable.GenConfig{
		NumAS:       2,
		NumPrefixes: 24,
		Seed:        5,
	})
	if err != nil {
		t.Fatal(err)
	}
	resolver, err := core.NewResolver(guid.MustHasher(1, 0), tbl, 0)
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewWithConfig(resolver, map[int]string{0: addr, 1: addr}, Config{
		Timeout:    time.Second,
		OpDeadline: 5 * time.Second,
		Retry:      retry,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c
}

func lookupRespBody(t *testing.T, found bool) []byte {
	t.Helper()
	var body []byte
	var err error
	if found {
		body, err = wire.AppendLookupResp(nil, wire.LookupResp{Found: true, Entry: clusterEntry("shed", 1)})
	} else {
		body, err = wire.AppendLookupResp(nil, wire.LookupResp{})
	}
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// askAS0 sends one frame to AS 0 under the cluster's retry policy — the
// K-replica fan-out at K = 1 — and returns that replica's own outcome,
// which the public operations fold into their error text.
func askAS0(c *Cluster, t wire.MsgType, payload []byte) (wire.MsgType, error) {
	now := time.Now()
	atts := c.fanOut(nil, []core.Placement{{AS: 0}}, attempt{t: t, payload: payload, opDeadline: now.Add(5 * time.Second)}, now)
	wire.Replies.Put(atts[0].body)
	return atts[0].rt, atts[0].err
}

// TestShedBacksOffAndRetriesSameReplica: a shed first attempt must be
// retried on the same replica after a backoff — and succeed — rather
// than aborting like a drain reject would. With K=1 there is nowhere to
// fail over, so success here proves the retry happened.
func TestShedBacksOffAndRetriesSameReplica(t *testing.T) {
	addr := scriptedServer(t, func(req int64, typ wire.MsgType, payload []byte) (wire.MsgType, []byte) {
		if req == 1 {
			return wire.MsgError, wire.AppendErrorKind(nil, wire.ErrKindShed, "overloaded")
		}
		return wire.MsgLookupResp, lookupRespBody(t, true)
	})
	c := scriptedCluster(t, addr, RetryPolicy{MaxAttempts: 3})

	start := time.Now()
	if _, err := c.Lookup(guid.New("shed-once")); err != nil {
		t.Fatalf("lookup after one shed failed: %v", err)
	}
	if elapsed := time.Since(start); elapsed < 500*time.Microsecond {
		t.Errorf("retry came back in %v; expected at least the jittered backoff (≥0.5ms)", elapsed)
	}
	st := c.Stats()
	if st.Sheds != 1 {
		t.Errorf("Sheds = %d, want 1", st.Sheds)
	}
	if st.Retries != 1 {
		t.Errorf("Retries = %d, want 1 (the shed must consume a policy attempt)", st.Retries)
	}
	if st.Rejects != 0 {
		t.Errorf("Rejects = %d, want 0 (sheds must not count as rejects)", st.Rejects)
	}
	if st.Failovers != 0 {
		t.Errorf("Failovers = %d, want 0", st.Failovers)
	}
}

// TestShedExhaustionReturnsErrOverload: a replica that sheds every
// attempt exhausts the policy and surfaces ErrOverload, not ErrRejected.
func TestShedExhaustionReturnsErrOverload(t *testing.T) {
	addr := scriptedServer(t, func(int64, wire.MsgType, []byte) (wire.MsgType, []byte) {
		return wire.MsgError, wire.AppendErrorKind(nil, wire.ErrKindShed, "overloaded")
	})
	c := scriptedCluster(t, addr, RetryPolicy{MaxAttempts: 2})

	// Drive the retry loop directly: Lookup folds the cause into
	// ErrNotFound text, but the replica's own error is the contract.
	_, err := askAS0(c, wire.MsgLookup, wire.AppendGUID(nil, guid.New("shed-always")))
	if err == nil {
		t.Fatal("lookup against an always-shedding replica succeeded")
	}
	if !errors.Is(err, ErrOverload) {
		t.Errorf("error %v does not wrap ErrOverload", err)
	}
	if errors.Is(err, ErrRejected) {
		t.Errorf("error %v wraps ErrRejected; shed exhaustion must stay distinct", err)
	}
	st := c.Stats()
	if st.Sheds != 2 {
		t.Errorf("Sheds = %d, want 2 (one per attempt)", st.Sheds)
	}
}

// TestDrainAbortsRetriesImmediately: the pre-existing contract stays —
// a non-shed MsgError (draining) burns no retries on that replica.
func TestDrainAbortsRetriesImmediately(t *testing.T) {
	var served atomic.Int64
	addr := scriptedServer(t, func(req int64, typ wire.MsgType, payload []byte) (wire.MsgType, []byte) {
		served.Store(req)
		return wire.MsgError, wire.AppendErrorKind(nil, wire.ErrKindDraining, "draining: writes refused")
	})
	c := scriptedCluster(t, addr, RetryPolicy{MaxAttempts: 3})

	_, err := askAS0(c, wire.MsgLookup, wire.AppendGUID(nil, guid.New("drained")))
	if err == nil {
		t.Fatal("lookup against a refusing replica succeeded")
	}
	if !errors.Is(err, ErrRejected) {
		t.Errorf("error %v does not wrap ErrRejected", err)
	}
	if got := served.Load(); got != 1 {
		t.Errorf("server saw %d attempts, want 1 (drain must abort the retry loop)", got)
	}
	st := c.Stats()
	if st.Rejects != 1 || st.Sheds != 0 || st.Retries != 0 {
		t.Errorf("stats = %+v, want Rejects=1 Sheds=0 Retries=0", st)
	}
}

// TestLegacyGenericErrorStillRejects: an unclassified error (kind byte
// = generic, what a peer older than the kinds sends) keeps the
// abort-and-fail-over behavior.
func TestLegacyGenericErrorStillRejects(t *testing.T) {
	addr := scriptedServer(t, func(int64, wire.MsgType, []byte) (wire.MsgType, []byte) {
		return wire.MsgError, wire.AppendErrorKind(nil, wire.ErrKindGeneric, "no")
	})
	c := scriptedCluster(t, addr, RetryPolicy{MaxAttempts: 3})
	_, err := askAS0(c, wire.MsgLookup, wire.AppendGUID(nil, guid.New("legacy")))
	if !errors.Is(err, ErrRejected) {
		t.Errorf("legacy generic error = %v, want ErrRejected", err)
	}
	if st := c.Stats(); st.Sheds != 0 {
		t.Errorf("Sheds = %d, want 0", st.Sheds)
	}
}

// TestPipelinedCallersShedAgainstRealNodes is the one shed test with
// nothing scripted: many goroutines share a Cluster's connection to real
// nodes that admit one request per connection. Their frames reach a node
// as a burst, and a lookup served on the read loop holds its slot until
// the burst's flush, so the node must shed part of every burst; the
// client must see those sheds, back off, still get answers, and hand
// every caller either an entry or the overload.
func TestPipelinedCallersShedAgainstRealNodes(t *testing.T) {
	c, nodes := testClusterOpts(t, 2, 1, server.Options{MaxConnInflight: 1})
	keys := make([]guid.GUID, 32)
	for i := range keys {
		e := clusterEntry(fmt.Sprintf("shed-key-%d", i), 1)
		keys[i] = e.GUID
		if _, err := c.Insert(e); err != nil { // one in flight: admitted
			t.Fatal(err)
		}
	}
	const callers, each = 32, 25
	var served, overloaded atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var e store.Entry
			for j := 0; j < each; j++ {
				// K = 1: nowhere to fail over, so a replica that sheds
				// every attempt surfaces as the lookup's last error.
				switch err := c.LookupInto(keys[(i+j)%len(keys)], &e); {
				case err == nil:
					served.Add(1)
				case strings.Contains(err.Error(), ErrOverload.Error()):
					overloaded.Add(1)
				default:
					t.Errorf("lookup failed with neither an entry nor the overload: %v", err)
				}
			}
		}(i)
	}
	wg.Wait()
	var nodeSheds int64
	for _, n := range nodes {
		nodeSheds += n.Stats().Sheds
	}
	if nodeSheds == 0 {
		t.Errorf("nodes shed nothing with MaxConnInflight=1 under %d pipelined callers", callers)
	}
	if c.Stats().Sheds == 0 {
		t.Error("the client observed no sheds")
	}
	if served.Load() == 0 {
		t.Error("no lookup was served; backing off and retrying should recover some")
	}
	if got := served.Load() + overloaded.Load(); got != callers*each {
		t.Errorf("served + overloaded = %d, issued %d", got, callers*each)
	}
}
