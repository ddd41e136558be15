// The K-replica operations start one attempt per distinct replica AS
// from the calling goroutine and finish them in place. These tests pin
// that shape through a scripted Network: which frames go out,
// how acks are counted, what the retry policy grants a failed first
// try, who owns the payload while tries are in flight, how long
// failures may take, and that nothing spawns a goroutine.
package client

import (
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"runtime"
	"strconv"
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
	"dmap/internal/trace"
	"dmap/internal/wire"
)

// tryFate is what a scripted AS does with one try.
type tryFate int

const (
	tryAck    tryFate = iota // the operation's positive reply
	tryError                 // connection error
	tryShed                  // MsgError, ErrKindShed
	tryReject                // MsgError, ErrKindDraining
)

func (f tryFate) String() string { return [...]string{"ack", "error", "shed", "reject"}[f] }

// script puts a scripted transport on the Network seam: each try's
// outcome, or a reply on its way, from addr — the AS number — and the
// frame. It runs on the wall clock and knows no RTT, so reads walk
// placement order.
type script func(addr string, mt wire.MsgType, tc trace.Context, payload []byte, timeout time.Duration) (wire.MsgType, []byte, Reply, error)

func (s script) Now() time.Time                { return time.Now() }
func (s script) Sleep(d time.Duration)         { time.Sleep(d) }
func (s script) RTT(int) (time.Duration, bool) { return 0, false }
func (s script) Start(as int, mt wire.MsgType, tc trace.Context, payload []byte, timeout time.Duration) Reply {
	rt, body, r, err := s(strconv.Itoa(as), mt, tc, payload, timeout)
	if r == nil {
		a := answeredPool.Get().(*answered)
		*a = answered{rt, body, err}
		r = a
	}
	return r
}

// answered is a reply that was in when its try returned. They are
// pooled, so the alloc budgets count the client's allocations alone.
type answered outcome

var answeredPool = sync.Pool{New: func() any { return new(answered) }}

func (a *answered) Wait() (wire.MsgType, []byte, error) {
	r := *a
	*a = answered{}
	answeredPool.Put(a)
	return r.t, r.body, r.err
}

// synchronous adapts a transport whose whole round trip happens inside
// the call — it never leaves a reply pending — to the seam.
func synchronous(rt func(string, wire.MsgType, trace.Context, []byte, time.Duration) (wire.MsgType, []byte, error)) script {
	return func(addr string, mt wire.MsgType, tc trace.Context, payload []byte, timeout time.Duration) (wire.MsgType, []byte, Reply, error) {
		t, body, err := rt(addr, mt, tc, payload, timeout)
		return t, body, nil, err
	}
}

// lateReply is a scripted pending reply: it is in once ready is
// readable, which a nil ready never is, and times out once expired is,
// which the transport sets to fire after the try's timeout.
type lateReply struct {
	ready   <-chan time.Time
	expired <-chan time.Time
	rt      wire.MsgType
	body    []byte
}

func (l *lateReply) Wait() (wire.MsgType, []byte, error) {
	select {
	case <-l.ready:
		return l.rt, l.body, nil
	default:
	}
	select {
	case <-l.ready:
		return l.rt, l.body, nil
	case <-l.expired:
		return 0, nil, os.ErrDeadlineExceeded
	}
}

// atOnce is the delay of a reply that is already in when the operation
// comes to take it.
const atOnce = time.Nanosecond

var inAlready = func() <-chan time.Time {
	ch := make(chan time.Time)
	close(ch)
	return ch
}()

// fanCluster is a K=3 Cluster over the 16-AS walk table whose transport
// is a script: first[as] decides the first try each AS sees, every later
// try acks; delay[as] holds the reply back that long — the request goes
// out and a pending reply comes back, as with the real mux: atOnce has
// the reply in before the try returns, a negative delay never replies.
// frames records every try, in order, per AS.
type fanCluster struct {
	*Cluster
	t *testing.T

	mu     sync.Mutex
	first  map[int]tryFate
	delay  map[int]time.Duration
	frames map[int][]wire.MsgType
	// check, when set, sees every try's payload as it is sent.
	check func(as int, mt wire.MsgType, payload []byte)
	// crowded counts the tries during which more than calm goroutines
	// were alive.
	calm, crowded int
}

func newFanCluster(t *testing.T, cfg Config) *fanCluster {
	t.Helper()
	resolver, err := core.NewResolver(guid.MustHasher(walkK, 0), walkTable(t), 0)
	if err != nil {
		t.Fatal(err)
	}
	addrs := make(map[int]string, 16)
	for as := 0; as < 16; as++ {
		addrs[as] = strconv.Itoa(as)
	}
	c, err := NewWithConfig(resolver, addrs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	fc := &fanCluster{Cluster: c, t: t}
	fc.reset(nil, nil)
	c.net = script(fc.roundTrip)
	return fc
}

func (fc *fanCluster) reset(first map[int]tryFate, delay map[int]time.Duration) {
	fc.mu.Lock()
	defer fc.mu.Unlock()
	fc.first, fc.delay, fc.frames = first, delay, make(map[int][]wire.MsgType)
}

func (fc *fanCluster) roundTrip(addr string, mt wire.MsgType, _ trace.Context, payload []byte, timeout time.Duration) (wire.MsgType, []byte, Reply, error) {
	as, err := strconv.Atoi(addr)
	if err != nil {
		return 0, nil, nil, err
	}
	fc.mu.Lock()
	fate := tryAck
	if len(fc.frames[as]) == 0 {
		fate = fc.first[as]
	}
	fc.frames[as] = append(fc.frames[as], mt)
	delay, check := fc.delay[as], fc.check
	if runtime.NumGoroutine() > fc.calm {
		fc.crowded++
	}
	fc.mu.Unlock()
	if check != nil {
		check(as, mt, payload)
	}
	rt, body, err := scriptedReply(fate, mt, payload)
	if delay == 0 || err != nil {
		return rt, body, nil, err
	}
	// The request is on the wire and its reply pending, which is what
	// roundTrip says of a v2 peer.
	late := &lateReply{expired: time.After(timeout), rt: rt, body: body}
	switch {
	case delay == atOnce:
		late.ready = inAlready
	case delay > 0:
		late.ready = time.After(delay)
	}
	return 0, nil, late, nil
}

// scriptedReply builds fate's reply to a request of type mt.
func scriptedReply(fate tryFate, mt wire.MsgType, payload []byte) (wire.MsgType, []byte, error) {
	switch fate {
	case tryError:
		return 0, nil, errors.New("connection reset")
	case tryShed:
		return wire.MsgError, wire.AppendErrorKind(nil, wire.ErrKindShed, "over the limit"), nil
	case tryReject:
		return wire.MsgError, wire.AppendErrorKind(nil, wire.ErrKindDraining, "draining"), nil
	}
	switch mt {
	case wire.MsgInsert:
		return wire.MsgInsertAck, nil, nil
	case wire.MsgDelete:
		return wire.MsgDeleteAck, []byte{1}, nil
	case wire.MsgBatchInsert:
		es, err := wire.DecodeBatchInsert(payload)
		if err != nil {
			return 0, nil, err
		}
		acked := make([]bool, len(es))
		for i := range acked {
			acked[i] = true
		}
		body, err := wire.AppendBatchInsertAck(nil, acked)
		return wire.MsgBatchInsertAck, body, err
	case wire.MsgBatchLookup:
		gs, err := wire.DecodeBatchLookup(payload)
		if err != nil {
			return 0, nil, err
		}
		rs := make([]wire.LookupResp, len(gs))
		for i, g := range gs {
			rs[i] = wire.LookupResp{Found: true, Entry: walkEntry(g)}
		}
		body, err := wire.AppendBatchLookupResp(nil, rs)
		return wire.MsgBatchLookupResp, body, err
	}
	return 0, nil, fmt.Errorf("scripted transport: unexpected %v", mt)
}

// placedASs is resolver.Place(g)'s ASs in order.
func (fc *fanCluster) placedASs(g guid.GUID) []int {
	fc.t.Helper()
	ps, err := fc.resolver.Place(g)
	if err != nil {
		fc.t.Fatal(err)
	}
	out := make([]int, len(ps))
	for i, p := range ps {
		out[i] = p.AS
	}
	return out
}

// guidWithDistinct finds a GUID whose K=3 placements name exactly n
// distinct ASs: 3 all differ, 2 one pair collides, 1 all collide.
func (fc *fanCluster) guidWithDistinct(n int) guid.GUID {
	fc.t.Helper()
	for i := 0; i < 1<<20; i++ {
		g := guid.New(fmt.Sprintf("fan-out-%d", i))
		if len(distinctOf(fc.placedASs(g))) == n {
			return g
		}
	}
	fc.t.Fatalf("no GUID with %d distinct replica ASs", n)
	return guid.GUID{}
}

func distinctOf(ases []int) []int {
	var out []int
next:
	for _, as := range ases {
		for _, seen := range out {
			if seen == as {
				continue next
			}
		}
		out = append(out, as)
	}
	return out
}

// TestFanOutFirstTryOutcomes walks every assignment of ack / error /
// shed / reject to the first try of each distinct replica AS, for
// placements that all differ, collide pairwise and all collide, with a
// policy that grants one retry and with one that grants none: frames
// started == distinct ASs, acks counted per placement, a failed first
// try gets exactly the retries the policy grants and never a second
// copy of try 1, a rejection none, and a total failure reads as it
// always did.
func TestFanOutFirstTryOutcomes(t *testing.T) {
	for _, maxAttempts := range []int{1, 2} {
		fc := newFanCluster(t, Config{Retry: RetryPolicy{MaxAttempts: maxAttempts}})
		for distinct := 1; distinct <= walkK; distinct++ {
			g := fc.guidWithDistinct(distinct)
			placed := fc.placedASs(g)
			ases := distinctOf(placed)
			combos := 1 << (2 * uint(distinct)) // 4^distinct
			for code := 0; code < combos; code++ {
				first := make(map[int]tryFate)
				for i, as := range ases {
					first[as] = tryFate(code >> (2 * uint(i)) & 3)
				}
				name := fmt.Sprintf("maxAttempts=%d placed=%v first=%v", maxAttempts, placed, first)
				wantFrames := make(map[int]int)
				acked := make(map[int]bool)
				wantRetries := int64(0)
				for _, as := range ases {
					wantFrames[as] = 1
					switch f := first[as]; {
					case f == tryAck:
						acked[as] = true
					case f != tryReject && maxAttempts == 2:
						wantFrames[as], acked[as] = 2, true // the retry acks
						wantRetries++
					}
				}
				wantAcks, rejected, unreachable := 0, 0, 0
				for _, as := range placed {
					switch {
					case acked[as]:
						wantAcks++
					case first[as] == tryReject:
						rejected++
					default:
						unreachable++
					}
				}

				fc.reset(first, nil)
				before := fc.Stats()
				acks, err := fc.Insert(walkEntry(g))
				if acks != wantAcks {
					t.Errorf("%s: %d acks, want %d (one per placement whose AS stored it)", name, acks, wantAcks)
				}
				for _, as := range ases {
					if got := len(fc.frames[as]); got != wantFrames[as] {
						t.Errorf("%s: AS %d got %d frames, want %d", name, as, got, wantFrames[as])
					}
				}
				if len(fc.frames) != len(ases) {
					t.Errorf("%s: frames went to %d ASs, want the %d distinct replica ASs", name, len(fc.frames), len(ases))
				}
				if got := fc.Stats().Retries - before.Retries; got != wantRetries {
					t.Errorf("%s: %d retries, want %d", name, got, wantRetries)
				}
				if wantAcks > 0 {
					if err != nil {
						t.Errorf("%s: Insert = %v, want nil on a partial success", name, err)
					}
					continue
				}
				var want string
				switch {
				case unreachable == 0:
					want = fmt.Sprintf("all %d replicas rejected the write", rejected)
				case rejected == 0:
					want = fmt.Sprintf("no replica reachable (%d unreachable", unreachable)
				default:
					want = fmt.Sprintf("no replica stored it (%d rejected, %d unreachable", rejected, unreachable)
				}
				last := placed[len(placed)-1]
				if err == nil || !strings.Contains(err.Error(), want) || !strings.Contains(err.Error(), fmt.Sprintf("last: AS %d: ", last)) {
					t.Errorf("%s: Insert = %v, want %q with AS %d's cause last", name, err, want, last)
				}
				if got := errors.Is(err, ErrRejected); got != (unreachable == 0) {
					t.Errorf("%s: errors.Is(err, ErrRejected) = %v: %v", name, got, err)
				}
			}
		}
	}
}

// TestFanOutPayloadOutlivesEveryTry: the pooled request payload belongs
// to the operation until its last try is finished — a retry resends it.
// Buffer poisoning makes a payload released early read 0xA5 where the
// entry should be.
func TestFanOutPayloadOutlivesEveryTry(t *testing.T) {
	defer func(was bool) { wire.Poison = was }(wire.Poison)
	wire.Poison = true
	// The silent replica's three 20 ms tries and their two backoffs take
	// about 90 ms: the deadline leaves a scheduling delay room, so that
	// the third try is never cut short by the operation's budget.
	fc := newFanCluster(t, Config{Timeout: 20 * time.Millisecond, OpDeadline: time.Second, Retry: RetryPolicy{MaxAttempts: 3}})
	g := fc.guidWithDistinct(walkK)
	ases := fc.placedASs(g)
	want := walkEntry(g)
	fc.check = func(as int, mt wire.MsgType, payload []byte) {
		var got store.Entry
		switch mt {
		case wire.MsgInsert:
			e, _, err := wire.DecodeEntryAppend(nil, payload)
			if err != nil {
				t.Errorf("AS %d: try carries a damaged payload: %v", as, err)
				return
			}
			got = e
		case wire.MsgDelete:
			dg, _, err := wire.DecodeGUID(payload)
			if err != nil || dg != g {
				t.Errorf("AS %d: delete try carries %v, %v; want %v", as, dg.Short(), err, g.Short())
			}
			return
		}
		if got.GUID != want.GUID || got.Version != want.Version || len(got.NAs) != 1 || got.NAs[0] != want.NAs[0] {
			t.Errorf("AS %d: try carries %+v, want %+v", as, got, want)
		}
	}
	// One replica acks late, one fails its first try and is asked again
	// while the late ack is still out, one never answers its first try.
	fc.reset(map[int]tryFate{ases[1]: tryError}, map[int]time.Duration{ases[0]: 10 * time.Millisecond, ases[2]: -1})
	if acks, err := fc.Insert(want); err != nil || acks != 2 {
		t.Errorf("Insert = %d, %v; want the late and the retried ack", acks, err)
	}
	if got := len(fc.frames[ases[2]]); got != 3 {
		t.Errorf("the silent replica got %d tries, want all 3 the policy grants", got)
	}
	fc.reset(map[int]tryFate{ases[1]: tryShed}, map[int]time.Duration{ases[0]: 10 * time.Millisecond})
	if removed, err := fc.Delete(g); err != nil || removed != 3 {
		t.Errorf("Delete = %d, %v; want 3", removed, err)
	}
}

// TestFanOutRetriesOfFailedReplicasOverlap: with two of three replicas
// black-holed, Insert is back within ONE replica's retry budget — both
// replicas' timeouts and both retries run side by side.
func TestFanOutRetriesOfFailedReplicasOverlap(t *testing.T) {
	const timeout, backoff = 100 * time.Millisecond, DefaultBaseBackoff
	fc := newFanCluster(t, Config{Timeout: timeout, OpDeadline: time.Second, Retry: RetryPolicy{MaxAttempts: 2}})
	g := fc.guidWithDistinct(walkK)
	ases := fc.placedASs(g)
	fc.reset(nil, map[int]time.Duration{ases[0]: -1, ases[1]: -1})
	before := fc.Stats()
	start := time.Now()
	acks, err := fc.Insert(walkEntry(g))
	elapsed := time.Since(start)
	if err != nil || acks != 1 {
		t.Errorf("Insert = %d, %v; want the one reachable replica's ack", acks, err)
	}
	const budget = 2*timeout + backoff
	if elapsed < 2*timeout || elapsed > budget+timeout/2 {
		t.Errorf("Insert took %v, want one replica's retry budget (%v) and well under two (%v)", elapsed, budget, 2*budget)
	}
	for _, as := range ases[:2] {
		if got := len(fc.frames[as]); got != 2 {
			t.Errorf("silent AS %d got %d tries, want 2", as, got)
		}
	}
	after := fc.Stats()
	if got := after.Timeouts - before.Timeouts; got != 4 {
		t.Errorf("%d timeouts, want 4", got)
	}
	if got := after.Retries - before.Retries; got != 2 {
		t.Errorf("%d retries, want 2", got)
	}
}

// TestFanOutDialsBesideTheCaller is the same over real sockets: two of
// the three replica nodes accept the connection and never answer the
// hello, so each try at them blocks in the handshake for the whole
// timeout. Those blocks must overlap — with each other and with the
// write to the live replica, which an operation deadline of two timeouts
// still has to reach.
func TestFanOutDialsBesideTheCaller(t *testing.T) {
	const timeout, backoff = 200 * time.Millisecond, DefaultBaseBackoff
	fc := newFanCluster(t, Config{})
	g := fc.guidWithDistinct(walkK)
	ases := fc.placedASs(g)
	addrs := make(map[int]string)
	for _, as := range ases[:2] {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { ln.Close() })
		go func() {
			for {
				conn, err := ln.Accept()
				if err != nil {
					return
				}
				t.Cleanup(func() { conn.Close() }) // held open, never read
			}
		}()
		addrs[as] = ln.Addr().String()
	}
	node := server.NewWithOptions(nil, server.Options{})
	live, err := node.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { node.Close() })
	addrs[ases[2]] = live

	for _, opDeadline := range []time.Duration{4 * timeout, 2 * timeout} {
		c, err := NewWithConfig(fc.resolver, addrs, Config{Timeout: timeout, OpDeadline: opDeadline, Retry: RetryPolicy{MaxAttempts: 2}})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(c.Close)
		start := time.Now()
		acks, err := c.Insert(walkEntry(g))
		elapsed := time.Since(start)
		if err != nil || acks != 1 {
			t.Errorf("OpDeadline %v: Insert = %d, %v; want the live replica's ack", opDeadline, acks, err)
		}
		if budget := 2*timeout + backoff; elapsed > budget+timeout/2 {
			t.Errorf("OpDeadline %v: Insert took %v, want one replica's retry budget (%v): the hung handshakes added up", opDeadline, elapsed, budget)
		}
	}
	if got := node.Stats().Inserts; got != 2 {
		t.Errorf("the live replica stored %d inserts, want 2", got)
	}
}

// writeCounter counts the Writes the client makes on a connection: each
// is one write(2) on a TCP socket.
type writeCounter struct {
	net.Conn
	writes atomic.Int64
}

func (c *writeCounter) Write(b []byte) (int, error) {
	c.writes.Add(1)
	return c.Conn.Write(b)
}

// countedMux dials addr, behind a writeCounter, and installs the
// connection as c's live shared connection to addr.
func countedMux(t *testing.T, c *Cluster, addr string) *writeCounter {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	wc := &writeCounter{Conn: conn}
	mc, err := wire.NewConn(context.Background(), wc, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	c.mux.entry(addr).conn.Store(mc) // c.Close closes it
	return wc
}

// TestFanOutOneWritePerConnection runs the K-replica operations over
// three live connections to real nodes. The frames of one operation are
// enqueued from the calling goroutine, which yields once and flushes
// each connection once: one Write per connection however many frames it
// carries, where each frame used to be written — and the run queue gone
// round — by itself. Placements that collide on one AS are still one
// frame there.
func TestFanOutOneWritePerConnection(t *testing.T) {
	c, nodes := testCluster(t, 3, 3)
	conns := make([]*writeCounter, len(nodes))
	for as := range nodes {
		conns[as] = countedMux(t, c, c.addrs[as])
	}
	// writes runs op and returns how many Writes each connection saw.
	writes := func(op func()) (per [3]int64) {
		for as, wc := range conns {
			per[as] = -wc.writes.Load()
		}
		op()
		for as, wc := range conns {
			per[as] += wc.writes.Load()
		}
		return per
	}
	entryAt := func(distinct int) (store.Entry, []int) {
		t.Helper()
		for i := 0; i < 1<<16; i++ {
			e := clusterEntry(fmt.Sprintf("one-write-%d", i), 1)
			place, err := c.resolver.Place(e.GUID)
			if err != nil {
				t.Fatal(err)
			}
			ases := make([]int, len(place))
			for j, p := range place {
				ases[j] = p.AS
			}
			if d := distinctOf(ases); len(d) == distinct {
				return e, d
			}
		}
		t.Fatalf("no GUID with %d distinct replica ASs", distinct)
		return store.Entry{}, nil
	}

	spread, _ := entryAt(3)
	if got := writes(func() {
		if acks, err := c.Insert(spread); err != nil || acks != 3 {
			t.Fatalf("Insert = %d, %v", acks, err)
		}
	}); got != [3]int64{1, 1, 1} {
		t.Errorf("K = 3 Insert cost %v Writes per connection, want one each", got)
	}
	if got := writes(func() {
		if removed, err := c.Delete(spread.GUID); err != nil || removed != 3 {
			t.Fatalf("Delete = %d, %v", removed, err)
		}
	}); got != [3]int64{1, 1, 1} {
		t.Errorf("K = 3 Delete cost %v Writes per connection, want one each", got)
	}

	collide, ases := entryAt(2)
	var want [3]int64
	inserts := make(map[int]int64)
	for _, as := range ases {
		want[as] = 1
		inserts[as] = nodes[as].Stats().Inserts
	}
	if got := writes(func() {
		if acks, err := c.Insert(collide); err != nil || acks != 3 {
			t.Fatalf("Insert on colliding placements = %d, %v; want every placement acked", acks, err)
		}
	}); got != want {
		t.Errorf("Insert on ASs %v cost %v Writes per connection, want %v", ases, got, want)
	}
	for _, as := range ases {
		if got := nodes[as].Stats().Inserts - inserts[as]; got != 1 {
			t.Errorf("AS %d stored the entry %d times, want once per distinct AS", as, got)
		}
	}

	// Several chunks for one AS ride one Write: 3 × wire.MaxBatch entries
	// put up to three frames on each connection.
	entries := make([]store.Entry, 3*wire.MaxBatch)
	gs := make([]guid.GUID, len(entries))
	for i := range entries {
		entries[i] = clusterEntry(fmt.Sprintf("one-write-batch-%d", i), 1)
		gs[i] = entries[i].GUID
	}
	if got := writes(func() {
		if _, err := c.InsertBatch(entries); err != nil {
			t.Fatal(err)
		}
	}); got != [3]int64{1, 1, 1} {
		t.Errorf("InsertBatch of %d entries cost %v Writes per connection, want one each", len(entries), got)
	}
	if got := writes(func() {
		if _, found, err := c.LookupBatch(gs); err != nil || !found[0] || !found[len(gs)-1] {
			t.Fatalf("LookupBatch: %v", err)
		}
	}); got[0] > 1 || got[1] > 1 || got[2] > 1 {
		t.Errorf("LookupBatch of %d GUIDs, all found at their first replica, cost %v Writes per connection, want at most one each", len(gs), got)
	}
}

// TestDeleteAsksReplicasAtOnce: K = 3 replicas that each take a while
// to answer cost one such while, not three.
func TestDeleteAsksReplicasAtOnce(t *testing.T) {
	const delay = 50 * time.Millisecond
	fc := newFanCluster(t, Config{Timeout: time.Second})
	g := fc.guidWithDistinct(walkK)
	ases := fc.placedASs(g)
	fc.reset(nil, map[int]time.Duration{ases[0]: delay, ases[1]: delay, ases[2]: delay})
	start := time.Now()
	removed, err := fc.Delete(g)
	elapsed := time.Since(start)
	if err != nil || removed != walkK {
		t.Errorf("Delete = %d, %v; want %d", removed, err, walkK)
	}
	if elapsed < delay || elapsed >= 2*delay {
		t.Errorf("Delete over 3 replicas answering in %v took %v, want less than two delays", delay, elapsed)
	}
	for _, as := range ases {
		if got := len(fc.frames[as]); got != 1 {
			t.Errorf("AS %d got %d frames, want 1", as, got)
		}
	}
	// An AS two placements share is asked once and counts once.
	g = fc.guidWithDistinct(2)
	fc.reset(nil, nil)
	if removed, err := fc.Delete(g); err != nil || removed != 2 {
		t.Errorf("Delete with colliding placements = %d, %v; want 2", removed, err)
	}
	if len(fc.frames) != 2 {
		t.Errorf("frames went to %d ASs, want 2", len(fc.frames))
	}
}

// TestFanOutSpawnsNoGoroutine: across 1,000 healthy Insert, Delete,
// InsertBatch and LookupBatch calls — whether replies come back with the
// request or through a reply slot — tries run with no more goroutines
// alive than the caller started with.
func TestFanOutSpawnsNoGoroutine(t *testing.T) {
	fc := newFanCluster(t, Config{})
	var gs []guid.GUID
	var entries []store.Entry
	for i := 0; i < 48; i++ {
		g := guid.New(fmt.Sprintf("no-goroutine-%d", i))
		gs, entries = append(gs, g), append(entries, walkEntry(g))
	}
	slotted := make(map[int]time.Duration)
	for as := 0; as < 16; as += 2 {
		slotted[as] = atOnce
	}
	fc.reset(nil, slotted)
	base := runtime.NumGoroutine()
	fc.calm, fc.crowded = base, 0
	for i := 0; i < 250; i++ {
		e := entries[i%len(entries)]
		if acks, err := fc.Insert(e); err != nil || acks != walkK {
			t.Fatalf("Insert = %d, %v", acks, err)
		}
		if _, err := fc.Delete(e.GUID); err != nil {
			t.Fatalf("Delete: %v", err)
		}
		if _, err := fc.InsertBatch(entries); err != nil {
			t.Fatalf("InsertBatch: %v", err)
		}
		if _, found, err := fc.LookupBatch(gs); err != nil || !found[0] {
			t.Fatalf("LookupBatch = %v, %v", found, err)
		}
	}
	// A fan-out that spawned would be crowded during every try: each
	// would run on a goroutine of its own. The odd crowded try is the
	// runtime's (a finalizer running counts as a goroutine).
	tries := 0
	for _, f := range fc.frames {
		tries += len(f)
	}
	if fc.crowded*10 > tries {
		t.Errorf("more than %d goroutines were alive during %d of %d tries: an operation spawned some", base, fc.crowded, tries)
	}
	for deadline := time.Now().Add(time.Second); runtime.NumGoroutine() > base; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Errorf("%d goroutines after 1,000 healthy calls, %d before", runtime.NumGoroutine(), base)
			break
		}
	}
}

// TestEmptyTableInsertIsObserved: an Insert that cannot be placed fails
// before any network I/O and is still booked as an operation, like the
// lookup and the delete that fail the same way.
func TestEmptyTableInsertIsObserved(t *testing.T) {
	sc := newWalkCluster(t, prefixtable.New(), Config{})
	g := guid.New("nowhere")
	ops := func(name string) uint64 { return sc.Metrics().Snapshot().Histograms[name].Count }
	for _, op := range []struct {
		name string
		run  func() error
	}{
		{"client.op.insert_us", func() error { _, err := sc.Insert(walkEntry(g)); return err }},
		{"client.op.delete_us", func() error { _, err := sc.Delete(g); return err }},
		{"client.op.lookup_us", func() error { _, err := sc.Lookup(g); return err }},
	} {
		before := ops(op.name)
		if err := op.run(); !errors.Is(err, core.ErrNoPrefixes) {
			t.Errorf("%s: err = %v, want ErrNoPrefixes", op.name, err)
		}
		if got := ops(op.name) - before; got != 1 {
			t.Errorf("%s booked %d operations for one failed call, want 1", op.name, got)
		}
	}
	if sc.calls != 0 {
		t.Errorf("%d round trips against an empty table, want 0", sc.calls)
	}
}

// TestInsertAllocBudget: a healthy K = 3 Insert or Delete places into
// stack scratch and keeps its attempts there — at most one allocation,
// where the goroutine-per-placement fan-out paid seven.
func TestInsertAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	fc := newFanCluster(t, Config{})
	fc.net = synchronous(func(_ string, mt wire.MsgType, _ trace.Context, _ []byte, _ time.Duration) (wire.MsgType, []byte, error) {
		if mt == wire.MsgDelete {
			return wire.MsgDeleteAck, append(wire.Replies.Get(1), 1), nil
		}
		return wire.MsgInsertAck, wire.Replies.Get(0), nil
	})
	e := walkEntry(fc.guidWithDistinct(walkK))
	if allocs := testing.AllocsPerRun(200, func() {
		if acks, err := fc.Insert(e); err != nil || acks != walkK {
			t.Fatalf("Insert = %d, %v", acks, err)
		}
	}); allocs > 1 {
		t.Errorf("Insert = %.0f allocs/op, want ≤ 1", allocs)
	}
	if allocs := testing.AllocsPerRun(200, func() {
		if removed, err := fc.Delete(e.GUID); err != nil || removed != walkK {
			t.Fatalf("Delete = %d, %v", removed, err)
		}
	}); allocs > 1 {
		t.Errorf("Delete = %.0f allocs/op, want ≤ 1", allocs)
	}
}
