// Package server runs a DMap mapping node over TCP: the process an AS
// border gateway would co-locate with its router to host its share of the
// global GUID→NA table. It substitutes for the paper's GENI prototype
// (§VII) and makes the library deployable beyond simulation.
//
// The node is deliberately dumb, exactly as DMap intends: it stores and
// serves whatever mappings hash to it. All placement intelligence (the K
// hash functions, Algorithm 1, replica selection) lives in the client,
// because any participant can derive placements locally from the shared
// prefix table.
package server

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"dmap/internal/guid"
	"dmap/internal/metrics"
	"dmap/internal/store"
	"dmap/internal/trace"
	"dmap/internal/wire"
)

// Node is a mapping server over a store. Create with NewWithOptions,
// serve TCP with Start, stop with Close; ServeFrame answers frames that
// arrive some other way.
type Node struct {
	store  *store.Store
	logger *slog.Logger
	// tracer, when set, joins sampled request traces arriving over the
	// trace extension and feeds the slow-op log. Nil = tracing off;
	// the frame loop then never touches trace state.
	tracer *trace.Tracer
	// hot profiles the per-node request stream (§IV-C): which GUIDs
	// dominate this node's lookup and insert load. Nil = off.
	hot *trace.HotKeys

	// mu guards listener lifecycle state only: listener, conns and
	// closed. Request handling never takes it — the store has its own
	// locking and the counters are atomics — so a slow accept or Close
	// cannot stall in-flight operations.
	mu       sync.Mutex
	listener net.Listener
	conns    map[net.Conn]struct{}
	closed   bool
	wg       sync.WaitGroup

	// draining rejects writes with a MsgError reply instead of serving
	// them — the §III-D1 migration posture: a node about to hand off its
	// share keeps answering lookups but refuses new state.
	draining atomic.Bool

	// admit is the global in-flight admission limiter; every request
	// frame claims a slot here before it is served, or is answered with
	// an ErrKindShed MsgError. maxConnInflight bounds the frames one
	// connection's read loop serves between two flushes.
	admit           limiter
	maxConnInflight int64

	// Anti-entropy sweeper state (gossip.go). gossipCtx is the sweeper's
	// life, every connection it dials included, and Close ends it;
	// gossipOn marks the loop as launched so a second Start cannot
	// double-run it.
	gossipOpts   GossipOptions
	gossipCtx    context.Context
	gossipCancel context.CancelFunc
	gossipOn     bool

	// All operational counters live on the node's metrics registry —
	// the same numbers Stats() reports are what /debug/metrics serves.
	// Handles are resolved once in NewWithOptions; the request path never
	// touches the registry's lock.
	reg     *metrics.Registry
	inserts *metrics.Counter
	lookups *metrics.Counter
	hits    *metrics.Counter
	deletes *metrics.Counter
	errors  *metrics.Counter
	rejects *metrics.Counter
	badReqs *metrics.Counter
	// Per-op service-time histograms (µs): decode + store + encode,
	// excluding the response write.
	hInsert *metrics.Histogram
	hLookup *metrics.Histogram
	hDelete *metrics.Histogram
	// Admission outcomes: frames refused at the per-conn and global
	// in-flight limits. The matching inflight figure is the GaugeFunc
	// server.inflight over the global limiter.
	shedsConn   *metrics.Counter
	shedsGlobal *metrics.Counter
	// v2 pipelined-path instrumentation: entries/GUIDs per batch frame
	// and per-frame service time for the batch ops.
	hBatchSize *metrics.Histogram
	hBatchIns  *metrics.Histogram
	hBatchLkp  *metrics.Histogram
	v2Conns    *metrics.Counter
	v2Frames   *metrics.Counter
	// Anti-entropy repair activity, both roles: sweeps/digests_sent/
	// pulled/pushed/backoffs/peer_errors count this node sweeping its
	// peers; digests_recv counts pages answered for peers sweeping it.
	repairSweeps        *metrics.Counter
	repairDigestsSent   *metrics.Counter
	repairDigestsRecv   *metrics.Counter
	repairEntriesPulled *metrics.Counter
	repairEntriesPushed *metrics.Counter
	repairBackoffs      *metrics.Counter
	repairPeerErrs      *metrics.Counter
}

// Stats counts served operations.
type Stats struct {
	Inserts int64
	Lookups int64
	Hits    int64
	Deletes int64
	// Errors counts internal failures (store errors, unknown frames).
	Errors int64
	// Rejects counts writes refused while draining.
	Rejects int64
	// BadRequests counts malformed frames answered with MsgError.
	BadRequests int64
	// Sheds counts frames refused by admission control (per-conn plus
	// global in-flight limits), answered with an ErrKindShed MsgError.
	Sheds int64
}

// Options configures optional node subsystems. The zero value is a
// quiet node: no logging, no tracing, no hot-key profiling.
type Options struct {
	// Logger receives the node's records; nil logs nothing.
	Logger *slog.Logger
	// Tracer joins request traces and captures slow ops; nil = off.
	Tracer *trace.Tracer
	// HotKeys tracks the hottest GUIDs by lookup and insert load;
	// nil = off.
	HotKeys *trace.HotKeys

	// MaxInflight caps requests in flight across the whole node;
	// beyond it new frames are answered with an ErrKindShed MsgError
	// instead of queueing. 0 = unbounded.
	MaxInflight int
	// MaxConnInflight caps requests in flight per connection, bounding
	// how much of the node one peer can occupy. 0 = unbounded.
	MaxConnInflight int

	// Gossip configures the background anti-entropy sweeper
	// (gossip.go); no peers disables it.
	Gossip GossipOptions
}

// quiet stands in for a nil Options.Logger: a logger enabled at no level
// (slog.DiscardHandler needs Go 1.24).
var quiet = slog.New(slog.NewTextHandler(io.Discard, &slog.HandlerOptions{Level: slog.Level(math.MaxInt)}))

// NewWithOptions creates a node serving st (nil: a fresh memory-only
// store) with the full observability surface. The store stays the
// caller's: Close leaves it open, so a durable one (store.Open) is closed
// by the caller after the node.
func NewWithOptions(st *store.Store, opts Options) *Node {
	if st == nil {
		st = store.New()
	}
	reg := metrics.NewRegistry()
	n := &Node{
		store:   st,
		logger:  cmp.Or(opts.Logger, quiet),
		tracer:  opts.Tracer,
		hot:     opts.HotKeys,
		conns:   make(map[net.Conn]struct{}),
		reg:     reg,
		inserts: reg.Counter("server.inserts"),
		lookups: reg.Counter("server.lookups"),
		hits:    reg.Counter("server.hits"),
		deletes: reg.Counter("server.deletes"),
		errors:  reg.Counter("server.errors"),
		rejects: reg.Counter("server.rejects"),
		badReqs: reg.Counter("server.bad_requests"),
		hInsert: reg.Histogram("server.op.insert_us"),
		hLookup: reg.Histogram("server.op.lookup_us"),
		hDelete: reg.Histogram("server.op.delete_us"),

		shedsConn:   reg.Counter("server.sheds_conn"),
		shedsGlobal: reg.Counter("server.sheds_global"),
		hBatchSize:  reg.Histogram("server.batch_size"),
		hBatchIns:   reg.Histogram("server.op.batch_insert_us"),
		hBatchLkp:   reg.Histogram("server.op.batch_lookup_us"),
		v2Conns:     reg.Counter("server.v2_conns"),
		v2Frames:    reg.Counter("server.v2_frames"),

		repairSweeps:        reg.Counter("server.repair.sweeps"),
		repairDigestsSent:   reg.Counter("server.repair.digests_sent"),
		repairDigestsRecv:   reg.Counter("server.repair.digests_recv"),
		repairEntriesPulled: reg.Counter("server.repair.entries_pulled"),
		repairEntriesPushed: reg.Counter("server.repair.entries_pushed"),
		repairBackoffs:      reg.Counter("server.repair.backoffs"),
		repairPeerErrs:      reg.Counter("server.repair.peer_errors"),

		gossipOpts: opts.Gossip,
	}
	n.gossipCtx, n.gossipCancel = context.WithCancel(context.Background())
	n.admit.max = int64(opts.MaxInflight)
	n.maxConnInflight = int64(opts.MaxConnInflight)
	st.Instrument(reg, "store")
	// Requests currently being handled across every connection: the
	// global admission limiter's live count.
	reg.GaugeFunc("server.inflight", func() float64 {
		return float64(n.admit.inflight())
	})
	reg.GaugeFunc("server.conns", func() float64 {
		n.mu.Lock()
		defer n.mu.Unlock()
		return float64(len(n.conns))
	})
	reg.GaugeFunc("server.draining", func() float64 {
		if n.draining.Load() {
			return 1
		}
		return 0
	})
	if n.hot != nil {
		// Hot-key load exposure: the totals and the hottest single key's
		// (over)count per class, enough for dashboards to spot a skewed
		// stream without scraping /debug/hotkeys.
		reg.GaugeFunc("server.hot.lookup_total", func() float64 {
			l, _ := n.hot.Totals()
			return float64(l)
		})
		reg.GaugeFunc("server.hot.insert_total", func() float64 {
			_, i := n.hot.Totals()
			return float64(i)
		})
		reg.GaugeFunc("server.hot.lookup_max", func() float64 {
			if top := n.hot.TopLookups(1); len(top) > 0 {
				return float64(top[0].Count)
			}
			return 0
		})
		reg.GaugeFunc("server.hot.insert_max", func() float64 {
			if top := n.hot.TopInserts(1); len(top) > 0 {
				return float64(top[0].Count)
			}
			return 0
		})
	}
	return n
}

// Tracer returns the node's tracer (nil when tracing is off).
func (n *Node) Tracer() *trace.Tracer { return n.tracer }

// HotKeys returns the node's hot-GUID trackers (nil when off).
func (n *Node) HotKeys() *trace.HotKeys { return n.hot }

// Store returns the node's mapping store.
func (n *Node) Store() *store.Store { return n.store }

// Metrics returns the node's registry: operation counters, per-op
// latency histograms and store gauges. Serve it with metrics.Handler
// (cmd/dmapnode -debug-addr does).
func (n *Node) Metrics() *metrics.Registry { return n.reg }

// Stats returns a snapshot of operation counters. Each counter is read
// atomically; the snapshot as a whole is not a single instant, which is
// fine for monitoring (e.g. Hits may momentarily exceed what Lookups
// implies by at most the number of in-flight requests). The counters
// are the registry's own — Stats and /debug/metrics cannot disagree.
func (n *Node) Stats() Stats {
	return Stats{
		Inserts:     n.inserts.Value(),
		Lookups:     n.lookups.Value(),
		Hits:        n.hits.Value(),
		Deletes:     n.deletes.Value(),
		Errors:      n.errors.Value(),
		Rejects:     n.rejects.Value(),
		BadRequests: n.badReqs.Value(),
		Sheds:       n.shedsConn.Value() + n.shedsGlobal.Value(),
	}
}

// Drain switches the node into read-only mode: lookups and pings are
// served, inserts and deletes are answered with a MsgError frame so
// clients fail over to another replica immediately instead of hanging
// into their timeout. Use before withdrawing the node's share.
func (n *Node) Drain() {
	n.draining.Store(true)
	// A drained node is the §III-D1 handoff posture: make everything it
	// acknowledged durable now, whatever the fsync policy.
	if err := n.store.Sync(); err != nil {
		n.logger.Warn("drain sync failed", "err", err)
	}
}

// Resume ends draining.
func (n *Node) Resume() { n.draining.Store(false) }

// Draining reports whether the node is in read-only mode.
func (n *Node) Draining() bool { return n.draining.Load() }

// Start listens on addr ("host:port", ":0" for ephemeral) and serves in
// the background. It returns the bound address.
func (n *Node) Start(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("server: listen %s: %w", addr, err)
	}
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		ln.Close()
		return "", errors.New("server: node already closed")
	}
	n.listener = ln
	n.mu.Unlock()

	n.wg.Add(1)
	go func() {
		defer n.wg.Done()
		n.acceptLoop(ln)
	}()
	n.mu.Lock()
	if len(n.gossipOpts.Peers) > 0 && !n.gossipOn {
		n.gossipOn = true
		n.wg.Add(1)
		go n.gossipLoop()
	}
	n.mu.Unlock()
	return ln.Addr().String(), nil
}

func (n *Node) acceptLoop(ln net.Listener) {
	for {
		conn, err := ln.Accept()
		if err != nil {
			return // listener closed
		}
		n.mu.Lock()
		if n.closed {
			n.mu.Unlock()
			conn.Close()
			return
		}
		n.conns[conn] = struct{}{}
		n.mu.Unlock()

		n.wg.Add(1)
		go func() {
			defer n.wg.Done()
			n.serveConn(conn)
			n.mu.Lock()
			delete(n.conns, conn)
			n.mu.Unlock()
		}()
	}
}

// Close stops accepting, closes every live connection and waits for the
// handlers to drain. Once it returns, nothing of the node touches its
// store.
func (n *Node) Close() error {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return nil
	}
	n.closed = true
	n.gossipCancel() // stops the sweeper and closes the connection it has open
	ln := n.listener
	conns := make([]net.Conn, 0, len(n.conns))
	for c := range n.conns {
		conns = append(conns, c)
	}
	n.mu.Unlock()

	// Close outside the lock: handler goroutines removing themselves
	// from conns never wait behind a slow Close.
	for _, c := range conns {
		c.Close()
	}
	var err error
	if ln != nil {
		err = ln.Close()
	}
	n.wg.Wait()
	return err
}

func (n *Node) countErr() {
	n.errors.Add(1)
}

// handle executes one decoded request and returns the response frame.
// It is safe for concurrent use — every connection's read loop calls it —
// since the store has its own locking and every counter is atomic. sp,
// when non-nil, is the request's server-side span: handle attaches a
// store child span around the state access.
//
// dst is the caller's response scratch: every returned out slice is dst
// with the response appended (grown if it did not fit), so the caller
// owns out's storage and single-op responses never allocate. Callers
// pass dst with len 0; handle never reads its contents. start is the
// frame's one clock reading, taken by the caller: the op histograms time
// from it.
//
// A malformed or unknown frame is answered MsgError like any refusal:
// the reply goes out under the offending request's ID and the connection
// stays usable, since identified framing is intact whatever a payload
// holds.
func (n *Node) handle(t wire.MsgType, payload []byte, remote net.Addr, sp *trace.Span, dst []byte, start time.Time) (respType wire.MsgType, out []byte) {
	switch t {
	case wire.MsgLookup:
		g, rest, err := wire.DecodeGUID(payload)
		if err != nil || len(rest) != 0 { // a lookup is one GUID
			n.badReqs.Add(1)
			return wire.MsgError, wire.AppendErrorKind(dst, wire.ErrKindBadRequest, "malformed lookup")
		}
		n.hot.ObserveLookup(g)
		st := sp.NewChild("store.get")
		// The store's read is the copy-out boundary: the entry arrives in
		// nas, on this stack, and is encoded from there with the shard
		// lock long released — no clone, no callback, no allocation.
		var nas [store.MaxNAs]store.NA
		e, ok := n.store.Read(g, &nas)
		out, aerr := wire.AppendLookupResp(dst, wire.LookupResp{Found: ok, Entry: e})
		if st != nil { // skip the arg boxing entirely when unsampled
			st.Eventf("found=%t", ok)
			st.End()
		}
		n.lookups.Add(1)
		if ok {
			n.hits.Add(1)
		}
		if aerr != nil {
			n.countErr()
			return wire.MsgError, wire.AppendErrorKind(dst, wire.ErrKindInternal, "internal error")
		}
		n.hLookup.ObserveSinceExemplar(start, sp.TraceID())
		return wire.MsgLookupResp, out

	case wire.MsgDelete:
		if n.draining.Load() {
			n.rejects.Add(1)
			sp.Eventf("rejected: draining")
			return wire.MsgError, wire.AppendErrorKind(dst, wire.ErrKindDraining, "draining: writes refused")
		}
		g, rest, err := wire.DecodeGUID(payload)
		if err != nil || len(rest) != 0 { // a delete is one GUID
			n.badReqs.Add(1)
			return wire.MsgError, wire.AppendErrorKind(dst, wire.ErrKindBadRequest, "malformed delete")
		}
		st := sp.NewChild("store.delete")
		existed := n.store.Delete(g)
		st.End()
		n.deletes.Add(1)
		flag := byte(0)
		if existed {
			flag = 1
		}
		n.hDelete.ObserveSinceExemplar(start, sp.TraceID())
		return wire.MsgDeleteAck, append(dst, flag)

	case wire.MsgPing:
		return wire.MsgPong, dst

	case wire.MsgBatchInsert:
		if n.draining.Load() {
			n.rejects.Add(1)
			return wire.MsgError, wire.AppendErrorKind(dst, wire.ErrKindDraining, "draining: writes refused")
		}
		st := sp.NewChild("store.put_batch")
		acked, err := n.putBatch(payload)
		if st != nil {
			st.Eventf("entries=%d", len(acked))
			st.End()
		}
		if err != nil {
			n.badReqs.Add(1)
			n.logger.Warn("bad batch insert", "remote", remote, "err", err)
			return wire.MsgError, wire.AppendErrorKind(dst, wire.ErrKindBadRequest, "malformed batch insert")
		}
		n.hBatchSize.Observe(float64(len(acked)))
		out, err = wire.AppendBatchInsertAck(dst, acked)
		if err != nil {
			n.countErr()
			return wire.MsgError, wire.AppendErrorKind(dst, wire.ErrKindInternal, "internal error")
		}
		n.hBatchIns.ObserveSinceExemplar(start, sp.TraceID())
		return wire.MsgBatchInsertAck, out

	case wire.MsgBatchLookup:
		gs, err := wire.DecodeBatchLookup(payload)
		if err != nil {
			n.badReqs.Add(1)
			n.logger.Warn("bad batch lookup", "remote", remote, "err", err)
			return wire.MsgError, wire.AppendErrorKind(dst, wire.ErrKindBadRequest, "malformed batch lookup")
		}
		n.hBatchSize.Observe(float64(len(gs)))
		st := sp.NewChild("store.get_batch")
		if st != nil {
			st.Eventf("guids=%d", len(gs))
		}
		// The same copy-out boundary as the single-op arm, once per GUID:
		// each entry is read into nas and encoded into dst from there,
		// with no staging slice in between. Warm first has the frame's
		// cache misses overlap, so each Read's lookup is a cached one; the
		// tracker and the counters take the frame whole.
		n.hot.ObserveLookups(gs)
		n.store.Warm(gs)
		out, err = wire.AppendBatchCount(dst, len(gs))
		hits := 0
		var nas [store.MaxNAs]store.NA
		for i := 0; err == nil && i < len(gs); i++ {
			e, ok := n.store.Read(gs[i], &nas)
			out, err = wire.AppendLookupResp(out, wire.LookupResp{Found: ok, Entry: e})
			if ok {
				hits++
			}
		}
		n.lookups.Add(int64(len(gs)))
		n.hits.Add(int64(hits))
		if st != nil {
			st.Eventf("hits=%d", hits)
			st.End()
		}
		if err != nil {
			n.countErr()
			return wire.MsgError, wire.AppendErrorKind(dst, wire.ErrKindInternal, "internal error")
		}
		n.hBatchLkp.ObserveSinceExemplar(start, sp.TraceID())
		return wire.MsgBatchLookupResp, out

	default:
		n.countErr()
		n.logger.Warn("unknown frame", "type", t, "remote", remote)
		return wire.MsgError, wire.AppendErrorKind(dst, wire.ErrKindBadRequest, "unknown frame type")
	}
}

// putBatch stores the entries of a MsgBatchInsert body and reports which
// the store took. A first walk decodes every entry for its GUID — so a
// body malformed anywhere is refused before anything is stored or the
// tracker told: a refused frame has no effect — and warms the store 64
// GUIDs at a time from the stack (store.Warm). The second decodes 64
// entries at a time into arrays on the stack again and stores them as one
// run (store.PutRun: on a durable store, one log write): no heap []Entry,
// no NA slice per entry.
func (n *Node) putBatch(body []byte) ([]bool, error) {
	cnt, items, err := wire.DecodeBatchCount(body)
	if err != nil {
		return nil, err
	}
	var (
		nas  [64][store.MaxNAs]store.NA
		es   [64]store.Entry
		errs [64]error
		gs   [64]guid.GUID
	)
	rest := items
	for at := 0; at < cnt; at += len(gs) {
		chunk := gs[:min(len(gs), cnt-at)]
		for j := range chunk {
			if es[0], rest, err = wire.DecodeEntryAppend(nas[0][:0], rest); err != nil {
				return nil, err
			}
			chunk[j] = es[0].GUID
		}
		n.store.Warm(chunk)
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("%d trailing bytes after batch insert", len(rest))
	}
	acked := make([]bool, cnt)
	stored := 0
	for at := 0; at < cnt; at += len(gs) {
		chunk := gs[:min(len(gs), cnt-at)]
		for j := range chunk {
			es[j], items, _ = wire.DecodeEntryAppend(nas[j][:0], items) // decoded once above
			chunk[j] = es[j].GUID
		}
		n.store.PutRun(es[:len(chunk)], errs[:len(chunk)])
		for j, err := range errs[:len(chunk)] {
			if err != nil {
				n.countErr()
				continue
			}
			acked[at+j] = true
			stored++
		}
		n.hot.ObserveInserts(chunk)
	}
	n.inserts.Add(int64(stored))
	return acked, nil
}

// serverBufs recycles the payloads too large for a read buffer and the
// batch and repair replies across every connection on the node. See
// DESIGN.md §9 for the ownership rules: a buffer obtained from the pool
// is owned until Put, and nothing decoded from it may alias it after
// release.
var serverBufs = wire.NewBufPool(256)

// helloTimeout bounds the handshake, the server's half of it: a peer
// that connects and then sends nothing, or half a header, is closed
// instead of pinning a goroutine and a descriptor for as long as it
// cares to stay.
const helloTimeout = 3 * time.Second

// serveConn is the handshake (DESIGN.md §7): the first frame must be a
// well-formed MsgHello asking for at least Version2, answered with the
// version — nothing else is negotiated — after which the connection
// carries identified frames (serveConnV2). Anything else — a pre-hello
// client's bare request, a hello for version 1, junk — is answered one
// un-identified MsgError, which such a client reads as the reply to its
// request, and closed: no handler runs and no admission slot is taken
// for a peer that has not said hello.
func (n *Node) serveConn(conn net.Conn) {
	defer conn.Close()
	_ = conn.SetDeadline(time.Now().Add(helloTimeout))
	// A hello is at most 6 bytes. ReadFrameInto checks the claimed length
	// against MaxPayload before it sizes anything by it, and consumes a
	// well-formed stranger's whole frame so that the close which follows
	// the error reply is a FIN, not a reset that could overtake it.
	t, payload, err := wire.ReadFrameInto(conn, make([]byte, 0, 16))
	if err != nil {
		if !errors.Is(err, io.EOF) && !errors.Is(err, net.ErrClosed) {
			n.logger.Debug("hello read failed", "remote", conn.RemoteAddr(), "err", err)
		}
		return
	}
	var v byte
	if t == wire.MsgHello {
		v, err = wire.DecodeHello(payload)
	}
	if t != wire.MsgHello || err != nil || v < wire.Version2 {
		n.badReqs.Add(1)
		n.logger.Debug("no hello", "remote", conn.RemoteAddr(), "type", t)
		_ = wire.WriteFrame(conn, wire.MsgError, wire.AppendErrorKind(nil, wire.ErrKindBadRequest, "expected a hello for protocol version 2"))
		return
	}
	if err := wire.WriteFrame(conn, wire.MsgHelloAck, wire.AppendHelloAck(nil, wire.Version2)); err != nil {
		return
	}
	// Idle multiplexed connections are legitimate: the bound ends here.
	_ = conn.SetDeadline(time.Time{})
	n.v2Conns.Add(1)
	n.logger.Debug("connection open", "remote", conn.RemoteAddr())
	n.serveConnV2(conn)
}

// requestBuf is the read loop's payload source (wire.Reader.Next): a view
// into the reader's buffer for every frame that fits it, and a serverBufs
// buffer for a larger one — a batch frame over MaxFrame — which the loop
// releases once the frame is served.
func requestBuf(_ wire.MsgType, n int) []byte {
	if n <= wire.MaxFrame {
		return nil
	}
	return serverBufs.Get(n)
}

// serveConnV2 serves identified frames a burst at a time (DESIGN.md §7),
// every one of them on this goroutine, where it was read. One read(2)
// brings in every frame the peer pipelined; each is admitted, served
// through serveFrameV2 and its reply enqueued on the connection's
// wire.Writer, a single insert staged instead (insertRun). The loop
// flushes once when no whole frame is left in the reader's buffer,
// committing the staged inserts first — a log write per shard — so their
// acks leave in the same write. Responses carry the request ID they
// answer; ordering is the client demuxer's job.
//
// The invariant: the loop never goes into a read that may block with a
// reply enqueued and unflushed or an insert uncommitted, so both are
// bounded by one read buffer of frames. A burst's replies wait for its
// slowest frame, and a connection uses at most one core: a peer that
// wants more parallelism opens more connections.
//
// Admission: each frame claims a global slot and counts in corked, the
// frames served since the last flush, which is what the per-connection
// limit bounds; a refusal is answered with a pre-encoded ErrKindShed
// MsgError — so under overload the peer learns to back off rather than
// fail over. A frame is in flight until the flush that carries its reply,
// which releases the burst's slots; so do the flushes on the way out when
// the connection dies.
func (n *Node) serveConnV2(conn net.Conn) {
	// A failed flush desynchronizes nothing (identified framing), but the
	// connection is done for: kill it, which also unblocks the read loop.
	w := wire.NewWriter(conn, func(error) { conn.Close() })
	rd := wire.NewReader(conn)
	remote := conn.RemoteAddr()
	var scratch []byte // the loop's single-op reply buffer
	var corked int64   // frames served since the last flush
	var run insertRun  // the burst's inserts, committed by the flush
	flush := func() {
		n.commitInserts(&run, w, scratch)
		_ = w.Flush()
		n.admitRelease(&corked)
	}
	for {
		if !rd.Buffered() {
			flush() // the burst is answered and the next read may block
		}
		t, id, payload, err := rd.Next(requestBuf)
		if err != nil {
			flush() // a refused header reads as buffered: its burst's replies still go out
			if !errors.Is(err, io.EOF) && !errors.Is(err, net.ErrClosed) {
				n.logger.Debug("v2 read failed", "remote", remote, "err", err)
			}
			return
		}
		n.v2Frames.Add(1)
		if ok, global := n.tryAdmit(&corked, wire.BaseType(t)); ok {
			scratch = n.serveFrameV2(remote, w, &run, t, id, payload, scratch[:0])
		} else {
			// Refused where it was read, with zero allocations; the reply
			// leaves with the burst's.
			n.countShed(global)
			_ = w.Enqueue(wire.MsgError, id, trace.Context{}, shedBody(global))
		}
		if len(payload) > wire.MaxFrame {
			serverBufs.Put(payload) // requestBuf's; a view is the reader's
		}
	}
}

// replies is where a served frame's answer goes: the connection's
// corked wire.Writer, or ServeFrame's one reply. Enqueue copies payload.
type replies interface {
	Enqueue(t wire.MsgType, id uint64, tc trace.Context, payload []byte) error
}

// serveFrameV2 serves one admitted frame and enqueues the reply on w,
// corked for the flush that ends the burst; a MsgInsert is staged in run
// instead, for that flush to commit and answer. On a failed write the
// Writer's onFail has closed the connection already; there is nothing
// more to do here. A single-op reply is encoded into dst (len 0), and
// serveFrameV2 returns dst, or the larger buffer the reply outgrew it
// into, for the loop to reuse. A batch or repair reply, up to a frame's
// worth, is encoded into a serverBufs buffer instead, back in the pool
// before serveFrameV2 returns: Enqueue has copied it. payload stays the
// caller's. A traced frame's context is stripped here, and joined into a
// server-side span when the node has a tracer; the reply carries the
// base frame type.
func (n *Node) serveFrameV2(remote net.Addr, w replies, run *insertRun, t wire.MsgType, id uint64, payload, dst []byte) []byte {
	start := time.Now()
	var tc trace.Context
	if wire.IsTraced(t) {
		var terr error
		tc, payload, terr = wire.DecodeTraceContext(payload)
		if terr != nil {
			n.badReqs.Add(1)
			out := wire.AppendErrorKind(dst, wire.ErrKindBadRequest, "malformed trace context")
			_ = w.Enqueue(wire.MsgError, id, trace.Context{}, out)
			return out
		}
		t = wire.BaseType(t)
	}
	var sp *trace.Span
	if tc.Sampled {
		sp = n.tracer.StartSpanFromContext("server."+t.String(), tc)
	}
	if t == wire.MsgInsert { // staged, for the flush to commit and answer
		in := stagedInsert{id: id, start: start, tc: tc, sp: sp}
		run.nas = slices.Grow(run.nas, store.MaxNAs)
		e, rest, err := wire.DecodeEntryAppend(run.nas[len(run.nas):], payload)
		switch {
		case n.draining.Load():
			n.rejects.Add(1)
			sp.Eventf("rejected: draining")
			n.answerInsert(w, &in, dst, wire.ErrKindDraining, "draining: writes refused")
		case err != nil || len(rest) != 0: // an insert is one entry
			n.badReqs.Add(1)
			n.logger.Warn("bad insert", "remote", remote, "err", err, "trailing", len(rest))
			n.answerInsert(w, &in, dst, wire.ErrKindBadRequest, "malformed insert")
		default:
			run.nas = run.nas[:len(run.nas)+len(e.NAs)]
			run.es, run.gs, run.errs, run.reqs = append(run.es, e), append(run.gs, e.GUID), append(run.errs, nil), append(run.reqs, in)
		}
		return dst
	}
	buf, pooled := dst, t == wire.MsgBatchInsert || t == wire.MsgBatchLookup || t == wire.MsgRepairDigest
	if pooled {
		buf = serverBufs.Get(0)
	}
	var respType wire.MsgType
	var out []byte
	if t == wire.MsgRepairDigest { // an anti-entropy page (gossip.go)
		respType, out = n.AnswerDigest(payload, buf, nil)
	} else {
		respType, out = n.handle(t, payload, remote, sp, buf, start)
	}
	sp.End()
	if n.tracer.SlowEnabled() {
		n.tracer.ObserveServerOp("server."+t.String(), id, tc, start)
	}
	_ = w.Enqueue(respType, id, trace.Context{}, out)
	if !pooled {
		return out
	}
	serverBufs.Put(out) // buf, or the buffer out outgrew it into: a smaller buf goes to the GC
	return dst
}

// insertRun is the read loop's burst of inserts, decoded where they were
// read, for commitInserts; its slices are reused burst after burst.
type insertRun struct {
	es   []store.Entry
	nas  []store.NA // es' NAs: a frame's buffer is released at once
	errs []error
	gs   []guid.GUID
	reqs []stagedInsert
}

// stagedInsert is what answering and observing an insert takes.
type stagedInsert struct {
	id     uint64
	start  time.Time
	tc     trace.Context
	sp, st *trace.Span
}

// commitInserts stores run and enqueues the answers for the flush: acks
// (a stale version's too), else ErrKindInternal — each entry was
// validated where it was decoded, so a store error is the node's. dst is
// the read loop's reply scratch.
func (n *Node) commitInserts(run *insertRun, w replies, dst []byte) {
	if len(run.reqs) == 0 {
		return
	}
	n.hot.ObserveInserts(run.gs)
	for i := range run.reqs {
		run.reqs[i].st = run.reqs[i].sp.NewChild("store.put")
	}
	n.store.PutRun(run.es, run.errs)
	now, stored := time.Now(), 0
	for i := range run.reqs {
		in := &run.reqs[i]
		in.st.End()
		if err := run.errs[i]; err != nil {
			n.countErr()
			n.logger.Error("insert not stored", "err", err)
			n.answerInsert(w, in, dst, wire.ErrKindInternal, "internal error")
			continue
		}
		stored++
		n.hInsert.ObserveExemplar(float64(now.Sub(in.start).Nanoseconds())/1e3, in.sp.TraceID())
		n.answerInsert(w, in, dst, 0, "")
	}
	n.inserts.Add(int64(stored))
	clear(run.reqs) // no span outlives its trace
	run.es, run.nas, run.errs, run.gs, run.reqs = run.es[:0], run.nas[:0], run.errs[:0], run.gs[:0], run.reqs[:0]
}

// answerInsert enqueues an insert's ack, or when reason is set a MsgError
// encoded into dst, and observes it as serveFrameV2 observes a frame.
func (n *Node) answerInsert(w replies, in *stagedInsert, dst []byte, kind wire.ErrKind, reason string) {
	in.sp.End()
	if n.tracer.SlowEnabled() {
		n.tracer.ObserveServerOp("server.insert", in.id, in.tc, in.start)
	}
	t, body := wire.MsgInsertAck, []byte(nil)
	if reason != "" {
		t, body = wire.MsgError, wire.AppendErrorKind(dst[:0], kind, reason)
	}
	_ = w.Enqueue(t, in.id, trace.Context{}, body)
}

// ServeFrame answers one request frame as a connection's read loop does,
// for a transport without connections — nodesim's simulated link: the
// same decode, refusal and store code, an insert committed as a run of
// one. No admission limit
// applies. The reply body is a fresh slice; payload stays the
// caller's.
func (n *Node) ServeFrame(t wire.MsgType, payload []byte) (wire.MsgType, []byte) {
	var r oneReply
	var run insertRun
	n.serveFrameV2(nil, &r, &run, t, 0, payload, nil)
	n.commitInserts(&run, &r, nil)
	return r.t, r.body
}

// oneReply is ServeFrame's replies: the one answer its frame gets.
type oneReply struct {
	t    wire.MsgType
	body []byte
}

func (r *oneReply) Enqueue(t wire.MsgType, _ uint64, _ trace.Context, payload []byte) error {
	r.t, r.body = t, append([]byte(nil), payload...)
	return nil
}
