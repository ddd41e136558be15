package main

import (
	"bufio"
	"bytes"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"dmap/internal/client"
	"dmap/internal/core"
	"dmap/internal/guid"
	"dmap/internal/metrics"
	"dmap/internal/netaddr"
	"dmap/internal/server"
	"dmap/internal/store"
	"dmap/internal/wire"
)

// Layer probes replay the run's generated inputs through each package's
// public API from inside the bench process, with fixed iteration counts
// so that the work is the same on every commit. The ones that need the
// nodes run first; the cluster is then torn down so that the in-process
// ones have the machine to themselves.

// sink keeps the compiler from discarding probe results.
var sink uint64

// n scales a probe's frozen iteration count down for -quick runs.
func (r *run) n(full int) int {
	if r.cfg.quick {
		return max(full/20, 20)
	}
	return full
}

// nsPer times n calls of fn and returns nanoseconds per call.
func nsPer(n int, fn func(i int)) float64 {
	t0 := time.Now()
	for i := 0; i < n; i++ {
		fn(i)
	}
	return float64(time.Since(t0)) / float64(n)
}

// allocsPer returns heap allocations per call of fn over n calls,
// process-wide: nothing else may be running.
func allocsPer(n int, fn func(i int)) float64 {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < n; i++ {
		fn(i)
	}
	runtime.ReadMemStats(&m1)
	return float64(m1.Mallocs-m0.Mallocs) / float64(n)
}

// medianNs times n calls of fn one by one and returns the median.
func medianNs(n int, fn func(i int) error) (float64, error) {
	lats := make([]float64, n)
	for i := range lats {
		t0 := time.Now()
		if err := fn(i); err != nil {
			return 0, err
		}
		lats[i] = float64(time.Since(t0))
	}
	return median(lats), nil
}

// probes runs every layer probe, each under a span of its own.
func (r *run) probes() error {
	type probe struct {
		name string
		fn   func() error
	}
	steps := []probe{
		{"server.raw", r.probeRaw},
		{"client.live", r.probeClientLive},
		{"obs.scrape", r.probeScrape},
		{"teardown", func() error { r.teardown(); return nil }},
		{"server.allocs", r.probeServerAllocs},
		{"client.stub", r.probeClientStub},
		{"placement", r.probePlacement},
		{"wire", r.probeWire},
		{"wire.writer", r.probeWriter},
		{"store.memory", r.probeStoreMemory},
		{"store.durable", r.probeStoreDurable},
		{"repair", r.probeRepair},
		{"metrics", r.probeMetrics},
	}
	for _, s := range steps {
		id := r.spans.begin(0, "probe:"+s.name)
		err := s.fn()
		r.spans.end(id)
		if err != nil {
			return fmt.Errorf("probe %s: %w", s.name, err)
		}
	}
	if rtt, ok := r.m["rtt_p50_us"]; ok {
		place, raw := r.m["core.place_ns"], r.m["server.raw_rtt_ns"]
		r.m.set("client.residual_ns", rtt*1000-place-raw)
		r.notef("accounting, serial lookup: core.place_ns %.0f + server.raw_rtt_ns %.0f + client.residual_ns %.0f = rtt_p50_us %.0f ns",
			place, raw, rtt*1000-place-raw, rtt*1000)
	}
	return nil
}

// ---- raw TCP against a node: the server without the client library ----

// rawConn speaks v2 framing on one TCP connection with reused buffers.
type rawConn struct {
	c   net.Conn
	br  *bufio.Reader
	out []byte
	in  []byte
	id  uint64
}

func dialRaw(addr string) (*rawConn, error) {
	c, err := net.DialTimeout("tcp", addr, 2*time.Second)
	if err != nil {
		return nil, err
	}
	rc := &rawConn{c: c, br: bufio.NewReaderSize(c, 64<<10), in: make([]byte, 0, 64<<10)}
	if err := wire.WriteFrame(c, wire.MsgHello, wire.AppendHello(nil, wire.Version2)); err != nil {
		c.Close()
		return nil, err
	}
	t, body, err := wire.ReadFrame(rc.br)
	if err != nil {
		c.Close()
		return nil, err
	}
	if v, _, err := wire.DecodeHelloAck(body); t != wire.MsgHelloAck || err != nil || v < wire.Version2 {
		c.Close()
		return nil, fmt.Errorf("hello answered with %v (version %d, %v)", t, v, err)
	}
	return rc, nil
}

// send writes n copies' worth of frames built by add in one Write.
func (rc *rawConn) send(t wire.MsgType, payloads ...[]byte) error {
	rc.out = rc.out[:0]
	for _, p := range payloads {
		rc.id++
		var err error
		if rc.out, err = wire.AppendFrameID(rc.out, t, rc.id, p); err != nil {
			return err
		}
	}
	_, err := rc.c.Write(rc.out)
	return err
}

func (rc *rawConn) recv(want wire.MsgType) ([]byte, error) {
	t, _, body, err := wire.ReadFrameIDInto(rc.br, rc.in[:cap(rc.in)])
	if err != nil {
		return nil, err
	}
	if t != want {
		return nil, fmt.Errorf("got %v, want %v", t, want)
	}
	return body, nil
}

// hostedOn returns up to n keys with a replica on node i.
func (r *run) hostedOn(i, n int) []int {
	var ks []int
	for k := range r.in.keys {
		if r.in.hosts[k]&(1<<uint(i)) != 0 {
			if ks = append(ks, k); len(ks) == n {
				break
			}
		}
	}
	return ks
}

const (
	rawSerialN   = 4000
	rawInsertN   = 2000
	rawPipeDepth = 64
	rawPipeN     = 400 // bursts of rawPipeDepth
	rawBatchN    = 1000
	rawDialN     = 50
)

func (r *run) probeRaw() error {
	addr := r.cl.nodes[0].addr
	setup, err := medianNs(r.n(rawDialN), func(int) error {
		rc, err := dialRaw(addr)
		if err != nil {
			return err
		}
		return rc.c.Close()
	})
	if err != nil {
		return err
	}
	r.m.set("server.conn_setup_us", setup/1000)

	rc, err := dialRaw(addr)
	if err != nil {
		return err
	}
	defer rc.c.Close()
	ks := r.hostedOn(0, r.n(rawSerialN))
	payloads := make([][]byte, len(ks))
	for i, k := range ks {
		payloads[i] = wire.AppendGUID(nil, r.in.keys[k])
	}
	var e store.Entry
	lookup := func(i int) error {
		if err := rc.send(wire.MsgLookup, payloads[i%len(ks)]); err != nil {
			return err
		}
		body, err := rc.recv(wire.MsgLookupResp)
		if err != nil {
			return err
		}
		found, err := wire.DecodeLookupRespInto(&e, body)
		if err != nil || !found || e.GUID != r.in.keys[ks[i%len(ks)]] {
			return fmt.Errorf("raw lookup %d: found %v, %v", i, found, err)
		}
		return nil
	}
	rtt, err := medianNs(r.n(rawSerialN), lookup)
	if err != nil {
		return err
	}
	r.m.set("server.raw_rtt_ns", rtt)

	var buf []byte
	ins, err := medianNs(r.n(rawInsertN), func(i int) error {
		k := ks[i%len(ks)]
		v := r.acked[k].Load() + 1
		r.in.fillEntry(&e, k, v)
		if buf, err = wire.AppendEntry(buf[:0], e); err != nil {
			return err
		}
		if err := rc.send(wire.MsgInsert, buf); err != nil {
			return err
		}
		if _, err := rc.recv(wire.MsgInsertAck); err != nil {
			return err
		}
		r.acked[k].Store(v)
		return nil
	})
	if err != nil {
		return err
	}
	r.m.set("server.raw_insert_rtt_ns", ins)

	burst := payloads[:min(rawPipeDepth, len(payloads))]
	t0 := time.Now()
	for i := 0; i < r.n(rawPipeN); i++ {
		if err := rc.send(wire.MsgLookup, burst...); err != nil {
			return err
		}
		for range burst {
			if _, err := rc.recv(wire.MsgLookupResp); err != nil {
				return err
			}
		}
	}
	r.m.set("server.raw_pipelined_ops_s", float64(r.n(rawPipeN)*len(burst))/time.Since(t0).Seconds())

	gs := make([]guid.GUID, 0, hostSize)
	for _, k := range ks[:min(hostSize, len(ks))] {
		gs = append(gs, r.in.keys[k])
	}
	batch, err := wire.AppendBatchLookup(nil, gs)
	if err != nil {
		return err
	}
	perCall := nsPer(r.n(rawBatchN), func(int) {
		if err == nil {
			err = rc.send(wire.MsgBatchLookup, batch)
		}
		if err == nil {
			_, err = rc.recv(wire.MsgBatchLookupResp)
		}
	})
	if err != nil {
		return err
	}
	r.m.set("server.raw_batch_ns_per_item", perCall/float64(len(gs)))
	return nil
}

const serverAllocsN = 20000

// probeServerAllocs counts allocations per lookup served by an
// in-process server.Node: the requester side reuses every buffer, so
// what is counted is the node's.
func (r *run) probeServerAllocs() error {
	n := server.NewWithOptions(nil, server.Options{})
	addr, err := n.Start("127.0.0.1:0")
	if err != nil {
		return err
	}
	defer n.Close()
	rc, err := dialRaw(addr)
	if err != nil {
		return err
	}
	defer rc.c.Close()
	var e store.Entry
	r.in.fillEntry(&e, 0, 1)
	body, err := wire.AppendEntry(nil, e)
	if err != nil {
		return err
	}
	if err := rc.send(wire.MsgInsert, body); err != nil {
		return err
	}
	if _, err := rc.recv(wire.MsgInsertAck); err != nil {
		return err
	}
	g := wire.AppendGUID(nil, r.in.keys[0])
	one := func(int) {
		if err == nil {
			err = rc.send(wire.MsgLookup, g)
		}
		if err == nil {
			_, err = rc.recv(wire.MsgLookupResp)
		}
	}
	for i := 0; i < 1000; i++ { // fill the pools
		one(i)
	}
	allocs := allocsPer(r.n(serverAllocsN), one)
	if err != nil {
		return err
	}
	r.m.set("server.allocs_per_req", allocs)
	return nil
}

// ---- client library ----

const (
	clientInsertN = 2000
	clientBatchN  = 200
	clientStubN   = 5000
)

func (r *run) probeClientLive() error {
	c, err := client.NewWithConfig(r.in.resolver, r.cl.addrs(), clientConfig(r.cfg.seed))
	if err != nil {
		return err
	}
	defer c.Close()
	var e store.Entry
	n := len(r.in.keys)
	fan, err := medianNs(r.n(clientInsertN), func(i int) error {
		k := n - 1 - i%n
		v := r.acked[k].Load() + 1
		r.in.fillEntry(&e, k, v)
		if acks, err := c.Insert(e); err != nil || acks != replicas {
			return fmt.Errorf("insert key %d: %d acks, %v", k, acks, err)
		}
		r.acked[k].Store(v)
		return nil
	})
	if err != nil {
		return err
	}
	r.m.set("client.insert_fanout_us", fan/1000)

	gs := make([]guid.GUID, hostSize)
	before := c.Metrics().Snapshot().Histograms["client.batch_size"].Count
	for i := 0; i < r.n(clientBatchN); i++ {
		for j := range gs {
			gs[j] = r.in.keys[int(mix64(uint64(i*hostSize+j))%uint64(n))]
		}
		if _, _, err := c.LookupBatch(gs); err != nil {
			return err
		}
	}
	after := c.Metrics().Snapshot().Histograms["client.batch_size"].Count
	r.m.set("client.batch_frames_per_call", float64(after-before)/float64(r.n(clientBatchN)))
	return nil
}

// probeClientStub times LookupInto against a stub that answers the
// hello and then every frame with one canned lookup response: the
// client library and the loopback, no node.
func (r *run) probeClientStub() error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	defer ln.Close()
	var e store.Entry
	r.in.fillEntry(&e, 0, 1)
	canned, err := wire.AppendLookupResp(nil, wire.LookupResp{Found: true, Entry: e})
	if err != nil {
		return err
	}
	done := make(chan struct{})
	go func() { // ends when the client closes the connection
		defer close(done)
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		br := bufio.NewReaderSize(conn, 16<<10)
		if t, _, err := wire.ReadFrame(br); err != nil || t != wire.MsgHello {
			return
		}
		if err := wire.WriteFrame(conn, wire.MsgHelloAck, wire.AppendHelloAck(nil, wire.Version2)); err != nil {
			return
		}
		in := make([]byte, 0, 4096)
		var out []byte
		for {
			_, id, _, err := wire.ReadFrameIDInto(br, in[:cap(in)])
			if err != nil {
				return
			}
			if out, err = wire.AppendFrameID(out[:0], wire.MsgLookupResp, id, canned); err != nil {
				return
			}
			if _, err := conn.Write(out); err != nil {
				return
			}
		}
	}()
	addrs := map[int]string{}
	for as := 0; as < numNodes; as++ {
		addrs[as] = ln.Addr().String()
	}
	c, err := client.NewWithConfig(r.in.resolver, addrs, clientConfig(r.cfg.seed))
	if err != nil {
		return err
	}
	got := store.Entry{NAs: make([]store.NA, 0, store.MaxNAs)}
	g := r.in.keys[0]
	call := func(int) error { return c.LookupInto(g, &got) }
	for i := 0; i < 500; i++ { // dial, fill the pools
		if err := call(i); err != nil {
			c.Close()
			return err
		}
	}
	rtt, err := medianNs(r.n(clientStubN), call)
	if err == nil {
		allocs := allocsPer(r.n(clientStubN), func(i int) {
			if err == nil {
				err = call(i)
			}
		})
		r.m.set("client.lookup_allocs", allocs)
	}
	c.Close()
	<-done
	if err != nil {
		return err
	}
	r.m.set("client.stub_rtt_ns", rtt)
	return nil
}

const scrapeN = 20

func (r *run) probeScrape() error {
	ms, err := medianNs(r.n(scrapeN), func(int) error {
		_, err := r.cl.scrape(0)
		return err
	})
	if err != nil {
		return err
	}
	r.m.set("obs.scrape_ms", ms/1e6)
	return nil
}

// ---- guid, prefixtable, core ----

const (
	hashN    = 200000
	lpmN     = 500000
	nearestN = 100000
	placeN   = 100000
)

func (r *run) probePlacement() error {
	keys := r.in.keys
	h := r.in.resolver.Hasher()
	r.m.set("guid.hash_ns", nsPer(r.n(hashN), func(i int) { sink += uint64(h.Hash(keys[i%len(keys)], i%replicas)) }))

	addrs := make([]netaddr.Addr, min(len(keys), 1<<16))
	for i := range addrs {
		addrs[i] = netaddr.Addr(h.Hash(keys[i], 0))
	}
	tbl := r.in.table
	holes := 0
	for _, a := range addrs {
		if _, ok := tbl.Lookup(a); !ok {
			holes++
		}
	}
	r.m.set("prefixtable.hole_frac", float64(holes)/float64(len(addrs)))
	r.m.set("prefixtable.lpm_ns", nsPer(r.n(lpmN), func(i int) {
		e, _ := tbl.Lookup(addrs[i%len(addrs)])
		sink += uint64(e.AS)
	}))
	r.m.set("prefixtable.nearest_ns", nsPer(r.n(nearestN), func(i int) {
		e, _, _ := tbl.Nearest(addrs[i%len(addrs)])
		sink += uint64(e.AS)
	}))

	place := make([]core.Placement, 0, replicas)
	rehashes := 0
	var err error
	one := func(i int) {
		var perr error
		if place, perr = r.in.resolver.PlaceInto(keys[i%len(keys)], place[:0]); perr != nil {
			err = perr
		}
	}
	n := min(r.n(placeN), len(keys))
	for i := 0; i < n; i++ {
		one(i)
		for _, p := range place {
			rehashes += p.Rehashes
		}
	}
	r.m.set("core.place_rehash_per_op", float64(rehashes)/float64(n))
	r.m.set("core.place_ns", nsPer(r.n(placeN), one))
	r.m.set("core.place_allocs", allocsPer(r.n(placeN), one))
	return err
}

// ---- wire ----

const (
	wireN      = 500000
	wireBatchN = 10000
)

func (r *run) probeWire() error {
	keys := r.in.keys
	var e, got store.Entry
	r.in.fillEntry(&e, r.singleNAKey(), 1)
	got.NAs = make([]store.NA, 0, store.MaxNAs)
	var payload, frame, resp []byte
	var err error
	keep := func(e error) {
		if e != nil {
			err = e
		}
	}

	r.m.set("wire.lookup_req_ns", nsPer(r.n(wireN), func(i int) {
		payload = wire.AppendGUID(payload[:0], keys[i%len(keys)])
		var ferr error
		frame, ferr = wire.AppendFrameID(frame[:0], wire.MsgLookup, uint64(i), payload)
		keep(ferr)
		g, _, derr := wire.DecodeGUID(payload)
		keep(derr)
		sink += uint64(g[0])
	}))
	reqBytes := len(frame)

	r.m.set("wire.lookup_resp_ns", nsPer(r.n(wireN), func(i int) {
		var aerr error
		resp, aerr = wire.AppendLookupResp(resp[:0], wire.LookupResp{Found: true, Entry: e})
		keep(aerr)
		_, derr := wire.DecodeLookupRespInto(&got, resp)
		keep(derr)
	}))
	respFrame, ferr := wire.AppendFrameID(nil, wire.MsgLookupResp, 1, resp)
	keep(ferr)
	r.m.set("wire.bytes_per_lookup", float64(reqBytes+len(respFrame)))

	rd := bytes.NewReader(respFrame)
	in := make([]byte, 0, 4096)
	r.m.set("wire.read_frame_ns", nsPer(r.n(wireN), func(int) {
		rd.Reset(respFrame)
		_, _, body, rerr := wire.ReadFrameIDInto(rd, in[:cap(in)])
		keep(rerr)
		sink += uint64(len(body))
	}))

	entry, aerr := wire.AppendEntry(nil, e)
	keep(aerr)
	insFrame, ferr := wire.AppendFrameID(nil, wire.MsgInsert, 1, entry)
	keep(ferr)
	r.m.set("wire.bytes_per_update", float64(len(insFrame)+wire.FrameIDHeaderLen)) // the ack has no payload

	gs := make([]guid.GUID, hostSize)
	rs := make([]wire.LookupResp, hostSize)
	es := make([]store.Entry, hostSize)
	acks := make([]bool, hostSize)
	for j := range gs {
		gs[j] = keys[j%len(keys)]
		r.in.fillEntry(&es[j], j%len(keys), 1)
		rs[j] = wire.LookupResp{Found: true, Entry: es[j]}
		acks[j] = true
	}
	var a, b []byte
	lookupRound := func(int) {
		var e1, e2, e3, e4 error
		a, e1 = wire.AppendBatchLookup(a[:0], gs)
		_, e2 = wire.DecodeBatchLookup(a)
		b, e3 = wire.AppendBatchLookupResp(b[:0], rs)
		_, e4 = wire.DecodeBatchLookupResp(b)
		keep(e1)
		keep(e2)
		keep(e3)
		keep(e4)
	}
	r.m.set("wire.batch_lookup_ns_per_item", nsPer(r.n(wireBatchN), lookupRound)/hostSize)
	r.m.set("wire.allocs_per_batch_item", allocsPer(r.n(wireBatchN), lookupRound)/hostSize)
	r.m.set("wire.batch_insert_ns_per_item", nsPer(r.n(wireBatchN), func(int) {
		var e1, e2, e3, e4 error
		a, e1 = wire.AppendBatchInsert(a[:0], es)
		_, e2 = wire.DecodeBatchInsert(a)
		b, e3 = wire.AppendBatchInsertAck(b[:0], acks)
		_, e4 = wire.DecodeBatchInsertAck(b)
		keep(e1)
		keep(e2)
		keep(e3)
		keep(e4)
	})/hostSize)
	return err
}

// singleNAKey is the first key that carries one NA, so that the exact
// byte counts do not depend on which keys the seed made multi-homed.
func (r *run) singleNAKey() int {
	for k := range r.in.keys {
		if r.in.naCount(k) == 1 {
			return k
		}
	}
	return 0
}

// countingConn counts the Write calls that reach a real loopback
// socket.
type countingConn struct {
	net.Conn
	writes atomic.Int64
}

func (c *countingConn) Write(b []byte) (int, error) {
	c.writes.Add(1)
	return c.Conn.Write(b)
}

const (
	writerGoroutines = 16
	writerFramesEach = 20000
)

// probeWriter has 16 goroutines write lookup-sized frames into one
// wire.Writer over a loopback socket and counts frames per syscall:
// the coalescing the closed phase of lookup_single lives on.
func (r *run) probeWriter() error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	defer ln.Close()
	drained := make(chan struct{})
	go func() { // ends when the writing side closes
		defer close(drained)
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		buf := make([]byte, 64<<10)
		for {
			if _, err := conn.Read(buf); err != nil {
				return
			}
		}
	}()
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		return err
	}
	cc := &countingConn{Conn: conn}
	var werr atomic.Value
	w := wire.NewWriter(cc, func(err error) { werr.Store(err) })
	payload := wire.AppendGUID(nil, r.in.keys[0])
	var wg sync.WaitGroup
	for g := 0; g < writerGoroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < r.n(writerFramesEach); i++ {
				if err := w.WriteFrameID(wire.MsgLookup, uint64(g*r.n(writerFramesEach)+i), payload); err != nil {
					return
				}
			}
		}(g)
	}
	wg.Wait()
	conn.Close()
	<-drained
	if err, _ := werr.Load().(error); err != nil {
		return err
	}
	r.m.set("wire.writer_frames_per_write", float64(writerGoroutines*r.n(writerFramesEach))/float64(cc.writes.Load()))
	return nil
}

// ---- store ----

const (
	storeProbeEntries = 100000
	storeViewN        = 500000
	storePutN         = 200000
	storeContendedN   = 300000
)

// probeEntries is how many of the run's keys the store probes load.
func (r *run) probeEntries() int { return min(storeProbeEntries, len(r.in.keys)) }

func (r *run) probeStoreMemory() error {
	n := r.probeEntries()
	keys := r.in.keys[:n]
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	st := store.New()
	var e store.Entry
	for k := range keys {
		r.in.fillEntry(&e, k, 1)
		if _, err := st.Put(e); err != nil {
			return err
		}
	}
	runtime.GC()
	runtime.ReadMemStats(&m1)
	r.m.set("store.heap_bytes_per_entry", float64(int64(m1.HeapAlloc)-int64(m0.HeapAlloc))/float64(n))

	got := store.Entry{NAs: make([]store.NA, 0, store.MaxNAs)}
	r.m.set("store.view_ns", nsPer(r.n(storeViewN), func(i int) {
		if st.ViewInto(keys[int(mix64(uint64(i))%uint64(n))], &got) {
			sink += got.Version
		}
	}))
	var err error
	put := func(i int) {
		r.in.fillEntry(&e, i%n, uint64(2+i/n))
		if _, perr := st.Put(e); perr != nil {
			err = perr
		}
	}
	r.m.set("store.put_ns", nsPer(r.n(storePutN), put))
	base := r.n(storePutN)
	r.m.set("store.put_allocs", allocsPer(r.n(storePutN), func(i int) { put(base + i) }))
	if err != nil {
		return err
	}

	// nproc readers beside one writer on the same shards.
	readers := runtime.GOMAXPROCS(0)
	stop := make(chan struct{})
	writerDone := make(chan struct{})
	go func() { // ends when stop is closed
		defer close(writerDone)
		var we store.Entry
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			r.in.fillEntry(&we, i%n, uint64(100+i/n))
			_, _ = st.Put(we) // the sequential Puts above already proved these entries valid
		}
	}()
	var wg sync.WaitGroup
	total := make([]float64, readers)
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			mine := store.Entry{NAs: make([]store.NA, 0, store.MaxNAs)}
			var local uint64
			total[g] = nsPer(r.n(storeContendedN), func(i int) {
				if st.ViewInto(keys[int(mix64(uint64(g)<<32|uint64(i))%uint64(n))], &mine) {
					local += mine.Version
				}
			})
			atomic.AddUint64(&sink, local)
		}(g)
	}
	wg.Wait()
	close(stop)
	<-writerDone
	r.m.set("store.view_contended_ns", median(total))
	return nil
}

func dirBytes(dir, pattern string) int64 {
	files, _ := filepath.Glob(filepath.Join(dir, pattern))
	var total int64
	for _, f := range files {
		if st, err := os.Stat(f); err == nil {
			total += st.Size()
		}
	}
	return total
}

func (r *run) probeStoreDurable() error {
	dir := filepath.Join(r.dir, "probe-store")
	defer os.RemoveAll(dir)
	n := r.probeEntries()
	st, err := store.Open(store.Options{Dir: dir, Fsync: store.FsyncOS, SnapshotBytes: -1})
	if err != nil {
		return err
	}
	var e store.Entry
	put := func(i int) {
		r.in.fillEntry(&e, i%n, uint64(1+i/n))
		if _, perr := st.Put(e); perr != nil {
			err = perr
		}
	}
	r.m.set("store.put_wal_ns", nsPer(n, put))
	if err != nil {
		st.Close()
		return err
	}
	r.m.set("store.wal_bytes_per_put", float64(dirBytes(dir, "*.wal"))/float64(n))

	t0 := time.Now()
	if err := st.Snapshot(); err != nil {
		st.Close()
		return err
	}
	r.m.set("store.snapshot_ms", float64(time.Since(t0))/float64(time.Millisecond))
	r.m.set("store.snapshot_bytes_per_entry", float64(dirBytes(dir, "*.snap"))/float64(n))

	// Puts beside a running snapshot: the stall a background compaction
	// imposes on the write path.
	snapDone := make(chan error, 1)
	go func() { snapDone <- st.Snapshot() }() // ends with the snapshot
	var lats []float64
	for i, running := n, true; running; i++ {
		t := time.Now()
		put(i)
		lats = append(lats, float64(time.Since(t)))
		select {
		case serr := <-snapDone:
			if serr != nil {
				err = serr
			}
			running = false
		default:
		}
	}
	if err != nil {
		st.Close()
		return err
	}
	sort.Float64s(lats)
	p99, _ := percentile(lats, 99)
	r.m.set("store.put_p99_during_snapshot_ns", p99)
	if err := st.Close(); err != nil {
		return err
	}

	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 = time.Now()
	st, err = store.Open(store.Options{Dir: dir, Fsync: store.FsyncOS, SnapshotBytes: -1})
	if err != nil {
		return err
	}
	elapsed := time.Since(t0)
	runtime.ReadMemStats(&m1)
	entries := st.Len()
	if err := st.Close(); err != nil {
		return err
	}
	if entries != n {
		return fmt.Errorf("reopened store holds %d entries, want %d", entries, n)
	}
	r.m.set("store.open_entries_s", float64(entries)/elapsed.Seconds())
	r.m.set("store.open_allocs_per_entry", float64(m1.Mallocs-m0.Mallocs)/float64(entries))
	return nil
}

// ---- repair plane ----

const (
	repairRounds = 20
	codecRounds  = 2000
)

func (r *run) probeRepair() error {
	n := r.probeEntries()
	st := store.New()
	var e store.Entry
	for k := 0; k < n; k++ {
		r.in.fillEntry(&e, k, 1)
		if _, err := st.Put(e); err != nil {
			return err
		}
	}
	// One full paging pass over shard 0, as a sweep makes it.
	after, through := st.ShardRange(0)
	page := make([]store.Digest, 0, wire.MaxRepairDigests)
	digests := 0
	t0 := time.Now()
	for cur, more := after, true; more; {
		page, more = st.ShardDigests(0, cur, wire.MaxRepairDigests, page[:0])
		if len(page) == 0 {
			break
		}
		digests += len(page)
		cur = page[len(page)-1].GUID
	}
	if digests == 0 {
		return fmt.Errorf("shard 0 is empty")
	}
	r.m.set("store.shard_digests_ns_per_digest", float64(time.Since(t0))/float64(digests))

	// The first page against the same store: an in-sync peer's answer.
	var more bool
	page, more = st.ShardDigests(0, after, wire.MaxRepairDigests, page[:0])
	pageThrough := through
	if more {
		pageThrough = page[len(page)-1].GUID
	}
	perRound := nsPer(r.n(repairRounds), func(int) {
		newer, want, _ := core.DiffRange(st, after, pageThrough, page, true, wire.MaxBatch)
		sink += uint64(len(newer) + len(want))
	})
	r.m.set("core.diffrange_ns_per_digest", perRound/float64(len(page)))

	var buf []byte
	var err error
	perRound = nsPer(r.n(codecRounds), func(int) {
		var aerr error
		if buf, aerr = wire.AppendRepairDigest(buf[:0], after, pageThrough, page); aerr != nil {
			err = aerr
		}
		if _, _, ds, derr := wire.DecodeRepairDigest(buf); derr != nil {
			err = derr
		} else {
			sink += uint64(len(ds))
		}
	})
	r.m.set("wire.repair_codec_ns_per_digest", perRound/float64(len(page)))
	return err
}

// ---- metrics ----

const (
	observeN  = 2000000
	snapshotN = 2000
)

func (r *run) probeMetrics() error {
	reg := metrics.NewRegistry()
	// The shape of a node's registry: 24 counters, 11 gauges, 9 histograms.
	for i := 0; i < 24; i++ {
		reg.Counter(fmt.Sprintf("probe.counter_%d", i)).Add(int64(i))
	}
	for i := 0; i < 11; i++ {
		reg.Gauge(fmt.Sprintf("probe.gauge_%d", i)).Set(float64(i))
	}
	hs := make([]*metrics.Histogram, 9)
	for i := range hs {
		hs[i] = reg.Histogram(fmt.Sprintf("probe.hist_%d", i))
	}
	r.m.set("metrics.hist_observe_ns", nsPer(r.n(observeN), func(i int) { hs[i%len(hs)].Observe(float64(i & 1023)) }))
	r.m.set("metrics.snapshot_us", nsPer(r.n(snapshotN), func(int) { sink += uint64(len(reg.Snapshot().Counters)) })/1000)
	return nil
}
