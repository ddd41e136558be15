// The transport: one shared wire.Conn per node address. Concurrent
// callers to the same AS start their frames on the shared connection;
// none of them pays a dial of its own.
package client

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"dmap/internal/trace"
	"dmap/internal/wire"
)

// payloadBufs recycles request payload buffers for the op layer.
var payloadBufs = wire.NewBufPool(256)

// stale maps a reused connection's death under a request to
// errStaleConn: the request never got an answer from a live server, and
// settle replaces the connection without consuming a try. A connection
// dialed for the request reports its death as it is.
func stale(err error) error {
	if !errors.Is(err, wire.ErrConnDead) {
		return err
	}
	return fmt.Errorf("%w: %w", errStaleConn, err)
}

// outcome is a reply as Reply.Wait returns it.
type outcome struct {
	t    wire.MsgType
	body []byte
	err  error
}

// deferred is the pending reply of an attempt that runs beside the
// caller (roundTrip); such an attempt times itself out.
type deferred chan outcome

func (d deferred) Wait() (wire.MsgType, []byte, error) {
	r := <-d
	return r.t, r.body, r.err
}

// roundTrip is the real transport. A peer whose shared connection is up
// gets the request started — or, corked, enqueued — here and now, and
// its Pending and the connection are handed back. A dial and handshake
// may block, so an attempt that needs them runs beside the caller:
// several replicas' blocks overlap instead of adding up.
func (c *Cluster) roundTrip(addr string, t wire.MsgType, tc trace.Context, payload []byte, began time.Time, timeout time.Duration, cork bool) (Reply, *wire.Conn, error) {
	if mc := c.mux.live(addr); mc != nil {
		var p *wire.Pending
		var err error
		if cork {
			p, err = mc.Enqueue(t, tc, payload, began, timeout)
		} else {
			p, err = mc.Start(t, tc, payload, began, timeout)
		}
		if err != nil {
			return nil, nil, stale(err)
		}
		return p, mc, nil
	}
	d := make(deferred, 1)
	go func() {
		rt, body, err := c.exchange(addr, t, tc, payload, timeout)
		d <- outcome{rt, body, err}
	}()
	return d, nil, nil
}

// exchange performs one whole request/response against addr on its
// shared connection, dialing and handshaking if it must. A reused
// connection dying underneath the request is reported as errStaleConn
// so settle can replace it without consuming a try; a refused dial and
// a refused hello are ordinary failed tries.
func (c *Cluster) exchange(addr string, t wire.MsgType, tc trace.Context, payload []byte, timeout time.Duration) (wire.MsgType, []byte, error) {
	mc, fresh, err := c.muxGet(addr, timeout)
	if err != nil {
		return 0, nil, err
	}
	if fresh {
		c.m.dials.Inc()
	}
	rt, body := wire.MsgType(0), []byte(nil)
	p, err := mc.Start(t, tc, payload, time.Now(), timeout)
	if err == nil {
		rt, body, err = p.Wait()
	}
	if !fresh {
		err = stale(err)
	}
	return rt, body, err
}

// muxEntry is the per-address slot: at most one live connection, with
// the entry mutex single-flighting the dial+handshake so a burst of
// callers against a cold address performs one handshake, not N.
type muxEntry struct {
	mu   sync.Mutex // held across a dial; conn is written under it
	conn atomic.Pointer[wire.Conn]
}

// muxTable routes addresses to shared connections. It remembers nothing
// else about an address: a node that refused a hello and was upgraded
// in place is picked up by the next dial.
type muxTable struct {
	mu      sync.Mutex
	entries map[string]*muxEntry
}

func (tb *muxTable) entry(addr string) *muxEntry {
	tb.mu.Lock()
	defer tb.mu.Unlock()
	if tb.entries == nil {
		tb.entries = make(map[string]*muxEntry)
	}
	e, ok := tb.entries[addr]
	if !ok {
		e = &muxEntry{}
		tb.entries[addr] = e
	}
	return e
}

// live returns addr's shared connection if it is up. It never blocks,
// not on a dial in progress either.
func (tb *muxTable) live(addr string) *wire.Conn {
	tb.mu.Lock()
	e := tb.entries[addr]
	tb.mu.Unlock()
	if e != nil {
		if mc := e.conn.Load(); mc != nil && !mc.Dead() {
			return mc
		}
	}
	return nil
}

func (tb *muxTable) closeAll() {
	tb.mu.Lock()
	entries := tb.entries
	tb.entries = nil
	tb.mu.Unlock()
	for _, e := range entries {
		e.mu.Lock()
		if mc := e.conn.Swap(nil); mc != nil {
			mc.Close()
		}
		e.mu.Unlock()
	}
}

// liveConns counts healthy shared connections (the client.mux.conns
// gauge).
func (tb *muxTable) liveConns() int {
	tb.mu.Lock()
	entries := make([]*muxEntry, 0, len(tb.entries))
	for _, e := range tb.entries {
		entries = append(entries, e)
	}
	tb.mu.Unlock()
	n := 0
	for _, e := range entries {
		if mc := e.conn.Load(); mc != nil && !mc.Dead() {
			n++
		}
	}
	return n
}

// muxGet returns the live shared connection for addr, dialing one if
// needed. fresh reports a new dial. A previously live connection found
// dead is cleared and reported as errStaleConn so the retry loop
// replaces it observably.
func (c *Cluster) muxGet(addr string, timeout time.Duration) (mc *wire.Conn, fresh bool, err error) {
	e := c.mux.entry(addr)
	e.mu.Lock()
	defer e.mu.Unlock()
	if mc := e.conn.Load(); mc != nil {
		if !mc.Dead() {
			return mc, false, nil
		}
		e.conn.Store(nil)
		return nil, false, fmt.Errorf("%w: shared connection died idle", errStaleConn)
	}
	mc, err = wire.Dial(context.Background(), addr, timeout)
	if err != nil {
		return nil, true, fmt.Errorf("client: %s: %w", addr, err)
	}
	e.conn.Store(mc)
	return mc, true, nil
}
