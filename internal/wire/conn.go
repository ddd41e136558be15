// The dialing side of a connection (DESIGN.md §7): the handshake every
// dialer performs — the cluster client's multiplexed connections too —
// and Conn, one exchange in flight, for the dialers that never pipeline:
// the gossip sweeper, the SLO prober and the benchmarks.
package wire

import (
	"context"
	"fmt"
	"net"
	"time"
)

// Handshake opens the protocol on a fresh connection, within timeout:
// MsgHello asking for Version2 and the want feature flags, under the
// 5-byte header, answered by MsgHelloAck. It returns the granted subset
// of want; every later frame on the connection is identified. There is
// no fallback: a peer that answers MsgError, or with an older version,
// has refused the connection.
func Handshake(conn net.Conn, timeout time.Duration, want byte) (feat byte, err error) {
	_ = conn.SetDeadline(time.Now().Add(timeout))
	defer conn.SetDeadline(time.Time{})
	if err := WriteFrame(conn, MsgHello, AppendHelloFeat(nil, Version2, want)); err != nil {
		return 0, fmt.Errorf("wire: hello write: %w", err)
	}
	// ReadFrame takes exactly the ack's bytes off the connection, so a
	// Reader created afterwards starts at the first identified frame.
	t, body, err := ReadFrame(conn)
	if err != nil {
		return 0, fmt.Errorf("wire: hello read: %w", err)
	}
	switch t {
	case MsgHelloAck:
		v, granted, err := DecodeHelloAck(body)
		if err != nil {
			return 0, err
		}
		if v < Version2 {
			return 0, fmt.Errorf("wire: peer refused the hello: it speaks version %d", v)
		}
		return granted & want, nil
	case MsgError:
		_, reason, _ := DecodeErrorKind(body)
		return 0, fmt.Errorf("wire: peer refused the hello: %s", reason)
	default:
		return 0, fmt.Errorf("wire: hello answered with %v", t)
	}
}

// Conn is a connection past its handshake with strictly one exchange in
// flight. It is not safe for concurrent use, and an error from RoundTrip
// leaves the stream in an unknown state: close it and dial again.
type Conn struct {
	conn net.Conn
	stop func() bool // detaches conn from the context it was dialed under
	rd   *Reader
	next uint64
	buf  []byte // outgoing frame scratch
	in   []byte // reply payload, reused by every round trip
}

// Dial connects to addr and performs the handshake, asking for no
// feature, both within timeout. The connection lives no longer than ctx: when ctx is done it is closed,
// which fails the dial, the handshake or the RoundTrip in progress, so
// whoever owns ctx never waits out a silent peer.
func Dial(ctx context.Context, addr string, timeout time.Duration) (*Conn, error) {
	d := net.Dialer{Timeout: timeout}
	conn, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("wire: dial %s: %w", addr, err)
	}
	stop := context.AfterFunc(ctx, func() { conn.Close() })
	if _, err := Handshake(conn, timeout, 0); err != nil {
		stop()
		conn.Close()
		return nil, err
	}
	sock := raw(conn) // past the handshake, the socket a Reader or a Writer uses
	return &Conn{conn: sock, stop: stop, rd: NewReader(sock)}, nil
}

// Close closes the connection.
func (c *Conn) Close() error {
	c.stop()
	return c.conn.Close()
}

// replyBuf hands the reader the connection's reply buffer, replacing it
// when a reply outgrows it. Reuse is safe because exactly one exchange
// is in flight and every decoder copies out of the payload.
func (c *Conn) replyBuf(_ MsgType, n int) []byte {
	if cap(c.in) < n {
		c.in = make([]byte, n)
	}
	return c.in
}

// RoundTrip writes one identified frame and reads its reply, within
// timeout. Nothing is pipelined, so the next frame on the connection is
// the answer; a mismatched ID means the stream is broken. The returned
// body is valid until the next RoundTrip.
func (c *Conn) RoundTrip(t MsgType, payload []byte, timeout time.Duration) (MsgType, []byte, error) {
	c.next++
	out, err := AppendFrameID(c.buf[:0], t, c.next, payload)
	if err != nil {
		return 0, nil, err
	}
	c.buf = out
	_ = c.conn.SetDeadline(time.Now().Add(timeout))
	if _, err := c.conn.Write(out); err != nil {
		return 0, nil, fmt.Errorf("wire: write: %w", err)
	}
	rt, id, body, err := c.rd.Next(c.replyBuf)
	if err != nil {
		return 0, nil, fmt.Errorf("wire: read: %w", err)
	}
	if id != c.next {
		return 0, nil, fmt.Errorf("wire: reply id %d, want %d", id, c.next)
	}
	return rt, body, nil
}
