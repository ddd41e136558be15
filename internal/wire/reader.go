// Reader: the read half of a v2 connection, one per connection.
//
// Handing the bare net.Conn to ReadFrameIDInto costs two read(2)s per
// frame (header, then payload). Reader parses identified frames out of
// a fixed connection-owned buffer instead, so one read(2) serves the
// whole burst of frames the peer pipelined, and it asks for the payload
// buffer only once a header is parsed — a connection blocked waiting for
// its next frame holds no pooled buffer.
//
// Ownership (DESIGN.md §9): the buffer is the Reader's. A payload is
// copied into storage the caller owns, which no later Next invalidates,
// unless the caller asks for a view: the payload in place in the buffer,
// valid until the next Next.
package wire

import (
	"bufio"
	"io"
	"net"
)

// readerBufSize is the per-connection read buffer. Single-op frames
// (tens of bytes) parse from it by the hundred per read; a payload at
// least this large — batch frames only, it equals MaxFrame — is read
// straight into the caller's storage instead of through it.
const readerBufSize = 16 * 1024

// Reader reads identified (v2) frames from one connection. It is not
// safe for concurrent use: a connection has one reading goroutine.
type Reader struct {
	br *bufio.Reader
}

// NewReader returns a Reader over r. Bytes it has buffered are lost to
// any other reader of r, so create it only once the connection speaks
// identified frames and route every later read through it. A TCP
// connection is read with raw read(2)s (sock_linux.go).
func NewReader(r io.Reader) *Reader {
	if conn, ok := r.(net.Conn); ok {
		r = raw(conn)
	}
	return &Reader{br: bufio.NewReaderSize(r, readerBufSize)}
}

// Buffered reports, without reading, whether Next will return without
// reading from the connection: a whole frame is in the buffer, or a
// header whose length Next will refuse. A loop that answers a burst into
// a corked Writer asks it when to flush — before a Next that may block.
func (rd *Reader) Buffered() bool {
	have := rd.br.Buffered()
	if have < FrameIDHeaderLen {
		return false
	}
	hdr, _ := rd.br.Peek(FrameIDHeaderLen) // buffered: no read, no error
	_, _, n, err := parseFrameIDHeader(hdr)
	return err != nil || have >= FrameIDHeaderLen+n
}

// Next reads one identified frame under ReadFrameIDInto's contract: the
// length is checked against MaxPayload before anything is sized by it,
// and errors are the ones ReadFrameIDInto reports on the same stream.
// get is called once per frame, after the header is validated, with its
// type and payload length. The payload is copied into the buffer get
// returns (grown only if too small), the caller's to keep; nil asks for
// a view, valid until the next Next, unless the payload is larger than
// the buffer and so is copied into storage of its own.
func (rd *Reader) Next(get func(t MsgType, n int) []byte) (MsgType, uint64, []byte, error) {
	hdr, err := rd.br.Peek(FrameIDHeaderLen)
	if err != nil {
		if err == io.EOF && len(hdr) > 0 {
			err = io.ErrUnexpectedEOF // the stream ended inside a header
		}
		return 0, 0, nil, err
	}
	t, id, n, err := parseFrameIDHeader(hdr)
	if err != nil {
		return 0, 0, nil, err
	}
	_, _ = rd.br.Discard(FrameIDHeaderLen) // cannot fail: Peek buffered it
	payload := get(t, n)
	if payload != nil || n > readerBufSize {
		payload = grow(payload, n)
		_, err = io.ReadFull(rd.br, payload)
	} else if payload, err = rd.br.Peek(n); err == nil {
		_, _ = rd.br.Discard(n) // a view: the bytes stay put until the next read
	} else if err == io.EOF && len(payload) > 0 {
		err = io.ErrUnexpectedEOF // the stream ended inside the payload
	}
	if err != nil {
		return 0, 0, nil, err
	}
	return t, id, payload, nil
}
