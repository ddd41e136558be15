package wire

import (
	"bytes"
	"errors"
	"io"
	"net"
	"os"
	"testing"
	"time"

	"dmap/internal/trace"
)

// The socket tests run over a real loopback TCP pair (tcpPair), through
// raw: on Linux the raw-syscall socket (sock_linux.go), elsewhere the
// net package. The Reader and Writer tests elsewhere in the package wrap
// their source, so they take the net.Conn path.

// readFrames reads rd to its end, copying every payload out of a view.
func readFrames(rd *Reader, get func(MsgType, int) []byte) ([]frameRec, error) {
	var out []frameRec
	for {
		t, id, p, err := rd.Next(get)
		if err != nil {
			return out, err
		}
		out = append(out, frameRec{t, id, append([]byte(nil), p...)})
	}
}

// TestSocketFramesMatchNetConn: the frames a Reader reads off a socket
// are the frames ReadFrameIDInto reads off the same bytes, whether they
// were sent with one socket Write of the whole stream or frame by frame
// through a Writer, read as copies or as views.
func TestSocketFramesMatchNetConn(t *testing.T) {
	stream := mixedStream(t)
	want, wantErr := readAllRef(stream)
	if wantErr != io.EOF {
		t.Fatalf("reference read: %v", wantErr)
	}
	senders := map[string]func(net.Conn) error{
		"write": func(c net.Conn) error {
			_, err := raw(c).Write(stream)
			return err
		},
		"writer": func(c net.Conn) error {
			w := NewWriter(c, nil)
			for i, f := range want {
				if err := w.Enqueue(f.t, f.id, trace.Context{}, f.payload); err != nil {
					return err
				}
				if i%100 == 0 {
					if err := w.Flush(); err != nil {
						return err
					}
				}
			}
			return w.Flush()
		},
	}
	for name, send := range senders {
		for mode, get := range sources {
			a, b := tcpPair(t)
			sent := make(chan error, 1)
			go func() {
				err := send(a)
				a.Close()
				sent <- err
			}()
			got, gotErr := readFrames(NewReader(b), get)
			if err := <-sent; err != nil {
				t.Fatalf("%s: send: %v", name, err)
			}
			assertSameFrames(t, name+"/"+mode, got, gotErr, want, wantErr)
		}
	}
}

// TestSocketWriteOutlastsSocketBuffers: a Write far larger than both
// socket buffers parks on EAGAIN while the peer does not read, and
// completes, every byte in order, once it does.
func TestSocketWriteOutlastsSocketBuffers(t *testing.T) {
	a, b := tcpPair(t)
	_ = a.(*net.TCPConn).SetWriteBuffer(64 << 10)
	_ = b.(*net.TCPConn).SetReadBuffer(64 << 10)
	msg := patterned(8<<20, 0x5a)
	type res struct {
		n   int
		err error
	}
	done := make(chan res, 1)
	go func() {
		n, err := raw(a).Write(msg)
		done <- res{n, err}
	}()
	select {
	case r := <-done:
		t.Fatalf("an 8 MiB Write returned (%d, %v) before the peer read a byte", r.n, r.err)
	case <-time.After(50 * time.Millisecond):
	}
	got := make([]byte, len(msg))
	rb := raw(b)
	for off := 0; off < len(got); {
		n, err := rb.Read(got[off:min(off+16<<10, len(got))])
		if err != nil {
			t.Fatalf("read at %d: %v", off, err)
		}
		off += n
	}
	if r := <-done; r.n != len(msg) || r.err != nil {
		t.Fatalf("Write = (%d, %v), want (%d, nil)", r.n, r.err, len(msg))
	}
	if !bytes.Equal(got, msg) {
		t.Fatal("the bytes read differ from the bytes written")
	}
}

// isTimeout reports whether err is a deadline error as the net package
// reports one.
func isTimeout(err error) bool {
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout() && errors.Is(err, os.ErrDeadlineExceeded)
}

// TestSocketDeadlines: an expired deadline fails a Write the peer does
// not drain and a Next with nothing to read, with the error the net
// package gives: a timeout, os.ErrDeadlineExceeded, inside a *net.OpError
// that names the operation.
func TestSocketDeadlines(t *testing.T) {
	a, _ := tcpPair(t)
	_ = a.SetWriteDeadline(time.Now().Add(20 * time.Millisecond))
	_, err := raw(a).Write(make([]byte, 32<<20))
	var oe *net.OpError
	if !isTimeout(err) || !errors.As(err, &oe) || oe.Op != "write" {
		t.Fatalf("write past its deadline: %v (%T), want a write timeout", err, err)
	}

	_, b := tcpPair(t)
	_ = b.SetReadDeadline(time.Now().Add(20 * time.Millisecond))
	_, _, _, err = NewReader(b).Next(viewBuf)
	if !isTimeout(err) || !errors.As(err, &oe) || oe.Op != "read" {
		t.Fatalf("Next past its deadline: %v (%T), want a read timeout", err, err)
	}

	// Through a Writer: SetTimeout's deadline fails the flush, and the
	// error is sticky.
	c, _ := tcpPair(t)
	w := NewWriter(c, nil)
	w.SetTimeout(20 * time.Millisecond)
	big := patterned(MaxBatchFrame, 1)
	for err = nil; err == nil; {
		err = w.WriteFrameID(MsgBatchInsert, 1, big) // fills both socket buffers, then times out
	}
	if !isTimeout(err) || !isTimeout(w.Err()) {
		t.Fatalf("Writer past its deadline: %v, then Err = %v, want the timeout twice", err, w.Err())
	}
}

// TestSocketCloseUnblocksNext: Close from another goroutine ends a Next
// parked on an idle connection with net.ErrClosed.
func TestSocketCloseUnblocksNext(t *testing.T) {
	_, b := tcpPair(t)
	rd := NewReader(b)
	timer := time.AfterFunc(20*time.Millisecond, func() { b.Close() })
	defer timer.Stop()
	if _, _, _, err := rd.Next(viewBuf); !errors.Is(err, net.ErrClosed) {
		t.Fatalf("Next on a closed socket: %v, want net.ErrClosed", err)
	}
}

// TestSocketPeerClose: a peer that closes between frames ends the
// stream with io.EOF, bare as the net package returns it; one that
// closes inside a frame's header or payload with io.ErrUnexpectedEOF.
func TestSocketPeerClose(t *testing.T) {
	frame := mustFrame(t, nil, MsgLookup, 7, patterned(20, 9))
	for _, c := range []struct {
		name string
		sent []byte
		want error
	}{
		{"between frames", frame, io.EOF},
		{"in a header", frame[:FrameIDHeaderLen-3], io.ErrUnexpectedEOF},
		{"in a payload", frame[:len(frame)-5], io.ErrUnexpectedEOF},
	} {
		a, b := tcpPair(t)
		if _, err := raw(a).Write(c.sent); err != nil {
			t.Fatal(err)
		}
		a.Close()
		got, err := readFrames(NewReader(b), freshBuf)
		if err != c.want {
			t.Fatalf("%s: ended with %v, want %v", c.name, err, c.want)
		}
		if c.want == io.EOF && len(got) != 1 {
			t.Fatalf("%s: %d frames, want 1", c.name, len(got))
		}
	}
	a, b := tcpPair(t)
	a.Close()
	if n, err := raw(b).Read(make([]byte, 8)); n != 0 || err != io.EOF {
		t.Fatalf("Read after the peer closed = (%d, %v), want (0, io.EOF)", n, err)
	}
}

// TestSocketZeroAlloc: a socket Read and a socket Write allocate
// nothing.
func TestSocketZeroAlloc(t *testing.T) {
	a, b := tcpPair(t)
	ra, rb := raw(a), raw(b)
	const runs = 200
	msg, buf := patterned(20, 4), make([]byte, 20)
	if allocs := testing.AllocsPerRun(runs, func() {
		if _, err := ra.Write(msg); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("Write allocs/op = %v, want 0", allocs)
	}
	// AllocsPerRun adds a warm-up call: runs+1 messages wait in b.
	if allocs := testing.AllocsPerRun(runs, func() {
		if _, err := io.ReadFull(rb, buf); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("Read allocs/op = %v, want 0", allocs)
	}
}
