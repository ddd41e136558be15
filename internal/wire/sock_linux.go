//go:build linux && !race

// The Linux socket path (DESIGN.md §7): a TCP connection's reads and
// writes as raw syscalls on its non-blocking fd, which skip the
// runtime's entersyscall and so never wake its sysmon thread; an EAGAIN
// parks the goroutine on the poller, so deadlines and Close still work.
// A race build reads and writes through the net package instead
// (sock_other.go): the race detector sees the kernel's writes into a
// Reader's buffer only through the runtime's own syscalls.
package wire

import (
	"io"
	"net"
	"os"
	"syscall"
	"unsafe"
)

// rawSock is a *net.TCPConn whose Read and Write are raw syscalls. Each
// direction keeps its call in a sockOp whose callback is bound once, so
// neither allocates; one Read and one Write may run at once, never two
// of either (a Reader and a Writer's flusher are each one at a time).
type rawSock struct {
	*net.TCPConn
	rc     syscall.RawConn
	rd, wr sockOp
}

// sockOp is one direction's call in flight.
type sockOp struct {
	trap  uintptr // SYS_READ or SYS_WRITE
	p     []byte  // what is left to read into or write
	n     int
	errno syscall.Errno
	call  func(fd uintptr) bool
}

// raw returns conn's raw-syscall socket when conn is a TCP connection,
// and conn itself otherwise.
func raw(conn net.Conn) net.Conn {
	tc, ok := conn.(*net.TCPConn)
	if !ok {
		return conn
	}
	rc, err := tc.SyscallConn()
	if err != nil {
		return conn
	}
	s := &rawSock{TCPConn: tc, rc: rc, rd: sockOp{trap: syscall.SYS_READ}, wr: sockOp{trap: syscall.SYS_WRITE}}
	s.rd.call, s.wr.call = s.rd.do, s.wr.do
	return s
}

func (s *rawSock) Read(p []byte) (int, error) {
	if len(p) == 0 {
		return 0, nil
	}
	s.rd.p, s.rd.n, s.rd.errno = p, 0, 0
	n, err := s.done(&s.rd, "read", s.rc.Read(s.rd.call))
	if err == nil && n == 0 {
		return 0, io.EOF
	}
	return n, err
}

func (s *rawSock) Write(p []byte) (int, error) {
	s.wr.p, s.wr.n, s.wr.errno = p, 0, 0
	return s.done(&s.wr, "write", s.rc.Write(s.wr.call))
}

// done ends o's call: an errno, or the poller's error (a deadline, a
// Close), is wrapped as the net package wraps its own, in a *net.OpError
// naming op — around an os.SyscallError for an errno.
func (s *rawSock) done(o *sockOp, op string, err error) (int, error) {
	o.p = nil
	if o.errno != 0 {
		err = os.NewSyscallError(op, o.errno)
	} else if oe, ok := err.(*net.OpError); ok {
		err = oe.Err // RawConn's "raw-read" or "raw-write"
	}
	if err != nil {
		err = &net.OpError{Op: op, Net: s.LocalAddr().Network(), Source: s.LocalAddr(), Addr: s.RemoteAddr(), Err: err}
	}
	return o.n, err
}

// do is the RawConn callback: one read(2), or write(2)s until o.p is
// written. false, on EAGAIN, parks the caller on the poller.
func (o *sockOp) do(fd uintptr) bool {
	for len(o.p) > 0 {
		n, _, e := syscall.RawSyscall(o.trap, fd, uintptr(unsafe.Pointer(&o.p[0])), uintptr(len(o.p)))
		switch e {
		case syscall.EINTR:
		case syscall.EAGAIN:
			return false
		case 0:
			o.n, o.p = o.n+int(n), o.p[n:]
			if o.trap == syscall.SYS_READ {
				return true // 0 bytes is the peer's EOF
			}
		default:
			o.errno = e
			return true
		}
	}
	return true
}
