//go:build linux

// The log's append on Linux (DESIGN.md §7): the one write(2) a commit
// makes goes out as a raw syscall on the segment's fd, which skips the
// runtime's entersyscall, so a burst neither wakes sysmon nor hands the
// node's P to another thread. Every other file call — the FsyncAlways
// and interval fsyncs, a segment's truncate and header, the cut-back of
// a failed write, the compactor's images — goes through os.File and
// keeps handing the P on, since each can block for long. Unlike wire's
// raw socket reads, a race build takes this path too: write(2) only
// reads the log's scratch buffer, and every Go access to that buffer is
// under wal.mu, where the race detector sees it.
package store

import (
	"os"
	"syscall"
	"unsafe"
)

// appender is a segment's raw write(2). Its callback is bound once, so a
// commit allocates nothing; commits are serialised by wal.mu, so one
// runs at a time.
type appender struct {
	rc    syscall.RawConn
	p     []byte // what is left to write
	n     int
	errno syscall.Errno
	call  func(fd uintptr) bool
}

// bindAppend binds seg's appender to its freshly opened file. The fd is
// reached through the file's RawConn, never f.Fd(): a closed file's
// RawConn refuses, where a cached fd number could name another file.
func (seg *segment) bindAppend() error {
	rc, err := seg.f.SyscallConn()
	if err != nil {
		return err
	}
	seg.app.rc = rc
	seg.app.call = seg.app.do
	return nil
}

// append writes p to the end of seg, as (*os.File).Write does: all of
// it, or the bytes written before an error, which is an *os.PathError
// around the errno, or around the closed file's error.
func (seg *segment) append(p []byte) (int, error) {
	a := &seg.app
	a.p, a.n, a.errno = p, 0, 0
	err := a.rc.Write(a.call)
	if a.errno != 0 {
		err = a.errno
	}
	if err != nil {
		return a.n, &os.PathError{Op: "write", Path: seg.path, Err: err}
	}
	return a.n, nil
}

// do is the RawConn callback: write(2)s until a.p is written, retrying
// EINTR and continuing a partial write; a regular file never asks to be
// polled, so it always reports done.
func (a *appender) do(fd uintptr) bool {
	for len(a.p) > 0 {
		n, _, e := syscall.RawSyscall(syscall.SYS_WRITE, fd, uintptr(unsafe.Pointer(&a.p[0])), uintptr(len(a.p)))
		switch e {
		case syscall.EINTR:
		case 0:
			a.n, a.p = a.n+int(n), a.p[n:]
		default:
			a.errno = e
			return true
		}
	}
	return true
}
