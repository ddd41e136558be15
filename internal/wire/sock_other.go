//go:build !linux || race

package wire

import "net"

// raw returns conn: outside Linux, and in a race build, every connection
// reads and writes through the net package (sock_linux.go has the
// raw-syscall socket).
func raw(conn net.Conn) net.Conn { return conn }
