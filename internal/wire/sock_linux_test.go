//go:build linux && !race

package wire

import (
	"net"
	"testing"
)

// TestRawTakesTCPConnsOnly: a TCP connection gets the raw-syscall socket
// in every reader and writer of the package, past the handshake in Conn
// too; any other net.Conn is used as it is.
func TestRawTakesTCPConnsOnly(t *testing.T) {
	a, _ := tcpPair(t)
	if _, ok := raw(a).(*rawSock); !ok {
		t.Fatalf("raw(%T) is %T, want *rawSock", a, raw(a))
	}
	if _, ok := NewWriter(a, nil).conn.(*rawSock); !ok {
		t.Fatal("NewWriter on a TCP connection does not write through rawSock")
	}
	p, q := net.Pipe()
	defer p.Close()
	defer q.Close()
	if raw(p) != p {
		t.Fatalf("raw(%T) is %T, want the pipe itself", p, raw(p))
	}
	if s := raw(a); raw(s) != s {
		t.Fatal("raw wraps a rawSock twice")
	}
}
