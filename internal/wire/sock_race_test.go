//go:build race

package wire

import "testing"

// TestRawIsConnUnderRace: a race build keeps every connection on the net
// package's reads and writes, which the race detector sees into, so raw
// hands a TCP connection back unchanged.
func TestRawIsConnUnderRace(t *testing.T) {
	a, _ := tcpPair(t)
	if raw(a) != a {
		t.Fatalf("raw(%T) is %T under -race, want the connection itself", a, raw(a))
	}
}
