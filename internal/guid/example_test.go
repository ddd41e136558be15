package guid_test

import (
	"fmt"

	"dmap/internal/guid"
)

// Example shows self-certifying identifier derivation and the K-hash
// family every router shares.
func Example() {
	g := guid.New("content:launch-video")
	fmt.Println("verifies:", guid.Verify("content:launch-video", g))
	fmt.Println("forged:  ", guid.Verify("content:other", g))

	// The same GUID always hashes to the same K network addresses, on
	// every router, with no coordination.
	h := guid.MustHasher(3, 0)
	a := h.AppendAll(nil, g)
	b := h.AppendAll(nil, g)
	fmt.Println("replicas agree:", a[0] == b[0] && a[1] == b[1] && a[2] == b[2])
	// Output:
	// verifies: true
	// forged:   false
	// replicas agree: true
}
