package server

import (
	"os"
	"testing"

	"dmap/internal/wire"
)

// TestMain lets scripts/check.sh run the package with buffer poisoning
// on (DMAP_POISON_BUFS=1): every serverBufs.Put scribbles over the
// released buffer. The read loop answers lookups where it read them and
// recycles each request and reply buffer before it parses the next
// frame; a reply that aliased one of them, or a request still read after
// its release, comes out corrupt under load instead of flaking.
func TestMain(m *testing.M) {
	if os.Getenv("DMAP_POISON_BUFS") == "1" {
		wire.Poison = true
	}
	os.Exit(m.Run())
}
