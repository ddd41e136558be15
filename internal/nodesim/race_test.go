//go:build race

package nodesim

// raceEnabled gates allocation-count assertions: the race detector's
// instrumentation allocates on its own, so exact allocs/op is only
// meaningful in non-race builds, where the same tests assert it.
const raceEnabled = true
