//go:build !race

package nodesim

const raceEnabled = false
