// Package experiments contains one driver per table and figure of the
// paper's evaluation (§IV–§V), plus the ablations listed in DESIGN.md.
// Each driver returns a typed result whose String method prints the same
// rows or series the paper reports; cmd/dmapsim and the repository
// benchmarks are thin wrappers around this package.
package experiments

import (
	"fmt"

	"dmap/internal/prefixtable"
	"dmap/internal/topology"
)

// World bundles the generated environment shared by all experiments: the
// AS-level topology and the announced-prefix table (the substitutes for
// the DIMES and APNIC datasets).
type World struct {
	Graph *topology.Graph
	Table *prefixtable.Table
}

// WorldConfig sizes a world. The zero value is invalid; FullScale and
// TestScale are the sizes there are.
type WorldConfig struct {
	numAS       int
	numLinks    int
	numPrefixes int
	seed        int64
}

// FullScale reproduces the paper's environment: 26,424 ASs, 90,267
// links, ≈330k prefixes spanning ≈52% of the IPv4 space.
func FullScale(seed int64) WorldConfig {
	return WorldConfig{
		numAS:       26424,
		numLinks:    90267,
		numPrefixes: 330000,
		seed:        seed,
	}
}

// TestScale shrinks the world for unit tests and quick runs while keeping
// every distributional parameter.
func TestScale(numAS int, seed int64) WorldConfig {
	return WorldConfig{
		numAS:       numAS,
		numLinks:    int(float64(numAS) * 3.42),
		numPrefixes: numAS * 12,
		seed:        seed,
	}
}

// NewWorld generates a world.
func NewWorld(cfg WorldConfig) (*World, error) {
	g, err := topology.Generate(topology.GenConfig{NumAS: cfg.numAS, TargetLinks: cfg.numLinks, Seed: cfg.seed})
	if err != nil {
		return nil, fmt.Errorf("experiments: topology: %w", err)
	}
	tbl, err := prefixtable.Generate(prefixtable.GenConfig{
		NumAS:       cfg.numAS,
		NumPrefixes: cfg.numPrefixes,
		Seed:        cfg.seed + 1,
	})
	if err != nil {
		return nil, fmt.Errorf("experiments: prefix table: %w", err)
	}
	return &World{Graph: g, Table: tbl}, nil
}

// NumAS returns the AS count.
func (w *World) NumAS() int { return w.Graph.NumAS() }

// announcedShares returns each AS's share of the announced address
// space: an AS announcing x% of all announced addresses should host x%
// of all replicas and serve x% of all queries, the fair share every
// Normalized Load Ratio divides by.
func (w *World) announcedShares() map[int]float64 {
	announced := w.Table.AnnouncedFraction()
	shares := w.Table.ShareByAS()
	for as, s := range shares {
		shares[as] = s / announced
	}
	return shares
}
