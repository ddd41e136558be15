// Mobility: the paper's motivating scenario (§I) — a voice call to a
// vehicle that changes network attachment points mid-session.
//
// The example runs the shipped client over the simulated link
// (internal/nodesim), each update and query a simnet process, so the
// race the paper discusses in §III-D2 is actually visible: a query issued
// milliseconds after a handoff can return the previous locator; the
// caller detects the stale version and re-queries.
//
// Run with: go run ./examples/mobility
package main

import (
	"fmt"
	"log"

	"dmap/internal/core"
	"dmap/internal/guid"
	"dmap/internal/netaddr"
	"dmap/internal/nodesim"
	"dmap/internal/prefixtable"
	"dmap/internal/simnet"
	"dmap/internal/store"
	"dmap/internal/topology"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	const numAS = 800
	const callerAS = 700

	graph, err := topology.Generate(topology.SmallGenConfig(numAS, 7))
	if err != nil {
		return err
	}
	table, err := prefixtable.Generate(prefixtable.GenConfig{
		NumAS: numAS, NumPrefixes: 9000, Seed: 7,
	})
	if err != nil {
		return err
	}
	resolver, err := core.NewResolver(guid.MustHasher(5, 0), table, 0)
	if err != nil {
		return err
	}
	nodes, err := nodesim.NewNodes(resolver, numAS, true)
	if err != nil {
		return err
	}
	cache, err := topology.NewDistCache(graph, 128)
	if err != nil {
		return err
	}
	dep, err := nodesim.NewDeployment(nodes, cache)
	if err != nil {
		return err
	}
	sim := dep.Sim()

	vehicle := guid.New("vehicle-7f3a")
	// The vehicle's drive: a new AS every 30 simulated seconds.
	route := []int{12, 145, 301, 478, 622}
	fmt.Println("vehicle route (AS, attach time):")
	for i, as := range route {
		at := simnet.Time(i) * 30_000_000 // 30 s apart
		version := uint64(i + 1)
		attachAS := as
		entry := store.Entry{
			GUID:    vehicle,
			NAs:     []store.NA{{AS: attachAS, Addr: netaddr.AddrFromOctets(10, byte(i), 0, 1)}},
			Version: version,
		}
		if err := dep.Sim().Go(at, func() {
			acks, err := dep.Write(attachAS, entry)
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("  t=%8.1f ms  attached to AS %-4d (update latency %.1f ms, %d replicas)\n",
				float64(sim.Now())/1000, attachAS, float64(sim.Now()-at)/1000, acks)
		}); err != nil {
			return err
		}
	}

	// The caller keeps the session alive by resolving the GUID every 10
	// seconds — including one query fired 2 ms after the third handoff,
	// deliberately racing the update.
	queryTimes := []simnet.Time{
		5_000_000, 35_000_000, 60_002_000, 60_100_000, 95_000_000, 125_000_000,
	}
	fmt.Println("\ncaller lookups (from AS 700):")
	for _, at := range queryTimes {
		at := at
		if err := dep.Sim().Go(at, func() {
			r, err := dep.Read(callerAS, vehicle)
			switch {
			case err != nil:
				log.Fatal(err)
			case !r.Found:
				fmt.Printf("  t=%8.1f ms  NOT FOUND\n", float64(at+r.Latency)/1000)
			default:
				fmt.Printf("  t=%8.1f ms  locator AS %-4d (version %d, %.1f ms, served by AS %d)\n",
					float64(at+r.Latency)/1000, r.Entry.NAs[0].AS, r.Entry.Version,
					float64(r.Latency)/1000, r.ServedBy)
			}
		}); err != nil {
			return err
		}
	}

	sim.Run(0)

	fmt.Println("\nnote: the t≈60002 ms lookup races the third handoff's update through")
	fmt.Println("the network — depending on which message reaches the replica first it")
	fmt.Println("returns the old or the new locator (§III-D2). The version number is")
	fmt.Println("how a caller detects a stale answer: it marks the mapping obsolete")
	fmt.Println("and re-queries, as the follow-up at t≈60100 ms does.")
	return nil
}
