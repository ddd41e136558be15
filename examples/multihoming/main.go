// Multihoming: Figure 1's laptop with simultaneous WiFi and 3G
// attachments, and named content with several replicas.
//
// One GUID maps to multiple network addresses; correspondents receive the
// full locator set and pick. When the WiFi interface detaches, a
// versioned update shrinks the set without ever touching the GUID.
//
// Run with: go run ./examples/multihoming
package main

import (
	"fmt"
	"log"

	"dmap/internal/core"
	"dmap/internal/guid"
	"dmap/internal/netaddr"
	"dmap/internal/nodesim"
	"dmap/internal/prefixtable"
	"dmap/internal/store"
	"dmap/internal/topology"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	const numAS = 400
	graph, err := topology.Generate(topology.SmallGenConfig(numAS, 3))
	if err != nil {
		return err
	}
	table, err := prefixtable.Generate(prefixtable.GenConfig{
		NumAS: numAS, NumPrefixes: 5000, Seed: 3,
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
	cache, err := topology.NewDistCache(graph, 32)
	if err != nil {
		return err
	}
	dep, err := nodesim.NewDeployment(nodes, cache)
	if err != nil {
		return err
	}

	// Figure 1's laptop: WiFi via AS 44's network, 3G via AS 101's.
	lap := guid.New("LapA")
	const wifiAS, cellAS = 44, 101
	lapEntry := store.Entry{
		GUID: lap,
		NAs: []store.NA{
			{AS: wifiAS, Addr: netaddr.AddrFromOctets(10, 44, 0, 7)},   // NA10
			{AS: cellAS, Addr: netaddr.AddrFromOctets(10, 101, 0, 12)}, // NA12
		},
		Version: 1,
	}
	if _, err := dep.Write(wifiAS, lapEntry); err != nil {
		return err
	}

	// Figure 1's named content, replicated at two hosting networks.
	video := guid.New("VideoB")
	videoEntry := store.Entry{
		GUID: video,
		NAs: []store.NA{
			{AS: 20, Addr: netaddr.AddrFromOctets(10, 20, 0, 1)}, // NA20
			{AS: 99, Addr: netaddr.AddrFromOctets(10, 99, 0, 1)}, // NA99
		},
		Version: 1,
	}
	if _, err := dep.Write(20, videoEntry); err != nil {
		return err
	}

	show := func(name string, g guid.GUID, from int) error {
		r, err := resolve(dep, from, g)
		if err != nil {
			return err
		}
		fmt.Printf("%s resolved from AS %d in %.1f ms → %d locator(s):\n",
			name, from, r.Latency.Millis(), len(r.Entry.NAs))
		for _, na := range r.Entry.NAs {
			fmt.Printf("    AS %-4d %v\n", na.AS, na.Addr)
		}
		return nil
	}

	fmt.Println("== multi-homed laptop (WiFi + 3G) ==")
	if err := show("LapA", lap, 250); err != nil {
		return err
	}

	fmt.Println("\n== replicated named content ==")
	if err := show("VideoB", video, 250); err != nil {
		return err
	}

	// The laptop leaves WiFi coverage: only the 3G locator remains. The
	// identifier — and every session bound to it — survives.
	fmt.Println("\n== WiFi detaches (version 2) ==")
	lapEntry.NAs = lapEntry.NAs[1:]
	lapEntry.Version = 2
	if _, err := dep.Write(cellAS, lapEntry); err != nil {
		return err
	}
	if err := show("LapA", lap, 250); err != nil {
		return err
	}

	// A correspondent inside the laptop's own 3G network benefits from
	// the §III-C local replica.
	fmt.Println("\n== lookup from the laptop's own AS (local replica) ==")
	r, err := resolve(dep, cellAS, lap)
	if err != nil {
		return err
	}
	fmt.Printf("LapA resolved in %.2f ms (local replica: %v, served by AS %d)\n",
		r.Latency.Millis(), r.UsedLocal, r.ServedBy)
	return nil
}

// resolve looks g up from AS from with the shipped client, the
// simulation running until the answer is in.
func resolve(dep *nodesim.Deployment, from int, g guid.GUID) (nodesim.LookupResult, error) {
	r, err := dep.Read(from, g)
	if err == nil && !r.Found {
		err = fmt.Errorf("GUID %s not found from AS %d", g.Short(), from)
	}
	return r, err
}
