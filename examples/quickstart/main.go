// Quickstart: the smallest useful DMap program.
//
// It builds a toy Internet (an AS topology plus a BGP prefix table),
// stands up a DMap system, inserts a GUID→NA mapping for a device, and
// resolves it from another AS — showing the K hosting ASs that the hash
// family derives and the round-trip latency of the closest replica.
//
// Run with: go run ./examples/quickstart
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
	const numAS = 500
	const k = 5

	// 1. The substrate: an AS-level topology and an announced-prefix
	// table (in a real deployment these are the Internet itself and the
	// BGP DFZ table every border router already has).
	graph, err := topology.Generate(topology.SmallGenConfig(numAS, 42))
	if err != nil {
		return err
	}
	table, err := prefixtable.Generate(prefixtable.GenConfig{
		NumAS: numAS, NumPrefixes: 6000, Seed: 42,
	})
	if err != nil {
		return err
	}

	// 2. The DMap system: a shared hash family (agreed among all
	// routers), Algorithm 1 placement, and a mapping node per AS, on a
	// simulated network whose latencies come from the topology.
	resolver, err := core.NewResolver(guid.MustHasher(k, 0), table, 0)
	if err != nil {
		return err
	}
	nodes, err := nodesim.NewNodes(resolver, numAS, true)
	if err != nil {
		return err
	}
	cache, err := topology.NewDistCache(graph, 16)
	if err != nil {
		return err
	}
	dep, err := nodesim.NewDeployment(nodes, cache)
	if err != nil {
		return err
	}

	// 3. A phone attaches to AS 137 and registers its GUID→NA mapping
	// with its AS's client, which writes every replica.
	phone := guid.New("imsi-310-150-123456789")
	const phoneAS = 137
	entry := store.Entry{
		GUID:    phone,
		NAs:     []store.NA{{AS: phoneAS, Addr: netaddr.AddrFromOctets(10, 1, 2, 3)}},
		Version: 1,
	}
	if _, err := dep.Write(phoneAS, entry); err != nil {
		return err
	}
	placements, err := resolver.Place(phone)
	if err != nil {
		return err
	}
	fmt.Printf("GUID %s… hosted at %d ASs:\n", phone.Short(), len(placements))
	for _, p := range placements {
		fmt.Printf("  replica %d → AS %-5d (hashed address %v, %d rehashes)\n",
			p.Replica, p.AS, p.Addr, p.Rehashes)
	}

	// 4. A correspondent in AS 9 resolves the GUID: one overlay hop to
	// the closest replica, as messages over the simulated network.
	got, err := resolve(dep, 9, phone)
	if err != nil {
		return err
	}
	fmt.Printf("\nlookup from AS 9: served by AS %d in %.1f ms (attempt %d)\n",
		got.ServedBy, got.Latency.Millis(), got.Attempts)
	fmt.Printf("locators: ")
	for _, na := range got.Entry.NAs {
		fmt.Printf("AS %d/%v ", na.AS, na.Addr)
	}
	fmt.Println()

	// 5. The phone moves to AS 260; version 2 supersedes everywhere.
	entry.NAs = []store.NA{{AS: 260, Addr: netaddr.AddrFromOctets(172, 16, 9, 1)}}
	entry.Version = 2
	if _, err := dep.Write(260, entry); err != nil {
		return err
	}
	got, err = resolve(dep, 9, phone)
	if err != nil {
		return err
	}
	fmt.Printf("\nafter handoff: locator AS %d, lookup %.1f ms\n",
		got.Entry.NAs[0].AS, got.Latency.Millis())
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
