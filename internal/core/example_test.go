package core_test

import (
	"fmt"

	"dmap/internal/core"
	"dmap/internal/guid"
	"dmap/internal/netaddr"
	"dmap/internal/nodesim"
	"dmap/internal/prefixtable"
	"dmap/internal/store"
)

// Example shows the DMap placement flow: build the substrate, place a
// mapping at its K hosting ASs, and read it back from one of them.
func Example() {
	// The routing substrate every participant shares: announced
	// prefixes and the agreed hash family.
	table := prefixtable.New()
	_ = table.Announce(netaddr.MustPrefix(netaddr.AddrFromOctets(10, 0, 0, 0), 8), 1)
	_ = table.Announce(netaddr.MustPrefix(netaddr.AddrFromOctets(128, 0, 0, 0), 1), 2)

	resolver, _ := core.NewResolver(guid.MustHasher(3, 0), table, 0)
	nodes, _ := nodesim.NewNodes(resolver, 3, false) // a mapping node per AS

	// A phone's GUID→NA mapping, stored at its K hosting ASs.
	g := guid.New("phone-42")
	_ = nodes.Preload(store.Entry{
		GUID:    g,
		NAs:     []store.NA{{AS: 1, Addr: netaddr.AddrFromOctets(10, 1, 2, 3)}},
		Version: 1,
	})

	// Anyone derives the hosting ASs with local computation alone; one
	// overlay hop to any of them returns the locators.
	placements, _ := resolver.Place(g)
	node, _ := nodes.Node(placements[0].AS)
	entry, _ := node.Store().Get(g)
	fmt.Printf("%d replicas; replica 0 at AS %d holds locator AS %d\n",
		len(placements), placements[0].AS, entry.NAs[0].AS)
	// Output: 3 replicas; replica 0 at AS 2 holds locator AS 1
}
