package core_test

import (
	"fmt"

	"dmap/internal/core"
	"dmap/internal/guid"
	"dmap/internal/netaddr"
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
	sys, _ := core.NewSystem(core.SystemConfig{Resolver: resolver, NumAS: 3})

	// A phone registers its GUID→NA mapping.
	g := guid.New("phone-42")
	_, _ = sys.Insert(store.Entry{
		GUID:    g,
		NAs:     []store.NA{{AS: 1, Addr: netaddr.AddrFromOctets(10, 1, 2, 3)}},
		Version: 1,
	}, 1)

	// Anyone derives the hosting ASs with local computation alone; one
	// overlay hop to any of them returns the locators.
	placements, _ := resolver.Place(g)
	st, _ := sys.Store(placements[0].AS)
	entry, _ := st.Get(g)
	fmt.Printf("%d replicas; replica 0 at AS %d holds locator AS %d\n",
		len(placements), placements[0].AS, entry.NAs[0].AS)
	// Output: 3 replicas; replica 0 at AS 2 holds locator AS 1
}
