// Cluster: DMap over real TCP — three mapping nodes on loopback, a
// client that derives placements locally, and a node failure handled by
// replica fallback (§III-D3).
//
// This is the deployable path (internal/server + internal/client), the
// in-repo stand-in for the paper's GENI prototype.
//
// Run with: go run ./examples/cluster
package main

import (
	"fmt"
	"log"

	"dmap/internal/client"
	"dmap/internal/core"
	"dmap/internal/guid"
	"dmap/internal/netaddr"
	"dmap/internal/prefixtable"
	"dmap/internal/server"
	"dmap/internal/store"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	const numAS = 6
	const k = 3

	// Every participant — nodes and clients — shares the same prefix
	// table and hash family; that shared view is what lets any client
	// compute placements with zero directory round trips.
	table, err := prefixtable.Generate(prefixtable.GenConfig{
		NumAS: numAS, NumPrefixes: 64, Seed: 11,
	})
	if err != nil {
		return err
	}
	resolver, err := core.NewResolver(guid.MustHasher(k, 0), table, 0)
	if err != nil {
		return err
	}

	nodes := make([]*server.Node, numAS)
	addrs := make(map[int]string, numAS)
	for as := range nodes {
		nodes[as] = server.NewWithOptions(nil, server.Options{})
		bound, err := nodes[as].Start("127.0.0.1:0")
		if err != nil {
			return err
		}
		addrs[as] = bound
		defer nodes[as].Close()
		fmt.Printf("AS %d mapping node at %s\n", as, bound)
	}

	c, err := client.NewWithConfig(resolver, addrs, client.Config{})
	if err != nil {
		return err
	}
	defer c.Close()

	// Register a service under a self-certifying name.
	svc := guid.New("service:video-transcoder")
	entry := store.Entry{
		GUID:    svc,
		NAs:     []store.NA{{AS: 2, Addr: netaddr.AddrFromOctets(192, 0, 2, 10)}},
		Version: 1,
	}
	acks, err := c.Insert(entry)
	if err != nil {
		return err
	}
	placements, err := resolver.Place(svc)
	if err != nil {
		return err
	}
	fmt.Printf("\ninserted %s… (%d/%d replicas acked) — replicas at ASs:", svc.Short(), acks, k)
	for _, p := range placements {
		fmt.Printf(" %d", p.AS)
	}
	fmt.Println()

	got, err := c.Lookup(svc)
	if err != nil {
		return err
	}
	fmt.Printf("lookup → AS %d / %v (version %d)\n", got.NAs[0].AS, got.NAs[0].Addr, got.Version)

	// Kill the first replica's node; the client falls through to the
	// next replica without any reconfiguration.
	victim := placements[0].AS
	fmt.Printf("\nkilling the node of AS %d (first replica)...\n", victim)
	nodes[victim].Close()

	got, err = c.Lookup(svc)
	if err != nil {
		return err
	}
	fmt.Printf("lookup still succeeds → AS %d / %v\n", got.NAs[0].AS, got.NAs[0].Addr)

	// Clean up the registration on the surviving replicas.
	removed, err := c.Delete(svc)
	if err != nil {
		return err
	}
	fmt.Printf("deleted from %d surviving replicas\n", removed)
	return nil
}
