// Quickstart: run a truly distributed name server (the paper's
// checkerboard construction) on a 64-node complete network, register a
// service, and locate it from a few clients — the minimal end-to-end use
// of the library.
package main

import (
	"fmt"
	"log"
	"math"

	"matchmake/internal/cluster"
	"matchmake/internal/graph"
	"matchmake/internal/rendezvous"
	"matchmake/internal/topology"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	const n = 64
	// 1. A network: 64 processors, fully connected (the paper's
	// topology-free setting).
	// 2. A strategy: the truly distributed checkerboard — every node
	// serves as rendezvous for an equal share of (server, client) pairs
	// and a match costs about 2√n messages.
	strat := rendezvous.Checkerboard(n)
	tr, err := cluster.NewSimTransport(topology.Complete(n), strat)
	if err != nil {
		return err
	}
	defer tr.Close()

	// 3. A server announces itself: (port, address) is posted at P(addr).
	server, err := tr.Register("catering", 17)
	if err != nil {
		return err
	}
	fmt.Printf("registered %q at node %d; posts went to %v\n",
		server.Port(), server.Node(), strat.Post(server.Node()))

	// 4. Clients locate the service by querying Q(client).
	for _, client := range []graph.NodeID{3, 30, 60} {
		before := tr.Hops()
		e, err := tr.Locate(client, "catering")
		if err != nil {
			return err
		}
		fmt.Printf("client %-2d found it at node %d  (queried %d nodes, %d hops; 2√n = %.0f)\n",
			client, e.Addr, len(strat.Query(client)), tr.Hops()-before, 2*math.Sqrt(n))
	}

	// 5. The server migrates; fresh postings supersede the stale address
	// by timestamp.
	if err := server.Migrate(42); err != nil {
		return err
	}
	e, err := tr.Locate(3, "catering")
	if err != nil {
		return err
	}
	fmt.Printf("after migration, client 3 found it at node %d\n", e.Addr)
	return nil
}
