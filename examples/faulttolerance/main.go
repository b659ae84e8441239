// Faulttolerance: the §2.4 robustness criteria in action. A service is
// registered under the f+1-redundant checkerboard, rendezvous nodes are
// crashed one by one, and locates keep succeeding until the whole
// rendezvous set is gone — while unreplicated Hash Locate (§5) loses the
// service to a single well-placed crash, and recovers only by rehashing.
package main

import (
	"fmt"
	"log"

	"matchmake/internal/cluster"
	"matchmake/internal/graph"
	"matchmake/internal/rendezvous"
	"matchmake/internal/strategy"
	"matchmake/internal/topology"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	const (
		n = 64
		r = 3 // tolerate f = 2 crashed rendezvous nodes
	)
	strat := rendezvous.RedundantCheckerboard(n, r)
	tr, err := cluster.NewSimTransport(topology.Complete(n), strat)
	if err != nil {
		return err
	}
	defer tr.Close()

	server := graph.NodeID(9)
	client := graph.NodeID(54)
	if _, err := tr.Register("ledger", server); err != nil {
		return err
	}
	meet := rendezvous.Intersect(strat.Post(server), strat.Query(client))
	fmt.Printf("redundant rendezvous set for (server %d, client %d): %v (r = %d)\n",
		server, client, meet, r)

	for i, victim := range meet {
		e, err := tr.Locate(client, "ledger")
		if err != nil {
			fmt.Printf("with %d/%d rendezvous crashed: locate FAILED (%v)\n", i, r, err)
			break
		}
		fmt.Printf("with %d/%d rendezvous crashed: located at node %d\n", i, r, e.Addr)
		if err := tr.Crash(victim); err != nil {
			return err
		}
	}
	if _, err := tr.Locate(client, "ledger"); err != nil {
		fmt.Printf("all %d rendezvous crashed: locate fails, as §2.4 predicts\n", r)
	}

	// Hash Locate on a fresh network: one crash on the single rendezvous
	// node removes the service network-wide; a rehashing client/server
	// pair agrees on a backup address and recovers. The server posts to
	// every rehash attempt's address up front, and a client tries them in
	// order.
	const attempts = 3
	lay, err := cluster.FixedLayout(n, rendezvous.Central(n, 0), attempts)
	if err != nil {
		return err
	}
	lay.Hash = 1
	hs, err := cluster.NewLayoutSimTransport(topology.Complete(n), lay)
	if err != nil {
		return err
	}
	defer hs.Close()
	primary := strategy.HashSet("ledger", 0, 1, n)
	srv := graph.NodeID(0)
	for srv == primary[0] {
		srv++
	}
	if _, err := hs.Register("ledger", srv); err != nil {
		return err
	}
	fmt.Printf("\nhash locate: rendezvous of %q is node %v\n", "ledger", primary)
	if err := hs.Crash(primary[0]); err != nil {
		return err
	}
	for k := range attempts {
		if e, err := hs.LocateReplica(20, "ledger", k); err == nil {
			fmt.Printf("after crash + rehash: located at node %d (rehash attempts: %d)\n", e.Addr, k)
			return nil
		}
	}
	return fmt.Errorf("ledger lost on every rehash attempt")
}
