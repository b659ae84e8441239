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
	"matchmake/internal/hashlocate"
	"matchmake/internal/rendezvous"
	"matchmake/internal/sim"
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
	// pair agrees on a backup address and recovers.
	net2, err := sim.New(topology.Complete(n))
	if err != nil {
		return err
	}
	defer net2.Close()
	hs, err := hashlocate.New(net2, hashlocate.Options{MaxRehash: 2})
	if err != nil {
		return err
	}
	primary := hs.Rendezvous("ledger", 0)
	srv := graph.NodeID(0)
	for srv == primary[0] {
		srv++
	}
	if _, err := hs.Post("ledger", srv); err != nil {
		return err
	}
	fmt.Printf("\nhash locate: rendezvous of %q is node %v\n", "ledger", primary)
	if err := net2.Crash(primary[0]); err != nil {
		return err
	}
	// The server polls its rendezvous, notices the crash, re-posts (the
	// post rehashes onto the backup address).
	if _, err := hs.Post("ledger", srv); err != nil {
		return err
	}
	res, err := hs.Locate(20, "ledger")
	if err != nil {
		return err
	}
	fmt.Printf("after crash + rehash: located at node %d (rehash attempts: %d)\n",
		res.Addr, res.Rehashes)
	return nil
}
