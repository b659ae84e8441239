// Gridlocate: the §3.1 Manhattan network scenario. A print service on a
// 12×12 grid posts its (port, address) along its row; clients request
// along their columns; the crossing node makes the match in O(p+q)
// message passes. The example then walks the service across the grid
// (process migration) and shows stale addresses losing by timestamp.
package main

import (
	"fmt"
	"log"
	"math"

	"matchmake/internal/cluster"
	"matchmake/internal/graph"
	"matchmake/internal/strategy"
	"matchmake/internal/topology"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	const side = 12
	gr, err := topology.NewGrid(side, side)
	if err != nil {
		return err
	}
	tr, err := cluster.NewSimTransport(gr.G, strategy.Manhattan(gr))
	if err != nil {
		return err
	}
	defer tr.Close()

	// The print server lives at (3, 7); its availability travels its row.
	printServer, err := tr.Register("printer", gr.At(3, 7))
	if err != nil {
		return err
	}
	fmt.Printf("print server at (3,7); postings hold row 3 (%d nodes)\n", side)

	clients := [][2]int{{0, 0}, {11, 3}, {6, 10}}
	for _, rc := range clients {
		client := gr.At(rc[0], rc[1])
		before := tr.Hops()
		e, err := tr.Locate(client, "printer")
		if err != nil {
			return err
		}
		r, c := gr.RowCol(e.Addr)
		fmt.Printf("client (%2d,%2d): server at (%d,%d), rendezvous at crossing (3,%d); %2d hops (2√n = %.0f)\n",
			rc[0], rc[1], r, c, rc[1], tr.Hops()-before, 2*math.Sqrt(float64(side*side)))
	}

	// The printer moves three times; every client keeps finding the
	// freshest address because stale row postings lose by timestamp.
	for _, move := range [][2]int{{9, 1}, {0, 11}, {5, 5}} {
		if err := printServer.Migrate(gr.At(move[0], move[1])); err != nil {
			return err
		}
		e, err := tr.Locate(gr.At(11, 3), "printer")
		if err != nil {
			return err
		}
		r, c := gr.RowCol(e.Addr)
		fmt.Printf("after move to (%d,%d): located at (%d,%d)\n", move[0], move[1], r, c)
	}

	// Cache accounting: every node stores at most O(√n) entries (§3.1
	// says caches of size O(q)).
	maxCache := 0
	for v := range gr.G.N() {
		maxCache = max(maxCache, tr.Store().NodeSize(graph.NodeID(v)))
	}
	fmt.Printf("largest cache after all traffic: %d entries (row length %d)\n", maxCache, side)
	return nil
}
