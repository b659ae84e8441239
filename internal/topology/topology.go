// Package topology generates the network topologies studied in Section 3
// of the paper: complete networks, rings, Manhattan grids and tori,
// d-dimensional meshes, binary d-cubes, cube-connected cycles, projective
// planes PG(2,k), balanced and degree-profile trees, hierarchical gateway
// networks, and a synthetic UUCPnet reconstructed from the paper's degree
// table.
//
// Each generator returns a concrete type carrying the underlying
// *graph.Graph plus the structural metadata (coordinates, corner bits,
// lines, levels) that the match-making strategies in internal/strategy
// need.
package topology

import (
	"fmt"
	"math/rand/v2"

	"matchmake/internal/graph"
)

// Complete returns the complete network on n nodes, the topology-free
// setting of the paper's lower bounds (§2.1: "assume that the network is a
// complete graph").
func Complete(n int) *graph.Graph {
	g := graph.Complete(n)
	g.SetName(fmt.Sprintf("complete-%d", n))
	return g
}

// Ring returns the cycle on n ≥ 3 nodes. On rings no match-making
// algorithm does significantly better than broadcasting (§2.3.5).
func Ring(n int) (*graph.Graph, error) {
	if n < 3 {
		return nil, fmt.Errorf("topology: ring needs ≥ 3 nodes, got %d", n)
	}
	g := graph.New(n)
	g.SetName(fmt.Sprintf("ring-%d", n))
	for v := 0; v < n; v++ {
		g.MustAddEdge(graph.NodeID(v), graph.NodeID((v+1)%n))
	}
	return g, nil
}

// Line returns the path graph on n ≥ 1 nodes.
func Line(n int) (*graph.Graph, error) {
	if n < 1 {
		return nil, fmt.Errorf("topology: line needs ≥ 1 node, got %d", n)
	}
	g := graph.New(n)
	g.SetName(fmt.Sprintf("line-%d", n))
	for v := 0; v+1 < n; v++ {
		g.MustAddEdge(graph.NodeID(v), graph.NodeID(v+1))
	}
	return g, nil
}

// Star returns the star on n ≥ 2 nodes with hub 0. A star is the extreme
// centralised topology: every multi-node connected subgraph contains the
// hub.
func Star(n int) (*graph.Graph, error) {
	if n < 2 {
		return nil, fmt.Errorf("topology: star needs ≥ 2 nodes, got %d", n)
	}
	g := graph.New(n)
	g.SetName(fmt.Sprintf("star-%d", n))
	for v := 1; v < n; v++ {
		g.MustAddEdge(0, graph.NodeID(v))
	}
	return g, nil
}

// RandomConnected returns a random connected graph on n nodes: a random
// recursive spanning tree plus extra random edges, generated
// deterministically from seed.
func RandomConnected(n, extraEdges int, seed uint64) (*graph.Graph, error) {
	if n < 1 {
		return nil, fmt.Errorf("topology: random graph needs ≥ 1 node, got %d", n)
	}
	rng := rand.New(rand.NewPCG(seed, seed^0x6a09e667f3bcc909))
	g := graph.New(n)
	g.SetName(fmt.Sprintf("random-%d+%d", n, extraEdges))
	for v := 1; v < n; v++ {
		g.MustAddEdge(graph.NodeID(v), graph.NodeID(rng.IntN(v)))
	}
	for k := 0; k < extraEdges; k++ {
		u, v := rng.IntN(n), rng.IntN(n)
		if u != v {
			g.MustAddEdge(graph.NodeID(u), graph.NodeID(v))
		}
	}
	return g, nil
}
