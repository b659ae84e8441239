// Package strategy provides the topology-aware Shotgun Locate strategies
// of Section 3 of the paper: Manhattan row/column posting, d-dimensional
// mesh slices, hypercube (ε-)splits, cube-connected-cycles tuning,
// projective-plane lines, hierarchical gateway posting, tree path-to-root
// and the generic √n-decomposition method for arbitrary connected
// networks — plus the membership epochs and replica families the serving
// layer runs them in, and HashSet, the port hash of Section 5's Hash
// Locate.
//
// Every constructor returns a rendezvous.Strategy, so the theory package
// can analyze it and internal/cluster's coordinator can serve it, over
// the simulator or any other transport.
package strategy

import (
	"fmt"
	"math"

	"matchmake/internal/graph"
	"matchmake/internal/rendezvous"
	"matchmake/internal/topology"
)

// Manhattan returns the §3.1 strategy on a grid or torus: post
// availability of a service along its row and request a service along the
// column the client is on. The rendezvous node of server (r,c) and client
// (r′,c′) is the crossing (r,c′); m(n) = 2√n on square grids with caches
// of size √n.
func Manhattan(g *topology.Grid) rendezvous.Strategy {
	return rendezvous.Funcs{
		StrategyName: fmt.Sprintf("manhattan-%dx%d", g.Rows, g.Cols),
		Universe:     g.G.N(),
		PostFunc: func(i graph.NodeID) []graph.NodeID {
			r, _ := g.RowCol(i)
			return g.Row(r)
		},
		QueryFunc: func(j graph.NodeID) []graph.NodeID {
			_, c := g.RowCol(j)
			return g.Column(c)
		},
	}
}

// MeshSplit returns the d-dimensional generalization of Manhattan on a
// mesh: the server posts along the slice that varies postAxes (fixing the
// rest to its own coordinates) and the client queries the complementary
// slice. The two slices always meet in exactly one node — the one taking
// the client's coordinates on postAxes and the server's elsewhere.
//
// With one query axis on a side-D cube this gives the paper's
// m(n) = Θ(n^((d−1)/d)).
func MeshSplit(m *topology.Mesh, postAxes []int) (rendezvous.Strategy, error) {
	d := len(m.Dims)
	isPost := make([]bool, d)
	for _, ax := range postAxes {
		if ax < 0 || ax >= d {
			return nil, fmt.Errorf("strategy: mesh axis %d out of [0,%d)", ax, d)
		}
		if isPost[ax] {
			return nil, fmt.Errorf("strategy: duplicate mesh axis %d", ax)
		}
		isPost[ax] = true
	}
	if len(postAxes) == 0 || len(postAxes) == d {
		return nil, fmt.Errorf("strategy: mesh split needs 1..%d post axes, got %d", d-1, len(postAxes))
	}
	var queryAxes, postFixed []int
	for ax := 0; ax < d; ax++ {
		if isPost[ax] {
			postFixed = append(postFixed, ax) // axes fixed by the QUERY slice
		} else {
			queryAxes = append(queryAxes, ax) // axes fixed by the POST slice
		}
	}
	return rendezvous.Funcs{
		StrategyName: fmt.Sprintf("mesh-split-%v|%v", postAxes, queryAxes),
		Universe:     m.G.N(),
		PostFunc: func(i graph.NodeID) []graph.NodeID {
			// Post varies postAxes: fix the others (queryAxes).
			return m.Slice(i, queryAxes)
		},
		QueryFunc: func(j graph.NodeID) []graph.NodeID {
			// Query varies the remaining axes: fix postAxes.
			return m.Slice(j, postFixed)
		},
	}, nil
}

// OptimalGridSplit returns the grid shape p×q (p·q = n, q = row length)
// minimizing the weighted match-making cost q + α·p of (M3′), where a
// client query is α times more frequent than a server post: the server
// posts along its row (q messages) and the client queries its column
// (p messages). The continuous optimum is p* = √(n/α), q* = √(α·n) with
// cost 2√(α·n); the function returns the best integer divisor pair.
func OptimalGridSplit(n int, alpha float64) (p, q int, cost float64) {
	best := math.Inf(1)
	for cand := 1; cand <= n; cand++ {
		if n%cand != 0 {
			continue
		}
		rows, cols := cand, n/cand
		c := float64(cols) + alpha*float64(rows)
		if c < best {
			best = c
			p, q = rows, cols
		}
	}
	return p, q, best
}
