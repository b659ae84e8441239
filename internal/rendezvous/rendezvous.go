// Package rendezvous implements the theory of distributed match-making
// from Section 2 of the paper: Shotgun Locate strategies P, Q: U → 2^U,
// the rendezvous matrix R with entries r_ij = P(i) ∩ Q(j), the message-pass
// cost measures (M1)–(M4), the lower bounds of Propositions 1 and 2, and
// the matching constructions of Propositions 3 (checkerboard) and 4
// (lifting).
package rendezvous

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"slices"

	"matchmake/internal/graph"
)

// Strategy is a Shotgun Locate strategy on an n-node universe: any server
// residing at node i posts its (port, address) at each node of Post(i) and
// any client residing at node j queries each node of Query(j).
type Strategy interface {
	// Name identifies the strategy in reports.
	Name() string
	// N returns the universe size.
	N() int
	// Post returns P(i), the posting set of a server at node i.
	Post(i graph.NodeID) []graph.NodeID
	// Query returns Q(j), the query set of a client at node j.
	Query(j graph.NodeID) []graph.NodeID
}

// Funcs adapts a pair of functions to the Strategy interface.
type Funcs struct {
	StrategyName string
	Universe     int
	PostFunc     func(i graph.NodeID) []graph.NodeID
	QueryFunc    func(j graph.NodeID) []graph.NodeID
}

var _ Strategy = Funcs{}

// Name implements Strategy.
func (f Funcs) Name() string { return f.StrategyName }

// N implements Strategy.
func (f Funcs) N() int { return f.Universe }

// Post implements Strategy.
func (f Funcs) Post(i graph.NodeID) []graph.NodeID { return f.PostFunc(i) }

// Query implements Strategy.
func (f Funcs) Query(j graph.NodeID) []graph.NodeID { return f.QueryFunc(j) }

func all(n int) []graph.NodeID {
	out := make([]graph.NodeID, n)
	for i := range out {
		out[i] = graph.NodeID(i)
	}
	return out
}

// Broadcast returns the paper's Example 1: the server stays put
// (P(i) = {i}) and the client looks everywhere (Q(j) = U).
func Broadcast(n int) Strategy {
	return Funcs{
		StrategyName: "broadcast",
		Universe:     n,
		PostFunc:     func(i graph.NodeID) []graph.NodeID { return []graph.NodeID{i} },
		QueryFunc:    func(graph.NodeID) []graph.NodeID { return all(n) },
	}
}

// Sweep returns the paper's Example 2: the client stays put (Q(j) = {j})
// and the server looks for work (P(i) = U).
func Sweep(n int) Strategy {
	return Funcs{
		StrategyName: "sweep",
		Universe:     n,
		PostFunc:     func(graph.NodeID) []graph.NodeID { return all(n) },
		QueryFunc:    func(j graph.NodeID) []graph.NodeID { return []graph.NodeID{j} },
	}
}

// Central returns the paper's Example 3: a centralized name server at
// node c; all services post there and all clients query there.
func Central(n int, c graph.NodeID) Strategy {
	return Funcs{
		StrategyName: fmt.Sprintf("central@%d", c),
		Universe:     n,
		PostFunc:     func(graph.NodeID) []graph.NodeID { return []graph.NodeID{c} },
		QueryFunc:    func(graph.NodeID) []graph.NodeID { return []graph.NodeID{c} },
	}
}

// Random returns a randomized strategy choosing p posting nodes and q
// query nodes uniformly (without replacement) per node, deterministic in
// seed. This realizes the probabilistic analysis of §2.2, where
// E[#(P(i) ∩ Q(j))] = pq/n.
func Random(n, p, q int, seed uint64) Strategy {
	pick := func(node graph.NodeID, k int, salt uint64) []graph.NodeID {
		rng := rand.New(rand.NewPCG(seed^salt, uint64(node)*0x9e3779b97f4a7c15+1))
		perm := rng.Perm(n)
		if k > n {
			k = n
		}
		out := make([]graph.NodeID, k)
		for i := 0; i < k; i++ {
			out[i] = graph.NodeID(perm[i])
		}
		slices.Sort(out)
		return out
	}
	return Funcs{
		StrategyName: fmt.Sprintf("random-p%d-q%d", p, q),
		Universe:     n,
		PostFunc:     func(i graph.NodeID) []graph.NodeID { return pick(i, p, 0x736f6d6570736575) },
		QueryFunc:    func(j graph.NodeID) []graph.NodeID { return pick(j, q, 0x646f72616e646f6d) },
	}
}

// HierarchyExample reproduces the paper's Example 5 on nine nodes with
// the hierarchical order 1,2,3 < 7; 4,5,6 < 8; 7,8 < 9 (node identifiers
// here are 0-based: 0,1,2 < 6; 3,4,5 < 7; 6,7 < 8). Posts and queries go
// to the strict ancestors of a node; the rendezvous entry printed in the
// paper is the lowest common ancestor.
func HierarchyExample() Strategy {
	parent := hierarchyExampleParents()
	ancestors := func(v graph.NodeID) []graph.NodeID {
		var out []graph.NodeID
		for at := parent[v]; at != -1; at = parent[at] {
			out = append(out, at)
		}
		if len(out) == 0 {
			// The root posts/queries at itself.
			out = []graph.NodeID{v}
		}
		return out
	}
	return Funcs{
		StrategyName: "hierarchy-example5",
		Universe:     9,
		PostFunc:     ancestors,
		QueryFunc:    ancestors,
	}
}

func hierarchyExampleParents() []graph.NodeID {
	return []graph.NodeID{6, 6, 6, 7, 7, 7, 8, 8, -1}
}

// HierarchyExampleLCA returns the designated rendezvous node for a pair
// (i, j) in Example 5: their lowest common strict ancestor (the root for
// pairs involving the upper nodes), matching the published matrix.
func HierarchyExampleLCA(i, j graph.NodeID) graph.NodeID {
	parent := hierarchyExampleParents()
	anc := func(v graph.NodeID) map[graph.NodeID]int {
		out := make(map[graph.NodeID]int)
		depth := 0
		for at := parent[v]; at != -1; at = parent[at] {
			out[at] = depth
			depth++
		}
		if len(out) == 0 {
			out[v] = 0
		}
		return out
	}
	ai, aj := anc(i), anc(j)
	best := graph.NodeID(-1)
	bestDepth := 1 << 30
	for v, d := range ai {
		if _, ok := aj[v]; ok && d < bestDepth {
			best, bestDepth = v, d
		}
	}
	return best
}

// CubeExample reproduces the paper's Example 6 on the binary 3-cube:
// P(abc) = {axy | x,y ∈ {0,1}} and Q(abc) = {xbc | x ∈ {0,1}}, whose
// rendezvous for server abc and client a'b'c' is the single node a b'c'.
func CubeExample() Strategy {
	return Funcs{
		StrategyName: "cube-example6",
		Universe:     8,
		PostFunc: func(i graph.NodeID) []graph.NodeID {
			a := int(i) & 0b100
			return []graph.NodeID{
				graph.NodeID(a), graph.NodeID(a | 1),
				graph.NodeID(a | 2), graph.NodeID(a | 3),
			}
		},
		QueryFunc: func(j graph.NodeID) []graph.NodeID {
			bc := int(j) & 0b011
			return []graph.NodeID{graph.NodeID(bc), graph.NodeID(bc | 0b100)}
		},
	}
}

// ErrEmptyRendezvous reports a strategy pair (i, j) with P(i) ∩ Q(j) = ∅,
// i.e. a client that can never locate a server.
var ErrEmptyRendezvous = errors.New("rendezvous: empty intersection")

// Intersect returns P ∩ Q as a sorted node list.
func Intersect(p, q []graph.NodeID) []graph.NodeID {
	inP := make(map[graph.NodeID]bool, len(p))
	for _, v := range p {
		inP[v] = true
	}
	var out []graph.NodeID
	for _, v := range q {
		if inP[v] {
			out = append(out, v)
			delete(inP, v) // tolerate duplicates in q
		}
	}
	slices.Sort(out)
	return out
}
