package rendezvous

import (
	"fmt"
	"math"
	"slices"

	"matchmake/internal/graph"
)

// Checkerboard returns the truly distributed construction of
// Proposition 3 for a complete n-node network: the rendezvous matrix is
// arranged as (as near as possible) √n × √n squares of about n entries
// each, every square filled with one unique node.
//
// Concretely, with b = ⌈√n⌉, a server at node i posts to the b nodes of
// "row block" rb(i) and a client at node j queries the b nodes of "column
// block" cb(j); the shared node rb(i)·b + cb(j) (mod n) is always in the
// intersection, #P(i)·#Q(j) ≈ n, #P(i) + #Q(j) ≈ 2√n, and every node
// occurs k_v ≈ n times — the paper's Example 4 generalized to arbitrary n.
func Checkerboard(n int) Strategy {
	b := int(math.Ceil(math.Sqrt(float64(n))))
	rowBlock := func(i graph.NodeID) int { return int(i) * b / n }
	colBlock := func(j graph.NodeID) int { return int(j) * b / n }
	return Funcs{
		StrategyName: fmt.Sprintf("checkerboard-%d", n),
		Universe:     n,
		PostFunc: func(i graph.NodeID) []graph.NodeID {
			return blockNodes(rowBlock(i)*b, 1, b, n)
		},
		QueryFunc: func(j graph.NodeID) []graph.NodeID {
			return blockNodes(colBlock(j), b, b, n)
		},
	}
}

// blockNodes returns {(start + t·step) mod n : t < count}, deduplicated
// and sorted.
func blockNodes(start, step, count, n int) []graph.NodeID {
	out := make([]graph.NodeID, count)
	for t := range out {
		out[t] = graph.NodeID((start + t*step) % n)
	}
	return sortedSet(out)
}

// sortedSet sorts ids in place and drops the duplicates.
func sortedSet(ids []graph.NodeID) []graph.NodeID {
	slices.Sort(ids)
	return slices.Compact(ids)
}

// RedundantCheckerboard returns the §2.4 fault-tolerant variant of the
// checkerboard: the server posts to r consecutive row blocks and the
// client queries one column block, so every pair's rendezvous set has at
// least r nodes — choosing P and Q "such that #(P(i) ∩ Q(j)) ≥ f+1,
// where f is the maximal number of faults", at r times the posting cost.
func RedundantCheckerboard(n, r int) Strategy {
	if r < 1 {
		r = 1
	}
	b := int(math.Ceil(math.Sqrt(float64(n))))
	if r > b {
		r = b
	}
	rowBlock := func(i graph.NodeID) int { return int(i) * b / n }
	colBlock := func(j graph.NodeID) int { return int(j) * b / n }
	return Funcs{
		StrategyName: fmt.Sprintf("checkerboard-%d-r%d", n, r),
		Universe:     n,
		PostFunc: func(i graph.NodeID) []graph.NodeID {
			out := make([]graph.NodeID, 0, r*b)
			rb := rowBlock(i)
			for t := 0; t < r; t++ {
				out = append(out, blockNodes(((rb+t)%b)*b, 1, b, n)...)
			}
			return sortedSet(out)
		},
		QueryFunc: func(j graph.NodeID) []graph.NodeID {
			return blockNodes(colBlock(j), b, b, n)
		},
	}
}

// Lift returns the Proposition 4 construction: given a strategy on n
// nodes it produces a strategy on 4n nodes whose rendezvous matrix R′ is
// the 2×2 quadrant arrangement of element-disjoint copies of the doubled
// matrix M, with multiplicities k′_{v+tn} = 4·k_v and average cost
// m′(4n) = 2·m(n).
//
// Row i′ of R′ spans two quadrant copies (left and right), so
// P′(i′) relabels P(⌊(i′ mod 2n)/2⌋) into both; columns dually for Q′.
func Lift(s Strategy) Strategy {
	n := s.N()
	return Funcs{
		StrategyName: s.Name() + "-lifted",
		Universe:     4 * n,
		PostFunc: func(i graph.NodeID) []graph.NodeID {
			// Rows 0..2n-1 see quadrants 0 (left) and 1 (right); rows
			// 2n..4n-1 see quadrants 2 and 3.
			qa, qb := 0, 1
			row := int(i)
			if row >= 2*n {
				qa, qb = 2, 3
				row -= 2 * n
			}
			base := s.Post(graph.NodeID(row / 2))
			return relabel(base, n, qa, qb)
		},
		QueryFunc: func(j graph.NodeID) []graph.NodeID {
			// Columns 0..2n-1 see quadrants 0 (top) and 2 (bottom);
			// columns 2n..4n-1 see quadrants 1 and 3.
			qa, qb := 0, 2
			col := int(j)
			if col >= 2*n {
				qa, qb = 1, 3
				col -= 2 * n
			}
			base := s.Query(graph.NodeID(col / 2))
			return relabel(base, n, qa, qb)
		},
	}
}

// relabel maps each node v to its images v + qa·n and v + qb·n in the
// two quadrant copies.
func relabel(base []graph.NodeID, n, qa, qb int) []graph.NodeID {
	out := make([]graph.NodeID, 0, 2*len(base))
	for _, v := range base {
		out = append(out, v+graph.NodeID(qa*n), v+graph.NodeID(qb*n))
	}
	slices.Sort(out)
	return out
}

// Transpose swaps the server and client roles of a strategy: the
// transposed P is the original Q and vice versa, so the rendezvous
// matrix is transposed. The paper's Example 6 is the transpose of the
// §3.2 half-split convention at d = 3, k = 1.
func Transpose(s Strategy) Strategy {
	return Funcs{
		StrategyName: s.Name() + "-transposed",
		Universe:     s.N(),
		PostFunc:     s.Query,
		QueryFunc:    s.Post,
	}
}

// Union posts and queries the node sets of both strategies, so every
// rendezvous set is the union of the two components' sets:
// r_ij ⊇ r_ij(a) ∪ r_ij(b). Combining two strategies with disjoint
// rendezvous nodes is another way to reach the #(P∩Q) ≥ f+1 redundancy
// of §2.4, at the sum of their costs.
func Union(a, b Strategy) (Strategy, error) {
	if a.N() != b.N() {
		return nil, fmt.Errorf("rendezvous: union universes differ: %d vs %d", a.N(), b.N())
	}
	merge := func(x, y []graph.NodeID) []graph.NodeID {
		return sortedSet(append(append(make([]graph.NodeID, 0, len(x)+len(y)), x...), y...))
	}
	return Funcs{
		StrategyName: a.Name() + "+" + b.Name(),
		Universe:     a.N(),
		PostFunc: func(i graph.NodeID) []graph.NodeID {
			return merge(a.Post(i), b.Post(i))
		},
		QueryFunc: func(j graph.NodeID) []graph.NodeID {
			return merge(a.Query(j), b.Query(j))
		},
	}, nil
}
