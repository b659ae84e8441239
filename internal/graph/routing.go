package graph

import (
	"fmt"
	"sync"
)

// Routing holds all-pairs next-hop routing tables for a graph, the "table
// containing the names of all other nodes together with the minimum cost to
// reach them and the neighbor at which the minimum cost path starts" that
// Section 3 of the paper assumes every node keeps.
//
// Tables are built with one BFS per node, each stopping once every node is
// reached — O(n·m) time in general, O(n²) on the complete graph — into two
// flat n×n tables, O(n²) space in two allocations.
type Routing struct {
	n    int
	next []int32 // next[u*n+v] = first hop on a shortest u→v path, -1 if none
	dist []int32 // dist[u*n+v] = hop distance, -1 if unreachable
}

// NewRouting computes routing tables for g.
func NewRouting(g *Graph) (*Routing, error) {
	n := g.N()
	r := &Routing{n: n, next: make([]int32, n*n), dist: make([]int32, n*n)}
	parent, queue := make([]NodeID, n), make([]NodeID, 0, n)
	for u := 0; u < n; u++ {
		next := r.next[u*n : (u+1)*n]
		queue = g.bfs(NodeID(u), r.dist[u*n:(u+1)*n], parent, queue)
		for v := range next {
			next[v] = -1
		}
		// The first hop toward v is v itself when u is its BFS parent, and
		// its parent's first hop otherwise; a parent is visited before its
		// children, so one pass in visit order fills the row.
		next[u] = int32(u)
		for _, v := range queue[1:] {
			if p := parent[v]; p == NodeID(u) {
				next[v] = int32(v)
			} else {
				next[v] = next[p]
			}
		}
	}
	return r, nil
}

// N returns the number of nodes covered by the tables.
func (r *Routing) N() int { return r.n }

// NextHop returns the neighbor of from on a shortest path to to, from
// itself if from == to, and -1 if to is unreachable.
func (r *Routing) NextHop(from, to NodeID) NodeID {
	if uint(from) >= uint(r.n) || uint(to) >= uint(r.n) {
		return -1
	}
	return NodeID(r.next[int(from)*r.n+int(to)])
}

// Dist returns the hop distance from from to to, or -1 if unreachable.
func (r *Routing) Dist(from, to NodeID) int {
	if uint(from) >= uint(r.n) || uint(to) >= uint(r.n) {
		return -1
	}
	return int(r.dist[int(from)*r.n+int(to)])
}

// Path materializes the shortest path from from to to, inclusive, by
// following next hops. It returns nil if to is unreachable.
func (r *Routing) Path(from, to NodeID) []NodeID {
	d := r.Dist(from, to)
	if d < 0 {
		return nil
	}
	path := make([]NodeID, 0, d+1)
	at := from
	path = append(path, at)
	for at != to {
		at = r.NextHop(at, to)
		if at == -1 {
			return nil
		}
		path = append(path, at)
	}
	return path
}

// PredecessorNeighbors returns the neighbors w of node at whose routing
// tables send origin-bound traffic through at, i.e. dist(w, origin) >
// dist(at, origin). This is the routing table used "back-to-front" from §4:
// a beam leaving origin is forwarded from at to any such w, extending a
// simulated straight line away from its source.
func (r *Routing) PredecessorNeighbors(g *Graph, at, origin NodeID) []NodeID {
	var out []NodeID
	dAt := r.Dist(at, origin)
	if dAt < 0 {
		return nil
	}
	for _, w := range g.Neighbors(at) {
		if r.Dist(w, origin) > dAt {
			out = append(out, w)
		}
	}
	return out
}

// MulticastCost returns the number of message passes needed to deliver one
// message from src to every node in targets, when the message is flooded
// along the shortest-path (BFS) tree of src pruned to the targets: every
// edge of the pruned tree carries the message exactly once, so the cost is
// the number of edges in the Steiner approximation. This is the
// "broadcast over spanning trees in these subgraphs" accounting of §2.3.5.
func (r *Routing) MulticastCost(src NodeID, targets []NodeID) (int, error) {
	if uint(src) >= uint(r.n) {
		return 0, fmt.Errorf("multicast from %d: %w", src, ErrNodeRange)
	}
	// Union of shortest paths from src to each target, counted as edges of
	// the shortest-path tree: mark every node that lies on a path, then the
	// cost is the number of nodes marked besides src, following tree edges
	// toward src. The marks are a pooled bitset, so a call allocates
	// nothing.
	words := (r.n + 63) / 64
	bp := treeMarks.Get().(*[]uint64)
	defer treeMarks.Put(bp)
	if cap(*bp) < words {
		*bp = make([]uint64, words)
	}
	on := (*bp)[:words]
	clear(on)
	on[src/64] |= 1 << (src % 64)
	cost := 0
	for _, t := range targets {
		if r.Dist(src, t) < 0 {
			return 0, fmt.Errorf("multicast %d->%d: %w", src, t, ErrDisconnected)
		}
		// Walk from src toward t; all intermediate nodes join the tree.
		for at := src; at != t; {
			at = NodeID(r.next[int(at)*r.n+int(t)])
			if bit := uint64(1) << (at % 64); on[at/64]&bit == 0 {
				on[at/64] |= bit
				cost++
			}
		}
	}
	return cost, nil
}

// treeMarks pools MulticastCost's node bitsets.
var treeMarks = sync.Pool{New: func() any { return new([]uint64) }}

// UnicastCost returns the total number of message passes needed to send one
// point-to-point message from src to each target individually (no tree
// sharing): the sum of hop distances.
func (r *Routing) UnicastCost(src NodeID, targets []NodeID) (int, error) {
	total := 0
	for _, t := range targets {
		d := r.Dist(src, t)
		if d < 0 {
			return 0, fmt.Errorf("unicast %d->%d: %w", src, t, ErrDisconnected)
		}
		total += d
	}
	return total, nil
}
