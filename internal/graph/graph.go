// Package graph provides the undirected-graph substrate used by every other
// package in this repository: adjacency storage, breadth-first search,
// all-pairs next-hop routing tables, spanning trees, and the connected
// √n-partition of Erdős, Gerencsér and Máté that Section 3 of the paper
// relies on for match-making in arbitrary connected networks.
//
// Graphs model the paper's point-to-point store-and-forward communication
// networks G = (U, E): nodes are processors, edges are bidirectional
// non-interfering channels, and one message pass moves a message across a
// single edge.
package graph

import (
	"errors"
	"fmt"
	"sort"
)

// NodeID identifies a node of a Graph. Node identifiers are dense integers
// in [0, N).
type NodeID int

// Errors returned by graph operations.
var (
	// ErrNodeRange reports a node identifier outside [0, N).
	ErrNodeRange = errors.New("graph: node out of range")
	// ErrSelfLoop reports an attempt to add an edge from a node to itself.
	ErrSelfLoop = errors.New("graph: self loop")
	// ErrDisconnected reports an operation that requires a connected graph.
	ErrDisconnected = errors.New("graph: not connected")
)

// Graph is a simple undirected graph over nodes 0..n-1.
//
// The zero value is an empty graph with no nodes; use New to create a graph
// with a fixed node count. Graph is not safe for concurrent mutation, but
// all read-only methods may be used concurrently once construction is done.
type Graph struct {
	adj   [][]NodeID
	edges int
	name  string
}

// New returns a graph with n isolated nodes and no edges.
func New(n int) *Graph {
	if n < 0 {
		n = 0
	}
	return &Graph{adj: make([][]NodeID, n)}
}

// Complete returns the complete graph on n nodes: every adjacency list is
// [0..n-1] \ {v} in ascending order, the lists that adding every edge
// {u, v}, u < v, in lexicographic order builds, written directly into one
// backing array instead, with no HasEdge scan — O(n²) work rather than
// O(n³).
func Complete(n int) *Graph {
	g := New(n)
	if n < 2 {
		return g
	}
	d := n - 1
	all := make([]NodeID, n*d)
	for v := range g.adj {
		// Capped at its own length, so a later AddEdge reallocates this
		// list instead of writing into the next one.
		l := all[v*d : (v+1)*d : (v+1)*d]
		for i := range l {
			l[i] = NodeID(i)
			if i >= v {
				l[i]++
			}
		}
		g.adj[v] = l
	}
	g.edges = n * d / 2
	return g
}

// Name returns the descriptive name attached with SetName, or "".
func (g *Graph) Name() string { return g.name }

// SetName attaches a descriptive name (e.g. "grid 8x8") used in reports.
func (g *Graph) SetName(name string) { g.name = name }

// N returns the number of nodes.
func (g *Graph) N() int { return len(g.adj) }

// M returns the number of undirected edges.
func (g *Graph) M() int { return g.edges }

// Valid reports whether v is a node of g.
func (g *Graph) Valid(v NodeID) bool { return v >= 0 && int(v) < len(g.adj) }

// AddEdge inserts the undirected edge {u, v}. Inserting an edge that is
// already present is a no-op. Self loops are rejected.
func (g *Graph) AddEdge(u, v NodeID) error {
	if !g.Valid(u) || !g.Valid(v) {
		return fmt.Errorf("add edge {%d,%d}: %w", u, v, ErrNodeRange)
	}
	if u == v {
		return fmt.Errorf("add edge {%d,%d}: %w", u, v, ErrSelfLoop)
	}
	if g.HasEdge(u, v) {
		return nil
	}
	g.adj[u] = append(g.adj[u], v)
	g.adj[v] = append(g.adj[v], u)
	g.edges++
	return nil
}

// MustAddEdge is AddEdge for construction code with statically valid
// endpoints; it panics on error. Topology generators use it internally.
func (g *Graph) MustAddEdge(u, v NodeID) {
	if err := g.AddEdge(u, v); err != nil {
		panic(err)
	}
}

// HasEdge reports whether the undirected edge {u, v} exists.
func (g *Graph) HasEdge(u, v NodeID) bool {
	if !g.Valid(u) || !g.Valid(v) {
		return false
	}
	// Scan the smaller adjacency list.
	a, b := u, v
	if len(g.adj[a]) > len(g.adj[b]) {
		a, b = b, a
	}
	for _, w := range g.adj[a] {
		if w == b {
			return true
		}
	}
	return false
}

// Degree returns the degree of v, or 0 if v is out of range.
func (g *Graph) Degree(v NodeID) int {
	if !g.Valid(v) {
		return 0
	}
	return len(g.adj[v])
}

// Neighbors returns a copy of the adjacency list of v in insertion order.
func (g *Graph) Neighbors(v NodeID) []NodeID {
	if !g.Valid(v) || len(g.adj[v]) == 0 {
		return nil
	}
	out := make([]NodeID, len(g.adj[v]))
	copy(out, g.adj[v])
	return out
}

// Nodes returns all node identifiers 0..n-1.
func (g *Graph) Nodes() []NodeID {
	out := make([]NodeID, g.N())
	for i := range out {
		out[i] = NodeID(i)
	}
	return out
}

// DegreeHistogram returns a map from degree to the number of nodes with
// that degree. Section 3.6 of the paper tabulates exactly this for UUCPnet.
func (g *Graph) DegreeHistogram() map[int]int {
	h := make(map[int]int)
	for v := range g.adj {
		h[len(g.adj[v])]++
	}
	return h
}

// BFS runs a breadth-first search from src and returns, for every node,
// its hop distance from src (-1 if unreachable) and its BFS-tree parent
// (-1 for src and unreachable nodes).
func (g *Graph) BFS(src NodeID) (dist []int, parent []NodeID, err error) {
	if !g.Valid(src) {
		return nil, nil, fmt.Errorf("bfs from %d: %w", src, ErrNodeRange)
	}
	n := g.N()
	d32 := make([]int32, n)
	parent = make([]NodeID, n)
	for i := range parent {
		parent[i] = -1
	}
	g.bfs(src, d32, parent, make([]NodeID, 0, n))
	dist = make([]int, n)
	for i, d := range d32 {
		dist[i] = int(d)
	}
	return dist, parent, nil
}

// bfs is the one breadth-first search. It writes every node's hop
// distance from src into dist (-1 if unreachable) and every reached
// node's parent — the first visited node adjacent to it — into parent,
// leaving the other entries of parent as they were, and returns the
// reached nodes in visit order, reusing queue's storage. It stops
// scanning adjacency lists once every node is reached: on the complete
// graph that is after src's own list, O(n) rather than O(n²).
func (g *Graph) bfs(src NodeID, dist []int32, parent, queue []NodeID) []NodeID {
	for i := range dist {
		dist[i] = -1
	}
	dist[src] = 0
	queue = append(queue[:0], src)
	for head := 0; head < len(queue) && len(queue) < len(dist); head++ {
		v := queue[head]
		for _, w := range g.adj[v] {
			if dist[w] < 0 {
				dist[w] = dist[v] + 1
				parent[w] = v
				queue = append(queue, w)
			}
		}
	}
	return queue
}

// Connected reports whether the graph is connected. The empty graph and
// single-node graph are connected.
func (g *Graph) Connected() bool {
	if g.N() <= 1 {
		return true
	}
	dist, _, err := g.BFS(0)
	if err != nil {
		return false
	}
	for _, d := range dist {
		if d < 0 {
			return false
		}
	}
	return true
}

// Components returns the connected components, each as a sorted node list,
// ordered by their smallest member.
func (g *Graph) Components() [][]NodeID {
	n := g.N()
	seen := make([]bool, n)
	var comps [][]NodeID
	for s := 0; s < n; s++ {
		if seen[s] {
			continue
		}
		dist, _, _ := g.BFS(NodeID(s))
		var comp []NodeID
		for v, d := range dist {
			if d >= 0 && !seen[v] {
				seen[v] = true
				comp = append(comp, NodeID(v))
			}
		}
		sort.Slice(comp, func(i, j int) bool { return comp[i] < comp[j] })
		comps = append(comps, comp)
	}
	return comps
}

// ShortestPath returns one shortest path from u to v inclusive of both
// endpoints, or an error if v is unreachable from u.
func (g *Graph) ShortestPath(u, v NodeID) ([]NodeID, error) {
	dist, parent, err := g.BFS(u)
	if err != nil {
		return nil, err
	}
	if !g.Valid(v) {
		return nil, fmt.Errorf("path to %d: %w", v, ErrNodeRange)
	}
	if dist[v] < 0 {
		return nil, fmt.Errorf("path %d->%d: %w", u, v, ErrDisconnected)
	}
	path := make([]NodeID, 0, dist[v]+1)
	for at := v; at != -1; at = parent[at] {
		path = append(path, at)
	}
	// Reverse in place so the path runs u..v.
	for i, j := 0, len(path)-1; i < j; i, j = i+1, j-1 {
		path[i], path[j] = path[j], path[i]
	}
	return path, nil
}

// Eccentricity returns the maximum hop distance from v to any node, or an
// error if the graph is disconnected.
func (g *Graph) Eccentricity(v NodeID) (int, error) {
	dist, _, err := g.BFS(v)
	if err != nil {
		return 0, err
	}
	ecc := 0
	for _, d := range dist {
		if d < 0 {
			return 0, ErrDisconnected
		}
		if d > ecc {
			ecc = d
		}
	}
	return ecc, nil
}

// Diameter returns the largest hop distance between any pair of nodes.
// It runs a BFS from every node (O(n·m)); intended for simulation-scale
// graphs.
func (g *Graph) Diameter() (int, error) {
	if g.N() == 0 {
		return 0, nil
	}
	diam := 0
	for v := 0; v < g.N(); v++ {
		ecc, err := g.Eccentricity(NodeID(v))
		if err != nil {
			return 0, err
		}
		if ecc > diam {
			diam = ecc
		}
	}
	return diam, nil
}

// InducedSubgraph returns the subgraph induced by nodes, together with the
// mapping from new node identifiers (0..len(nodes)-1) back to the original
// identifiers. Duplicate entries are rejected.
func (g *Graph) InducedSubgraph(nodes []NodeID) (*Graph, []NodeID, error) {
	index := make(map[NodeID]NodeID, len(nodes))
	orig := make([]NodeID, len(nodes))
	for i, v := range nodes {
		if !g.Valid(v) {
			return nil, nil, fmt.Errorf("induced subgraph node %d: %w", v, ErrNodeRange)
		}
		if _, dup := index[v]; dup {
			return nil, nil, fmt.Errorf("induced subgraph: duplicate node %d", v)
		}
		index[v] = NodeID(i)
		orig[i] = v
	}
	sub := New(len(nodes))
	for i, v := range nodes {
		for _, w := range g.adj[v] {
			j, ok := index[w]
			if ok && NodeID(i) < j {
				sub.MustAddEdge(NodeID(i), j)
			}
		}
	}
	return sub, orig, nil
}

// Clone returns a deep copy of the graph.
func (g *Graph) Clone() *Graph {
	c := New(g.N())
	c.name = g.name
	c.edges = g.edges
	for v := range g.adj {
		if len(g.adj[v]) == 0 {
			continue
		}
		c.adj[v] = make([]NodeID, len(g.adj[v]))
		copy(c.adj[v], g.adj[v])
	}
	return c
}

// RemoveNode deletes all edges incident to v, isolating it. This models a
// node crash in the surviving-subnetwork analyses of §2.4. The node
// identifier itself remains valid (a crashed processor still occupies its
// slot; it just no longer communicates).
func (g *Graph) RemoveNode(v NodeID) error {
	if !g.Valid(v) {
		return fmt.Errorf("remove node %d: %w", v, ErrNodeRange)
	}
	for _, w := range g.adj[v] {
		g.adj[w] = deleteOne(g.adj[w], v)
		g.edges--
	}
	g.adj[v] = nil
	return nil
}

func deleteOne(s []NodeID, v NodeID) []NodeID {
	for i, x := range s {
		if x == v {
			return append(s[:i], s[i+1:]...)
		}
	}
	return s
}
