package graph_test

import (
	"fmt"
	"slices"
	"testing"

	"matchmake/internal/graph"
	"matchmake/internal/rendezvous"
	"matchmake/internal/strategy"
	"matchmake/internal/topology"
)

// refRouting is the routing the tables were first built with, kept as
// the reference: a full queue BFS from every node into per-source rows,
// the first hop found by walking the parent chain back to the source,
// and a multicast tree marked in a map.
type refRouting struct {
	next [][]graph.NodeID
	dist [][]int
}

func newRefRouting(g *graph.Graph) *refRouting {
	n := g.N()
	r := &refRouting{next: make([][]graph.NodeID, n), dist: make([][]int, n)}
	for u := 0; u < n; u++ {
		dist, parent := make([]int, n), make([]graph.NodeID, n)
		for i := range dist {
			dist[i], parent[i] = -1, -1
		}
		dist[u] = 0
		queue := []graph.NodeID{graph.NodeID(u)}
		for len(queue) > 0 {
			v := queue[0]
			queue = queue[1:]
			for _, w := range g.Neighbors(v) {
				if dist[w] < 0 {
					dist[w], parent[w] = dist[v]+1, v
					queue = append(queue, w)
				}
			}
		}
		r.dist[u] = dist
		r.next[u] = make([]graph.NodeID, n)
		for v := range r.next[u] {
			r.next[u][v] = refFirstHop(graph.NodeID(u), graph.NodeID(v), parent)
		}
	}
	return r
}

func refFirstHop(u, v graph.NodeID, parent []graph.NodeID) graph.NodeID {
	if u == v {
		return u
	}
	at := v
	for at != -1 && parent[at] != u {
		at = parent[at]
	}
	return at
}

func (r *refRouting) multicastCost(src graph.NodeID, targets []graph.NodeID) int {
	onTree := map[graph.NodeID]bool{src: true}
	for _, t := range targets {
		for at := src; at != t; {
			at = r.next[at][t]
			onTree[at] = true
		}
	}
	return len(onTree) - 1
}

func must[T any](v T, err error) T {
	if err != nil {
		panic(err)
	}
	return v
}

// world is a topology with the strategy that serves it.
type world struct {
	name  string
	g     *graph.Graph
	strat rendezvous.Strategy
}

// section3Worlds are the §3 generators at two sizes each.
func section3Worlds() []world {
	var out []world
	add := func(name string, g *graph.Graph, s rendezvous.Strategy) { out = append(out, world{name, g, s}) }
	for _, k := range []int{3, 4} {
		add(fmt.Sprintf("complete %d", k*k), topology.Complete(k*k), rendezvous.Checkerboard(k*k))
		gr := must(topology.NewGrid(k+1, k+2))
		add(fmt.Sprintf("grid %d %d", k+1, k+2), gr.G, strategy.Manhattan(gr))
		add(fmt.Sprintf("ring %d", 4*k), must(topology.Ring(4*k)), rendezvous.Checkerboard(4*k))
		h := must(topology.NewHypercube(k + 1))
		add(fmt.Sprintf("hypercube %d", k+1), h.G, must(strategy.HalfCube(h)))
		c := must(topology.NewCCC(k))
		add(fmt.Sprintf("ccc %d", k), c.G, strategy.CCCSplit(c))
		p := must(topology.NewPlane(2*k - 3)) // prime orders 3 and 5
		add(fmt.Sprintf("plane %d", 2*k-3), p.G, strategy.PlaneLines(p))
		hi := must(topology.NewHierarchy(k, k, k))
		add(fmt.Sprintf("hierarchy %d", k), hi.G, strategy.HierarchyGateways(hi))
		g := must(topology.RandomConnected(7*k, 7*k/2, uint64(k)))
		add(fmt.Sprintf("random %d", 7*k), g, must(strategy.NewDecomposition(g)).Strategy())
	}
	return out
}

// TestRoutingMatchesReference holds the flat early-exit tables to the
// reference on every §3 topology: every Dist and NextHop, and the
// multicast cost of every node's posting and query set.
func TestRoutingMatchesReference(t *testing.T) {
	for _, w := range section3Worlds() {
		t.Run(w.name, func(t *testing.T) {
			r, ref := must(graph.NewRouting(w.g)), newRefRouting(w.g)
			n := w.g.N()
			if r.N() != n {
				t.Fatalf("N = %d, want %d", r.N(), n)
			}
			for u := range graph.NodeID(n) {
				for v := range graph.NodeID(n) {
					if d, want := r.Dist(u, v), ref.dist[u][v]; d != want {
						t.Fatalf("Dist(%d,%d) = %d, reference %d", u, v, d, want)
					}
					if h, want := r.NextHop(u, v), ref.next[u][v]; h != want {
						t.Fatalf("NextHop(%d,%d) = %d, reference %d", u, v, h, want)
					}
				}
				for what, set := range map[string][]graph.NodeID{"post": w.strat.Post(u), "query": w.strat.Query(u)} {
					c, err := r.MulticastCost(u, set)
					if want := ref.multicastCost(u, set); err != nil || c != want {
						t.Fatalf("MulticastCost(%d, %s set %v) = %d, %v; reference %d", u, what, set, c, err, want)
					}
				}
			}
		})
	}
}

// TestCompleteMatchesEdgeByEdge holds the directly written complete
// graph to the one n(n-1)/2 AddEdge calls build: the same adjacency
// lists in the same order, and the same edge count.
func TestCompleteMatchesEdgeByEdge(t *testing.T) {
	for _, n := range []int{0, 1, 2, 5, 16} {
		ref := graph.New(n)
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				ref.MustAddEdge(graph.NodeID(u), graph.NodeID(v))
			}
		}
		g := topology.Complete(n)
		if g.M() != ref.M() {
			t.Fatalf("Complete(%d) has %d edges, want %d", n, g.M(), ref.M())
		}
		for v := range graph.NodeID(n) {
			if got, want := g.Neighbors(v), ref.Neighbors(v); !slices.Equal(got, want) {
				t.Fatalf("Complete(%d): Neighbors(%d) = %v, want %v", n, v, got, want)
			}
		}
		if n > 2 { // the lists share one array: edits stay in their own list
			if err := g.RemoveNode(1); err != nil {
				t.Fatal(err)
			}
			g.MustAddEdge(1, 0)
			ref.RemoveNode(1)
			ref.MustAddEdge(1, 0)
			for v := range graph.NodeID(n) {
				if got, want := g.Neighbors(v), ref.Neighbors(v); !slices.Equal(got, want) {
					t.Fatalf("Complete(%d) after RemoveNode(1), AddEdge(1, 0): Neighbors(%d) = %v, want %v", n, v, got, want)
				}
			}
		}
	}
}

// TestRoutingAllocs is the deterministic ratchet on bring-up's graph
// layer at n = 64: building the complete graph, its routing tables (two
// flat tables, the struct and one BFS scratch) and a multicast cost
// (a pooled bitset).
func TestRoutingAllocs(t *testing.T) {
	g := topology.Complete(64)
	r := must(graph.NewRouting(g))
	set := rendezvous.Checkerboard(64).Post(5)
	for _, c := range []struct {
		what    string
		ceiling float64
		f       func()
	}{
		{"topology.Complete(64)", 4, func() { topology.Complete(64) }},
		{"graph.NewRouting(Complete(64))", 5, func() { must(graph.NewRouting(g)) }},
		{"Routing.MulticastCost", 0, func() { must(r.MulticastCost(5, set)) }},
	} {
		if got := testing.AllocsPerRun(100, c.f); got > c.ceiling {
			t.Errorf("%s: %.0f allocs, ceiling %.0f", c.what, got, c.ceiling)
		}
	}
}
