// Command mmsim runs one match-making simulation: build a topology,
// install its natural strategy, register servers, run client locates and
// report the message-pass accounting.
//
// Usage:
//
//	mmsim -topology grid -side 8 -servers 3 -locates 50
//	mmsim -topology hypercube -dim 6 -crash 2
//	mmsim -topology ring -n 64
//	mmsim -topology plane -order 7
//	mmsim -topology random -n 100
package main

import (
	"flag"
	"fmt"
	"math"
	"math/rand/v2"
	"os"

	"matchmake/internal/cluster"
	"matchmake/internal/core"
	"matchmake/internal/graph"
	"matchmake/internal/rendezvous"
	"matchmake/internal/stats"
	"matchmake/internal/strategy"
	"matchmake/internal/topology"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "mmsim:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("mmsim", flag.ContinueOnError)
	var (
		topo    = fs.String("topology", "grid", "grid|torus|hypercube|ccc|plane|ring|complete|random|hierarchy")
		side    = fs.Int("side", 8, "grid/torus side")
		dim     = fs.Int("dim", 6, "hypercube/ccc dimension")
		order   = fs.Int("order", 5, "projective plane order (prime)")
		n       = fs.Int("n", 64, "node count (ring/complete/random)")
		servers = fs.Int("servers", 3, "number of servers to register")
		locates = fs.Int("locates", 50, "number of client locates")
		crash   = fs.Int("crash", 0, "random nodes to crash before locating (a crashed node loses its cache and stops answering; routes through it still deliver)")
		seed    = fs.Uint64("seed", 1, "random seed")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	g, strat, err := buildTopology(*topo, *side, *dim, *order, *n, *seed)
	if err != nil {
		return err
	}
	fmt.Printf("network %s: %d nodes, %d edges; strategy %s\n",
		g.Name(), g.N(), g.M(), strat.Name())

	tr, err := cluster.NewSimTransport(g, strat)
	if err != nil {
		return err
	}
	defer tr.Close()

	rng := rand.New(rand.NewPCG(*seed, *seed^0xa54ff53a5f1d36f1))
	for i := 0; i < *servers; i++ {
		node := graph.NodeID(rng.IntN(g.N()))
		port := core.Port(fmt.Sprintf("svc-%d", i))
		before := tr.Hops()
		if _, err := tr.Register(port, node); err != nil {
			return fmt.Errorf("register %s: %w", port, err)
		}
		fmt.Printf("  server %-7s at node %-4d post hops %d\n", port, node, tr.Hops()-before)
	}

	for c := 0; c < *crash; c++ {
		v := graph.NodeID(rng.IntN(g.N()))
		if err := tr.Crash(v); err != nil {
			return err
		}
		fmt.Printf("  crashed node %d\n", v)
	}

	var hops []float64
	found := 0
	for i := 0; i < *locates; i++ {
		// A crashed client's locate fails: it counts as attempted, not
		// found.
		client := graph.NodeID(rng.IntN(g.N()))
		port := core.Port(fmt.Sprintf("svc-%d", rng.IntN(*servers)))
		before := tr.Hops()
		if _, err := tr.Locate(client, port); err == nil {
			found++
			hops = append(hops, float64(tr.Hops()-before))
		}
	}
	sum := stats.Summarize(hops)
	fmt.Printf("locates: %d attempted, %d found\n", *locates, found)
	fmt.Printf("hops/locate: mean %.1f  p50 %.1f  p95 %.1f  max %.0f  (2√n = %.1f)\n",
		sum.Mean, sum.P50, sum.P95, sum.Max, 2*math.Sqrt(float64(g.N())))
	maxCache := 0
	for v := range g.N() {
		maxCache = max(maxCache, tr.Store().NodeSize(graph.NodeID(v)))
	}
	fmt.Printf("max cache: %d entries\n", maxCache)
	return nil
}

func buildTopology(topo string, side, dim, order, n int, seed uint64) (*graph.Graph, rendezvous.Strategy, error) {
	switch topo {
	case "grid":
		gr, err := topology.NewGrid(side, side)
		if err != nil {
			return nil, nil, err
		}
		return gr.G, strategy.Manhattan(gr), nil
	case "torus":
		to, err := topology.NewTorus(side, side)
		if err != nil {
			return nil, nil, err
		}
		return to.G, strategy.Manhattan(to), nil
	case "hypercube":
		h, err := topology.NewHypercube(dim)
		if err != nil {
			return nil, nil, err
		}
		s, err := strategy.HalfCube(h)
		if err != nil {
			return nil, nil, err
		}
		return h.G, s, nil
	case "ccc":
		c, err := topology.NewCCC(dim)
		if err != nil {
			return nil, nil, err
		}
		return c.G, strategy.CCCSplit(c), nil
	case "plane":
		p, err := topology.NewPlane(order)
		if err != nil {
			return nil, nil, err
		}
		return p.G, strategy.PlaneLines(p), nil
	case "ring":
		g, err := topology.Ring(n)
		if err != nil {
			return nil, nil, err
		}
		return g, rendezvous.Broadcast(n), nil
	case "complete":
		g := topology.Complete(n)
		return g, rendezvous.Checkerboard(n), nil
	case "random":
		g, err := topology.RandomConnected(n, n/2, seed)
		if err != nil {
			return nil, nil, err
		}
		d, err := strategy.NewDecomposition(g)
		if err != nil {
			return nil, nil, err
		}
		return g, d.Strategy(), nil
	case "hierarchy":
		h, err := topology.NewHierarchy(4, 4, 4)
		if err != nil {
			return nil, nil, err
		}
		return h.G, strategy.HierarchyGateways(h), nil
	default:
		return nil, nil, fmt.Errorf("unknown topology %q", topo)
	}
}
