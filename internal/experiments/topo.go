package experiments

import (
	"fmt"
	"math"
	"math/rand/v2"

	"matchmake/internal/cluster"
	"matchmake/internal/core"
	"matchmake/internal/graph"
	"matchmake/internal/rendezvous"
	"matchmake/internal/stats"
	"matchmake/internal/strategy"
	"matchmake/internal/topology"
)

// measuredLocate runs register+locate pairs over the serving
// coordinator on the simulator and returns the mean post hops, mean
// locate hops (query flood + reply) and the largest cache that built up.
func measuredLocate(g *graph.Graph, strat rendezvous.Strategy, pairs [][2]graph.NodeID) (post, locate float64, maxCache int, err error) {
	tr, err := cluster.NewSimTransport(g, strat)
	if err != nil {
		return 0, 0, 0, err
	}
	defer tr.Close()
	var postHops, locateHops []float64
	for k, pair := range pairs {
		port := core.Port(fmt.Sprintf("svc-%d", k))
		h, err := hopsOf(tr, port, func() error { _, err := tr.Register(port, pair[0]); return err })
		if err != nil {
			return 0, 0, 0, err
		}
		postHops = append(postHops, h)
		if h, err = hopsOf(tr, port, func() error { _, err := tr.Locate(pair[1], port); return err }); err != nil {
			return 0, 0, 0, fmt.Errorf("locate %s: %w", port, err)
		}
		locateHops = append(locateHops, h)
	}
	for v := range g.N() {
		maxCache = max(maxCache, tr.Store().NodeSize(graph.NodeID(v)))
	}
	return stats.Summarize(postHops).Mean, stats.Summarize(locateHops).Mean, maxCache, nil
}

// hopsOf runs one operation on port and returns the message passes the
// network carried for it, which must equal the coordinator's charge.
func hopsOf(tr *cluster.SimTransport, port core.Port, op func() error) (float64, error) {
	tr.ResetPasses()
	before := tr.Hops()
	if err := op(); err != nil {
		return 0, err
	}
	if hops, charge := tr.Hops()-before, tr.Passes(); hops != charge {
		return 0, fmt.Errorf("%s: charged %d passes, the network carried %d", port, charge, hops)
	}
	return float64(tr.Passes()), nil
}

// samplePairs draws k random (server, client) pairs on an n-node
// universe.
func samplePairs(n, k int, seed uint64) [][2]graph.NodeID {
	rng := rand.New(rand.NewPCG(seed, seed^0x1f83d9abfb41bd6b))
	out := make([][2]graph.NodeID, k)
	for i := range out {
		out[i] = [2]graph.NodeID{graph.NodeID(rng.IntN(n)), graph.NodeID(rng.IntN(n))}
	}
	return out
}

// E06Manhattan measures the §3.1 claims: on p×q grids a full
// match-making instance costs O(p+q) real hops with caches of size O(√n),
// and on d-dimensional meshes the analytic cost scales as n^((d−1)/d).
func E06Manhattan() ([]Table, error) {
	grid := Table{
		ID:    "E6.1",
		Title: "Manhattan grids: measured hops vs 2√n",
		Note:  "post = row flood (q−1); locate = column flood + reply ≤ p−1 + (p+q); caches ≤ √n.",
		Columns: []string{
			"grid", "n", "post hops", "locate hops", "total", "2√n", "total/2√n", "max cache",
		},
	}
	for _, side := range []int{4, 8, 12, 16} {
		gr, err := topology.NewGrid(side, side)
		if err != nil {
			return nil, err
		}
		pairs := samplePairs(gr.G.N(), 24, uint64(side))
		post, locate, maxCache, err := measuredLocate(gr.G, strategy.Manhattan(gr), pairs)
		if err != nil {
			return nil, err
		}
		total := post + locate
		bound := 2 * math.Sqrt(float64(gr.G.N()))
		grid.Rows = append(grid.Rows, []string{
			fmt.Sprintf("%dx%d", side, side), itoa(gr.G.N()),
			f2(post), f2(locate), f2(total), f2(bound), f3(total / bound), itoa(maxCache),
		})
	}

	torus := Table{
		ID:      "E6.2",
		Title:   "torus (Stony Brook) variant",
		Note:    "wrap-around halves flood distances; the 2√n shape persists.",
		Columns: grid.Columns,
	}
	for _, side := range []int{8, 16} {
		to, err := topology.NewTorus(side, side)
		if err != nil {
			return nil, err
		}
		pairs := samplePairs(to.G.N(), 24, uint64(side)*7)
		post, locate, maxCache, err := measuredLocate(to.G, strategy.Manhattan(to), pairs)
		if err != nil {
			return nil, err
		}
		total := post + locate
		bound := 2 * math.Sqrt(float64(to.G.N()))
		torus.Rows = append(torus.Rows, []string{
			fmt.Sprintf("%dx%d", side, side), itoa(to.G.N()),
			f2(post), f2(locate), f2(total), f2(bound), f3(total / bound), itoa(maxCache),
		})
	}

	mesh := Table{
		ID:    "E6.3",
		Title: "d-dimensional meshes: m(n) = Θ(n^((d−1)/d))",
		Note:  "analytic #P+#Q per node; fitted exponent vs (d−1)/d.",
		Columns: []string{
			"d", "sizes", "m(n) series", "fitted exp", "(d−1)/d",
		},
	}
	for _, d := range []int{2, 3, 4} {
		var sides []int
		switch d {
		case 2:
			sides = []int{8, 12, 16, 24, 32}
		case 3:
			sides = []int{4, 6, 8, 10}
		default:
			sides = []int{3, 4, 5}
		}
		var ns, ms []float64
		series := ""
		for _, side := range sides {
			dims := make([]int, d)
			for i := range dims {
				dims[i] = side
			}
			me, err := topology.NewMesh(dims...)
			if err != nil {
				return nil, err
			}
			postAxes := make([]int, d-1)
			for i := range postAxes {
				postAxes[i] = i
			}
			s, err := strategy.MeshSplit(me, postAxes)
			if err != nil {
				return nil, err
			}
			cost := float64(len(s.Post(0)) + len(s.Query(0)))
			ns = append(ns, float64(me.G.N()))
			ms = append(ms, cost)
			if series != "" {
				series += " "
			}
			series += f2(cost)
		}
		exp := stats.PowerLawExponent(ns, ms)
		mesh.Rows = append(mesh.Rows, []string{
			itoa(d), fmt.Sprintf("%v", sides), series, f3(exp), f3(float64(d-1) / float64(d)),
		})
	}
	return []Table{grid, torus, mesh}, nil
}

// E07Hypercube reproduces §3.2: m(n) = 2·2^(d/2) = 2√n on even-d cubes,
// singleton rendezvous, and the ε-split trade-off.
func E07Hypercube() ([]Table, error) {
	main := Table{
		ID:    "E7.1",
		Title: "binary d-cubes: m(n) = 2·2^(d/2)",
		Note:  "exact for even d; measured hops include subcube floods and the reply.",
		Columns: []string{
			"d", "n", "m(n)", "2√n", "measured hops", "max cache", "√n",
		},
	}
	for _, d := range []int{4, 6, 8} {
		h, err := topology.NewHypercube(d)
		if err != nil {
			return nil, err
		}
		s, err := strategy.HalfCube(h)
		if err != nil {
			return nil, err
		}
		analytic := float64(len(s.Post(0)) + len(s.Query(0)))
		pairs := samplePairs(h.G.N(), 16, uint64(d))
		post, locate, maxCache, err := measuredLocate(h.G, s, pairs)
		if err != nil {
			return nil, err
		}
		main.Rows = append(main.Rows, []string{
			itoa(d), itoa(h.G.N()),
			f2(analytic), f2(2 * math.Sqrt(float64(h.G.N()))),
			f2(post + locate), itoa(maxCache), f2(math.Sqrt(float64(h.G.N()))),
		})
	}

	split := Table{
		ID:    "E7.2",
		Title: "ε-split trade-off on the 8-cube",
		Note:  "#P = 2^k vs #Q = 2^(d−k); minimum at k = d/2 — tune k to relative server immobility.",
		Columns: []string{
			"k", "#P", "#Q", "m = #P+#Q",
		},
	}
	h8, err := topology.NewHypercube(8)
	if err != nil {
		return nil, err
	}
	for k := 0; k <= 8; k++ {
		s, err := strategy.HypercubeSplit(h8, k)
		if err != nil {
			return nil, err
		}
		p := len(s.Post(0))
		q := len(s.Query(0))
		split.Rows = append(split.Rows, []string{itoa(k), itoa(p), itoa(q), itoa(p + q)})
	}
	return []Table{main, split}, nil
}

// E08CCC reproduces §3.3: on cube-connected cycles the tuned split costs
// m(n) = O(√(n·log n)) with caches of size O(√(n/log n)).
func E08CCC() ([]Table, error) {
	t := Table{
		ID:    "E8",
		Title: "cube-connected cycles",
		Note:  "m(n)/√(n·log₂n) and cache/√(n/log₂n) stay Θ(1) as d grows.",
		Columns: []string{
			"d", "n", "#P", "#Q", "m(n)", "m/√(n·lg n)", "cache", "cache/√(n/lg n)",
		},
	}
	for _, d := range []int{3, 4, 5, 6, 7, 8} {
		c, err := topology.NewCCC(d)
		if err != nil {
			return nil, err
		}
		s := strategy.CCCSplit(c)
		p := len(s.Post(0))
		q := len(s.Query(0))
		n := float64(c.G.N())
		lg := math.Log2(n)
		t.Rows = append(t.Rows, []string{
			itoa(d), itoa(c.G.N()), itoa(p), itoa(q), itoa(p + q),
			f3(float64(p+q) / math.Sqrt(n*lg)),
			itoa(p),
			f3(float64(p) / math.Sqrt(n/lg)),
		})
	}
	return []Table{t}, nil
}

// E09Projective reproduces §3.4: on PG(2,k), m(n) = 2(k+1) ≈ 2√n, and
// the method resists failures of whole lines as long as some live line
// pair still crosses.
func E09Projective() ([]Table, error) {
	cost := Table{
		ID:    "E9.1",
		Title: "projective planes PG(2,k)",
		Note:  "every instance costs exactly 2(k+1); n = k²+k+1 so 2(k+1) ≈ 2√n.",
		Columns: []string{
			"k", "n", "m(n)=2(k+1)", "2√n", "ratio",
		},
	}
	for _, k := range []int{2, 3, 5, 7, 11, 13} {
		p, err := topology.NewPlane(k)
		if err != nil {
			return nil, err
		}
		m := float64(2 * (k + 1))
		bound := 2 * math.Sqrt(float64(p.N()))
		cost.Rows = append(cost.Rows, []string{
			itoa(k), itoa(p.N()), f2(m), f2(bound), f3(m / bound),
		})
	}

	fail := Table{
		ID:    "E9.2",
		Title: "resilience to a full line failure",
		Note:  "crash all k+1 nodes of one line; pairs retry over their (k+1)² line choices.",
		Columns: []string{
			"k", "first-choice success", "with retries", "pairs sampled",
		},
	}
	rng := rand.New(rand.NewPCG(9, 9))
	for _, k := range []int{3, 5, 7} {
		p, err := topology.NewPlane(k)
		if err != nil {
			return nil, err
		}
		dead := make(map[graph.NodeID]bool)
		for _, v := range p.Lines[rng.IntN(len(p.Lines))] {
			dead[v] = true
		}
		const samples = 300
		firstOK, retryOK := 0, 0
		for t := 0; t < samples; t++ {
			s := graph.NodeID(rng.IntN(p.N()))
			c := graph.NodeID(rng.IntN(p.N()))
			if pairSucceeds(p, s, c, 0, p.K, dead) {
				firstOK++
			}
			found := false
			for pi := 0; pi <= p.K && !found; pi++ {
				for qi := 0; qi <= p.K && !found; qi++ {
					found = pairSucceeds(p, s, c, pi, qi, dead)
				}
			}
			if found {
				retryOK++
			}
		}
		fail.Rows = append(fail.Rows, []string{
			itoa(k),
			f3(float64(firstOK) / samples),
			f3(float64(retryOK) / samples),
			itoa(samples),
		})
	}
	return []Table{cost, fail}, nil
}

// pairSucceeds reports whether the plane pair (s, c) with given line
// choices shares a live rendezvous node.
func pairSucceeds(p *topology.Plane, s, c graph.NodeID, postLine, queryLine int, dead map[graph.NodeID]bool) bool {
	ls, err := p.LineThrough(s, postLine)
	if err != nil {
		return false
	}
	lc, err := p.LineThrough(c, queryLine)
	if err != nil {
		return false
	}
	for _, v := range rendezvous.Intersect(ls, lc) {
		if !dead[v] {
			return true
		}
	}
	return false
}
