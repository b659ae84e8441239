package matchmake

import (
	"fmt"
	"math"
	"math/rand"
	"sync/atomic"
	"testing"
	"time"

	"matchmake/internal/cluster"
	"matchmake/internal/core"
	"matchmake/internal/experiments"
	"matchmake/internal/graph"
	"matchmake/internal/rendezvous"
	"matchmake/internal/sim"
	"matchmake/internal/strategy"
	"matchmake/internal/topology"
)

// benchExperiment regenerates one experiment per iteration, reporting the
// number of result tables. Each benchmark corresponds to one paper
// artifact; see DESIGN.md's experiment index.
func benchExperiment(b *testing.B, id string) {
	e, ok := experiments.ByID(id)
	if !ok {
		b.Fatalf("experiment %s not registered", id)
	}
	b.ReportAllocs()
	tables := 0
	for i := 0; i < b.N; i++ {
		out, err := e.Run()
		if err != nil {
			b.Fatalf("%s: %v", id, err)
		}
		tables = len(out)
	}
	b.ReportMetric(float64(tables), "tables")
}

func BenchmarkE01Matrices(b *testing.B)      { benchExperiment(b, "E1") }
func BenchmarkE02Probabilistic(b *testing.B) { benchExperiment(b, "E2") }
func BenchmarkE03LowerBounds(b *testing.B)   { benchExperiment(b, "E3") }
func BenchmarkE04Checkerboard(b *testing.B)  { benchExperiment(b, "E4") }
func BenchmarkE05Lifting(b *testing.B)       { benchExperiment(b, "E5") }
func BenchmarkE06Manhattan(b *testing.B)     { benchExperiment(b, "E6") }
func BenchmarkE07Hypercube(b *testing.B)     { benchExperiment(b, "E7") }
func BenchmarkE08CCC(b *testing.B)           { benchExperiment(b, "E8") }
func BenchmarkE09Projective(b *testing.B)    { benchExperiment(b, "E9") }
func BenchmarkE10Hierarchy(b *testing.B)     { benchExperiment(b, "E10") }
func BenchmarkE11UUCP(b *testing.B)          { benchExperiment(b, "E11") }
func BenchmarkE12Lighthouse(b *testing.B)    { benchExperiment(b, "E12") }
func BenchmarkE13Hash(b *testing.B)          { benchExperiment(b, "E13") }
func BenchmarkE14Robustness(b *testing.B)    { benchExperiment(b, "E14") }
func BenchmarkE15Ring(b *testing.B)          { benchExperiment(b, "E15") }
func BenchmarkE16Weighted(b *testing.B)      { benchExperiment(b, "E16") }
func BenchmarkE17Decomposition(b *testing.B) { benchExperiment(b, "E17") }
func BenchmarkE18Families(b *testing.B)      { benchExperiment(b, "E18") }

// Micro-benchmarks: steady-state locate costs per topology, reporting the
// paper's cost measure (message passes) per operation.

func benchLocate(b *testing.B, g *graph.Graph, strat rendezvous.Strategy) {
	tr, err := cluster.NewSimTransport(g, strat)
	if err != nil {
		b.Fatal(err)
	}
	defer tr.Close()
	server := graph.NodeID(g.N() / 3)
	if _, err := tr.Register("bench", server); err != nil {
		b.Fatal(err)
	}
	clients := make([]graph.NodeID, 16)
	for i := range clients {
		clients[i] = graph.NodeID((i * 7919) % g.N())
	}
	before := tr.Hops()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tr.Locate(clients[i%len(clients)], "bench"); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(tr.Hops()-before)/float64(b.N), "hops/op")
	b.ReportMetric(2*math.Sqrt(float64(g.N())), "2√n")
}

func BenchmarkLocateCompleteCheckerboard(b *testing.B) {
	benchLocate(b, topology.Complete(256), rendezvous.Checkerboard(256))
}

func BenchmarkLocateGridManhattan(b *testing.B) {
	gr, err := topology.NewGrid(16, 16)
	if err != nil {
		b.Fatal(err)
	}
	benchLocate(b, gr.G, strategy.Manhattan(gr))
}

func BenchmarkLocateHypercubeHalf(b *testing.B) {
	h, err := topology.NewHypercube(8)
	if err != nil {
		b.Fatal(err)
	}
	s, err := strategy.HalfCube(h)
	if err != nil {
		b.Fatal(err)
	}
	benchLocate(b, h.G, s)
}

func BenchmarkLocateProjectivePlane(b *testing.B) {
	p, err := topology.NewPlane(13)
	if err != nil {
		b.Fatal(err)
	}
	benchLocate(b, p.G, strategy.PlaneLines(p))
}

func BenchmarkLocateRingBroadcast(b *testing.B) {
	g, err := topology.Ring(64)
	if err != nil {
		b.Fatal(err)
	}
	benchLocate(b, g, rendezvous.Broadcast(64))
}

func BenchmarkLocateDecompositionRandom(b *testing.B) {
	g, err := topology.RandomConnected(144, 80, 3)
	if err != nil {
		b.Fatal(err)
	}
	d, err := strategy.NewDecomposition(g)
	if err != nil {
		b.Fatal(err)
	}
	benchLocate(b, g, d.Strategy())
}

// BenchmarkClusterLocate measures the cluster serving layer on a
// 64-node network under Zipfian port popularity, for both transports
// and for the hot-path acceleration layer: hints=off is the cold full
// P∩Q flood, hints=on the probe-validated address-hint path (the
// acceptance bar: ≥5× the PR-1 mem baseline at 0 allocs/op), batch=16
// the request-grouped LocateBatch, and weighted the frequency-weighted
// strategy with the hottest ports promoted. It reports the paper's cost
// measure (message passes per locate) alongside ns/op, so the perf
// trajectory of the serving path is tracked across PRs.
func BenchmarkClusterLocate(b *testing.B) {
	const (
		n     = 64
		ports = 16
	)
	// Port names are precomputed so the measured loop doesn't bill a
	// Sprintf per locate to the serving path.
	names := make([]core.Port, ports)
	for p := range names {
		names[p] = core.Port(fmt.Sprintf("svc-%04d", p))
	}
	setup := func(b *testing.B, tr cluster.Transport, opts cluster.Options) *cluster.Cluster {
		b.Helper()
		c := cluster.New(tr, opts)
		b.Cleanup(func() { c.Close() })
		for p := 0; p < ports; p++ {
			if _, err := c.Register(names[p], graph.NodeID((p*7919)%n)); err != nil {
				b.Fatal(err)
			}
		}
		return c
	}
	report := func(b *testing.B, tr cluster.Transport, before int64) {
		b.ReportMetric(float64(tr.Passes()-before)/float64(b.N), "passes/locate")
	}
	// The workload tables are sampled once up front so the measured
	// loops don't bill the Zipf sampler's log/exp math to the serving
	// path; every goroutine walks the same tables from a different
	// offset.
	const sampleLen = 1 << 14
	samplePorts := make([]core.Port, sampleLen)
	sampleClients := make([]graph.NodeID, sampleLen)
	{
		rng := rand.New(rand.NewSource(1))
		zipf := rand.NewZipf(rng, 1.2, 1, ports-1)
		for i := range samplePorts {
			samplePorts[i] = names[zipf.Uint64()]
			sampleClients[i] = graph.NodeID(rng.Intn(n))
		}
	}
	runMemParallel := func(b *testing.B, c *cluster.Cluster, tr cluster.Transport) {
		var seq atomic.Int64
		b.ReportAllocs()
		before := tr.Passes()
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			i := int(seq.Add(1)) * 7919
			for pb.Next() {
				i++
				k := i & (sampleLen - 1)
				if _, err := c.Locate(sampleClients[k], samplePorts[k]); err != nil {
					b.Error(err)
					return
				}
			}
		})
		b.StopTimer()
		report(b, tr, before)
	}
	newMem := func(b *testing.B) *cluster.MemTransport {
		tr, err := cluster.NewMemTransport(topology.Complete(n), rendezvous.Checkerboard(n), 0)
		if err != nil {
			b.Fatal(err)
		}
		return tr
	}

	b.Run("transport=mem/hints=off", func(b *testing.B) {
		tr := newMem(b)
		runMemParallel(b, setup(b, tr, cluster.Options{}), tr)
	})

	// The anti-entropy loop enabled but quiescent: digest rounds keep
	// running in the background while the serving path is measured,
	// pinning the self-stabilization layer's idle cost — a converged
	// round is digest-only, charges zero passes and takes no store
	// locks the locate path contends on.
	b.Run("transport=mem/reconcile=idle", func(b *testing.B) {
		tr := newMem(b)
		c := setup(b, tr, cluster.Options{})
		tr.StartReconcile(50 * time.Millisecond)
		runMemParallel(b, c, tr)
	})

	b.Run("transport=mem/hints=on", func(b *testing.B) {
		tr := newMem(b)
		c := setup(b, tr, cluster.Options{Hints: true})
		// Prime every (client, port) hint so the measured loop is the
		// steady-state hit path.
		for cl := 0; cl < n; cl++ {
			for p := 0; p < ports; p++ {
				if _, err := c.Locate(graph.NodeID(cl), names[p]); err != nil {
					b.Fatal(err)
				}
			}
		}
		runMemParallel(b, c, tr)
	})

	b.Run("transport=mem/batch=16", func(b *testing.B) {
		tr := newMem(b)
		c := setup(b, tr, cluster.Options{})
		var seq atomic.Int64
		b.ReportAllocs()
		before := tr.Passes()
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			i := int(seq.Add(1)) * 7919
			reqs := make([]cluster.LocateReq, 16)
			res := make([]cluster.LocateRes, 16)
			for pb.Next() {
				// One iteration = one batched locate: fill a slot per
				// pb.Next() so ns/op stays per-locate comparable.
				i++
				k := i & (sampleLen - 1)
				reqs[0] = cluster.LocateReq{Client: sampleClients[k], Port: samplePorts[k]}
				filled := 1
				for filled < len(reqs) && pb.Next() {
					i++
					k = i & (sampleLen - 1)
					reqs[filled] = cluster.LocateReq{Client: sampleClients[k], Port: samplePorts[k]}
					filled++
				}
				if err := c.LocateBatch(reqs[:filled], res[:filled]); err != nil {
					b.Error(err)
					return
				}
			}
		})
		b.StopTimer()
		report(b, tr, before)
	})

	b.Run("transport=mem/weighted", func(b *testing.B) {
		hot, err := strategy.PostHeavy(n, strategy.AlphaQuerySize(n, 16))
		if err != nil {
			b.Fatal(err)
		}
		w, err := strategy.NewWeighted(rendezvous.Checkerboard(n), hot)
		if err != nil {
			b.Fatal(err)
		}
		lay, err := cluster.WeightedLayout(w)
		if err != nil {
			b.Fatal(err)
		}
		tr, err := cluster.NewLayoutMemTransport(topology.Complete(n), lay, 0)
		if err != nil {
			b.Fatal(err)
		}
		c := setup(b, tr, cluster.Options{HotPorts: 2})
		// Warm the popularity counters with the Zipf head, then promote.
		warm := rand.NewZipf(rand.New(rand.NewSource(1)), 1.2, 1, ports-1)
		for i := 0; i < 4096; i++ {
			if _, err := c.Locate(graph.NodeID(i%n), names[warm.Uint64()]); err != nil {
				b.Fatal(err)
			}
		}
		if err := c.ReclassifyHot(); err != nil {
			b.Fatal(err)
		}
		runMemParallel(b, c, tr)
	})

	// Voting: the Byzantine-tolerant locate path — every locate floods
	// all r=3 replica families and majority-votes the claims, so the
	// measured delta against transport=mem/hints=off is the price of
	// answer integrity on an honest cluster (~q× flood traffic; see
	// DESIGN.md's Byzantine section and EXPERIMENTS.md).
	b.Run("transport=mem/vote=on", func(b *testing.B) {
		lay, err := cluster.FixedLayout(n, rendezvous.Checkerboard(n), 3)
		if err != nil {
			b.Fatal(err)
		}
		tr, err := cluster.NewLayoutMemTransport(topology.Complete(n), lay, 0)
		if err != nil {
			b.Fatal(err)
		}
		runMemParallel(b, setup(b, tr, cluster.Options{VoteQuorum: 3}), tr)
	})

	runSim := func(b *testing.B, opts cluster.Options, prime bool) {
		tr, err := cluster.NewSimTransport(topology.Complete(n), rendezvous.Checkerboard(n))
		if err != nil {
			b.Fatal(err)
		}
		c := setup(b, tr, opts)
		rng := rand.New(rand.NewSource(1))
		zipf := rand.NewZipf(rng, 1.2, 1, ports-1)
		if prime {
			for cl := 0; cl < n; cl++ {
				for p := 0; p < ports; p++ {
					if _, err := c.Locate(graph.NodeID(cl), names[p]); err != nil {
						b.Fatal(err)
					}
				}
			}
		}
		b.ReportAllocs()
		before := tr.Passes()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := c.Locate(graph.NodeID(rng.Intn(n)), names[zipf.Uint64()]); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		report(b, tr, before)
	}

	b.Run("transport=sim/hints=off", func(b *testing.B) {
		runSim(b, cluster.Options{}, false)
	})

	b.Run("transport=sim/hints=on", func(b *testing.B) {
		runSim(b, cluster.Options{Hints: true}, true)
	})

	// transport=net: the same workload against a real 3-process
	// loopback node-shard cluster (spawned per subtest via the
	// MM_NET_NODE re-exec harness in bench_net_test.go), so the bench
	// gate prices the wire path too. The parallel variants raise
	// SetParallelism so the coalescer sees concurrent locates even on a
	// single-CPU host; coalesce=off runs the identical workload with
	// one flood frame per locate, so the pair is the measured price of
	// the wire coalescer.
	newNet := func(b *testing.B, opts cluster.NetOptions) *cluster.NetTransport {
		addrs := spawnBenchNetCluster(b, n, 3)
		tr, err := cluster.NewNetTransport(topology.Complete(n), rendezvous.Checkerboard(n), addrs, opts)
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(func() { tr.Close() })
		return tr
	}
	runNetParallel := func(b *testing.B, c *cluster.Cluster, tr cluster.Transport) {
		var seq atomic.Int64
		b.SetParallelism(8)
		b.ReportAllocs()
		before := tr.Passes()
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			i := int(seq.Add(1)) * 7919
			for pb.Next() {
				i++
				k := i & (sampleLen - 1)
				if _, err := c.Locate(sampleClients[k], samplePorts[k]); err != nil {
					b.Error(err)
					return
				}
			}
		})
		b.StopTimer()
		report(b, tr, before)
	}

	b.Run("transport=net/hints=off", func(b *testing.B) {
		tr := newNet(b, cluster.NetOptions{CallTimeout: 10 * time.Second})
		runNetParallel(b, setup(b, tr, cluster.Options{}), tr)
	})

	b.Run("transport=net/coalesce=off", func(b *testing.B) {
		tr := newNet(b, cluster.NetOptions{CallTimeout: 10 * time.Second, DisableCoalescing: true})
		runNetParallel(b, setup(b, tr, cluster.Options{}), tr)
	})

	b.Run("transport=net/hints=on", func(b *testing.B) {
		tr := newNet(b, cluster.NetOptions{CallTimeout: 10 * time.Second})
		c := setup(b, tr, cluster.Options{Hints: true})
		for cl := 0; cl < n; cl++ {
			for p := 0; p < ports; p++ {
				if _, err := c.Locate(graph.NodeID(cl), names[p]); err != nil {
					b.Fatal(err)
				}
			}
		}
		runNetParallel(b, c, tr)
	})

	b.Run("transport=net/batch=16", func(b *testing.B) {
		tr := newNet(b, cluster.NetOptions{CallTimeout: 10 * time.Second})
		c := setup(b, tr, cluster.Options{})
		var seq atomic.Int64
		b.SetParallelism(8)
		b.ReportAllocs()
		before := tr.Passes()
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			i := int(seq.Add(1)) * 7919
			reqs := make([]cluster.LocateReq, 16)
			res := make([]cluster.LocateRes, 16)
			for pb.Next() {
				// One iteration = one batched locate: fill a slot per
				// pb.Next() so ns/op stays per-locate comparable.
				i++
				k := i & (sampleLen - 1)
				reqs[0] = cluster.LocateReq{Client: sampleClients[k], Port: samplePorts[k]}
				filled := 1
				for filled < len(reqs) && pb.Next() {
					i++
					k = i & (sampleLen - 1)
					reqs[filled] = cluster.LocateReq{Client: sampleClients[k], Port: samplePorts[k]}
					filled++
				}
				if err := c.LocateBatch(reqs[:filled], res[:filled]); err != nil {
					b.Error(err)
					return
				}
			}
		})
		b.StopTimer()
		report(b, tr, before)
	})
}

// BenchmarkClusterStore isolates the sharded rendezvous cache: the
// read-mostly Get path under parallel load, with a trickle of writes.
func BenchmarkClusterStore(b *testing.B) {
	s := cluster.NewStore(64, 0)
	const ports = 64
	for p := 0; p < ports; p++ {
		for v := 0; v < 8; v++ {
			s.Put(graph.NodeID(v*8), core.Entry{
				Port: core.Port(fmt.Sprintf("svc-%04d", p)), Addr: graph.NodeID(p % 64),
				ServerID: uint64(p + 1), Time: s.NextTime(), Active: true,
			})
		}
	}
	var seq atomic.Int64
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		rng := rand.New(rand.NewSource(seq.Add(1)))
		i := 0
		for pb.Next() {
			port := core.Port(fmt.Sprintf("svc-%04d", rng.Intn(ports)))
			node := graph.NodeID(rng.Intn(8) * 8)
			if i%1024 == 0 {
				s.Put(node, core.Entry{Port: port, Addr: 1, ServerID: 99, Time: s.NextTime(), Active: true})
			} else {
				s.Get(node, port)
			}
			i++
		}
	})
}

// BenchmarkStoreFloodRead isolates the store layer of one in-process
// query flood: one port read at the 8 nodes of a checkerboard-64 query
// set, of which one holds the posting — Store.Rows once, then a row read
// per node. It must not allocate; run it with -cpu 1,2 -benchmem.
func BenchmarkStoreFloodRead(b *testing.B) {
	const (
		n     = 64
		ports = 64
	)
	s := cluster.NewStore(n, 0)
	strat := rendezvous.Checkerboard(n)
	names := make([]core.Port, ports)
	for p := range names {
		names[p] = core.Port(fmt.Sprintf("svc-%04d", p))
		home := graph.NodeID((p*47 + 5) % n)
		for _, v := range strat.Post(home) {
			s.Put(v, core.Entry{Port: names[p], Addr: home, ServerID: uint64(p + 1), Time: s.NextTime(), Active: true})
		}
	}
	queries := make([][]graph.NodeID, n)
	for c := range queries {
		queries[c] = strat.Query(graph.NodeID(c))
		if len(queries[c]) != 8 {
			b.Fatalf("query set of %d has %d nodes; want 8", c, len(queries[c]))
		}
	}
	var seq atomic.Int64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := int(seq.Add(1)) * 7919
		for pb.Next() {
			i++
			rows := s.Rows(names[i%ports])
			hits := 0
			for _, v := range queries[(i/ports)%n] {
				if _, ok := rows.Get(v); ok {
					hits++
				}
			}
			if hits == 0 {
				b.Error("a flood found no rendezvous node")
				return
			}
		}
	})
	b.StopTimer()
	if a := testing.AllocsPerRun(100, func() { s.Rows(names[3]).Get(queries[9][0]) }); a != 0 {
		b.Fatalf("a flood read allocates %v times; want 0", a)
	}
}

// BenchmarkMatrixBuild measures the analysis path: materializing and
// verifying a rendezvous matrix.
func BenchmarkMatrixBuild(b *testing.B) {
	for _, n := range []int{64, 144, 256} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			s := rendezvous.Checkerboard(n)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				m, err := rendezvous.Build(s)
				if err != nil {
					b.Fatal(err)
				}
				if err := m.Verify(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// Ablation benchmarks: quantify the design choices DESIGN.md calls out.

// BenchmarkAblationPostMulticastVsUnicast compares the spanning-tree
// flood used by the engine against naive per-target unicasts for the
// Manhattan row posting: the flood pays q−1 hops, unicast Θ(q²).
func BenchmarkAblationPostMulticastVsUnicast(b *testing.B) {
	gr, err := topology.NewGrid(16, 16)
	if err != nil {
		b.Fatal(err)
	}
	net, err := sim.New(gr.G)
	if err != nil {
		b.Fatal(err)
	}
	defer net.Close()
	row := gr.Row(7)
	src := gr.At(7, 8)

	b.Run("multicast", func(b *testing.B) {
		net.ResetCounters()
		for i := 0; i < b.N; i++ {
			if _, err := net.Multicast(src, row, "post"); err != nil {
				b.Fatal(err)
			}
		}
		net.Drain()
		b.ReportMetric(float64(net.Hops())/float64(b.N), "hops/op")
	})
	b.Run("unicast", func(b *testing.B) {
		net.ResetCounters()
		for i := 0; i < b.N; i++ {
			for _, target := range row {
				if err := net.Send(src, target, "post"); err != nil {
					b.Fatal(err)
				}
			}
		}
		net.Drain()
		b.ReportMetric(float64(net.Hops())/float64(b.N), "hops/op")
	})
}

// BenchmarkAblationRedundancy quantifies the §2.4 price of fault
// tolerance: posting cost grows linearly with the rendezvous redundancy.
func BenchmarkAblationRedundancy(b *testing.B) {
	for _, r := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("r=%d", r), func(b *testing.B) {
			tr, err := cluster.NewSimTransport(topology.Complete(64), rendezvous.RedundantCheckerboard(64, r))
			if err != nil {
				b.Fatal(err)
			}
			defer tr.Close()
			srv, err := tr.Register("bench", 9)
			if err != nil {
				b.Fatal(err)
			}
			before := tr.Hops()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := srv.Repost(); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(tr.Hops()-before)/float64(b.N), "hops/op")
		})
	}
}

// BenchmarkAblationHierarchyDepth sweeps the E10 depth trade-off as a
// benchmark: analytic per-locate message count by hierarchy shape.
func BenchmarkAblationHierarchyDepth(b *testing.B) {
	configs := map[string][]int{
		"k=1": {256},
		"k=2": {16, 16},
		"k=4": {4, 4, 4, 4},
	}
	for name, fanouts := range configs {
		b.Run(name, func(b *testing.B) {
			h, err := topology.NewHierarchy(fanouts...)
			if err != nil {
				b.Fatal(err)
			}
			s := strategy.HierarchyGateways(h)
			msgs := 0
			for i := 0; i < b.N; i++ {
				msgs = len(s.Post(5)) + len(s.Query(200))
			}
			b.ReportMetric(float64(msgs), "msgs/locate")
		})
	}
}

// BenchmarkPartition measures the Erdős √n decomposition.
func BenchmarkPartition(b *testing.B) {
	g, err := topology.RandomConnected(1024, 512, 9)
	if err != nil {
		b.Fatal(err)
	}
	target := int(math.Ceil(math.Sqrt(float64(g.N()))))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := graph.PartitionConnected(g, target); err != nil {
			b.Fatal(err)
		}
	}
}
