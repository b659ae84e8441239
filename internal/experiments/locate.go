package experiments

import (
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"sort"

	"matchmake/internal/cluster"
	"matchmake/internal/core"
	"matchmake/internal/graph"
	"matchmake/internal/hashlocate"
	"matchmake/internal/lighthouse"
	"matchmake/internal/rendezvous"
	"matchmake/internal/sim"
	"matchmake/internal/stats"
	"matchmake/internal/strategy"
	"matchmake/internal/topology"
)

// E12Lighthouse reproduces §4: locate effort versus server density,
// schedule comparison (fixed, doubling, ruler), trail-lifetime effect,
// and the beam mapping onto a point-to-point network.
func E12Lighthouse() ([]Table, error) {
	const (
		planeSide = 96
		beamLen   = 16
		period    = 6
		ttl       = 24
		maxTrials = 6000
		clients   = 40
	)
	density := Table{
		ID:    "E12.1",
		Title: "locate effort vs server density",
		Note:  "ruler schedule, l=4; denser planes are found in fewer trials.",
		Columns: []string{
			"servers", "density s (per cell)", "mean trials", "mean cells probed", "found",
		},
	}
	for _, servers := range []int{1, 4, 16, 64} {
		trials, probes, found, err := lighthouseRun(planeSide, servers, beamLen, period, ttl,
			lighthouse.RulerSchedule{L: 4, Gap: 1}, maxTrials, clients, 100+uint64(servers))
		if err != nil {
			return nil, err
		}
		density.Rows = append(density.Rows, []string{
			itoa(servers),
			fmt.Sprintf("%.5f", float64(servers)/float64(planeSide*planeSide)),
			f2(trials), f2(probes), f3(found),
		})
	}

	sched := Table{
		ID:    "E12.2",
		Title: "client schedules at fixed density (16 servers)",
		Note:  "doubling and the binary-counter ruler adapt effort; fixed short beams can miss.",
		Columns: []string{
			"schedule", "mean trials", "mean cells probed", "mean ticks", "found",
		},
	}
	schedules := []lighthouse.Schedule{
		lighthouse.FixedSchedule{L: 4, Gap: 1},
		lighthouse.FixedSchedule{L: 16, Gap: 1},
		lighthouse.DoublingSchedule{L: 2, Gap: 1, E: 3},
		lighthouse.RulerSchedule{L: 2, Gap: 1},
	}
	for _, sc := range schedules {
		trials, probes, found, ticks, err := lighthouseRunTicks(planeSide, 16, beamLen, period, ttl,
			sc, maxTrials, clients, 777)
		if err != nil {
			return nil, err
		}
		sched.Rows = append(sched.Rows, []string{
			sc.Name(), f2(trials), f2(probes), f2(ticks), f3(found),
		})
	}

	ttlT := Table{
		ID:    "E12.3",
		Title: "trail lifetime d effect (16 servers, ruler l=4)",
		Note:  "longer-lived trails light more of the plane: fewer trials needed.",
		Columns: []string{
			"trail ttl d", "mean trials", "mean cells probed", "found",
		},
	}
	for _, d := range []int{3, 12, 48} {
		trials, probes, found, err := lighthouseRun(planeSide, 16, beamLen, period, d,
			lighthouse.RulerSchedule{L: 4, Gap: 1}, maxTrials, clients, 300+uint64(d))
		if err != nil {
			return nil, err
		}
		ttlT.Rows = append(ttlT.Rows, []string{itoa(d), f2(trials), f2(probes), f3(found)})
	}

	drift := Table{
		ID:    "E12.5",
		Title: "server drifting near mid-search: ruler vs doubling",
		Note:  "a server appears near the client at tick 300; doubling is stuck in long intervals while the ruler's recurring short beams catch it quickly — the §4 'less time-loss' claim.",
		Columns: []string{
			"schedule", "mean extra ticks after appearance", "found",
		},
	}
	for _, sc := range []lighthouse.Schedule{
		lighthouse.DoublingSchedule{L: 2, Gap: 1, E: 3},
		lighthouse.RulerSchedule{L: 2, Gap: 1},
	} {
		const (
			runs   = 30
			wakeAt = 300
		)
		extraSum, hits := 0.0, 0
		for run := 0; run < runs; run++ {
			plane, err := lighthouse.NewPlane(64, 64, 900+uint64(run))
			if err != nil {
				return nil, err
			}
			// The server wakes close to the client and keeps drifting; its
			// beams are long-lived so any nearby probe sees them.
			srv, err := plane.AddDormantServer("svc", lighthouse.Point{X: 8, Y: 8}, 10, 2, 40, wakeAt)
			if err != nil {
				return nil, err
			}
			srv.DriftEvery = 4
			res := plane.Locate("svc", lighthouse.Point{X: 4, Y: 4}, sc, 4000)
			if res.Found {
				hits++
				extra := float64(res.Ticks - wakeAt)
				if extra < 0 {
					extra = 0
				}
				extraSum += extra
			}
		}
		found := float64(hits) / runs
		mean := 0.0
		if hits > 0 {
			mean = extraSum / float64(hits)
		}
		drift.Rows = append(drift.Rows, []string{sc.Name(), f2(mean), f3(found)})
	}

	netT := Table{
		ID:    "E12.4",
		Title: "beams over a point-to-point network (torus 16×16)",
		Note:  "routing tables used back-to-front simulate straight-line beams (§4).",
		Columns: []string{
			"servers", "mean trials", "mean nodes probed", "found",
		},
	}
	for _, servers := range []int{1, 4, 16} {
		to, err := topology.NewTorus(16, 16)
		if err != nil {
			return nil, err
		}
		nl, err := lighthouse.NewNetLighthouse(to.G, 55+uint64(servers))
		if err != nil {
			return nil, err
		}
		rng := rand.New(rand.NewPCG(60, uint64(servers)))
		for s := 0; s < servers; s++ {
			node := graph.NodeID(rng.IntN(to.G.N()))
			if _, err := nl.AddServer("svc", node, 8, period, ttl); err != nil {
				return nil, err
			}
		}
		for i := 0; i < 10; i++ {
			nl.Tick()
		}
		var trials, probes []float64
		found := 0
		for c := 0; c < clients; c++ {
			res, err := nl.Locate("svc", graph.NodeID(rng.IntN(to.G.N())),
				lighthouse.RulerSchedule{L: 3, Gap: 1}, maxTrials)
			if err != nil {
				return nil, err
			}
			trials = append(trials, float64(res.Trials))
			probes = append(probes, float64(res.NodesProbed))
			if res.Found {
				found++
			}
		}
		netT.Rows = append(netT.Rows, []string{
			itoa(servers),
			f2(stats.Summarize(trials).Mean),
			f2(stats.Summarize(probes).Mean),
			f3(float64(found) / clients),
		})
	}
	return []Table{density, sched, ttlT, netT, drift}, nil
}

func lighthouseRun(side, servers, beamLen, period, ttl int, sc lighthouse.Schedule, maxTrials, clients int, seed uint64) (trials, probes, found float64, err error) {
	t, p, f, _, err := lighthouseRunTicks(side, servers, beamLen, period, ttl, sc, maxTrials, clients, seed)
	return t, p, f, err
}

func lighthouseRunTicks(side, servers, beamLen, period, ttl int, sc lighthouse.Schedule, maxTrials, clients int, seed uint64) (trials, probes, found, ticks float64, err error) {
	plane, err := lighthouse.NewPlane(side, side, seed)
	if err != nil {
		return 0, 0, 0, 0, err
	}
	rng := rand.New(rand.NewPCG(seed, seed^0xdeadbeefcafef00d))
	for s := 0; s < servers; s++ {
		pos := lighthouse.Point{X: rng.IntN(side), Y: rng.IntN(side)}
		if _, err := plane.AddServer("svc", pos, beamLen, period, ttl); err != nil {
			return 0, 0, 0, 0, err
		}
	}
	plane.TickN(2 * period)
	var ts, ps, ks []float64
	hits := 0
	for c := 0; c < clients; c++ {
		pos := lighthouse.Point{X: rng.IntN(side), Y: rng.IntN(side)}
		res := plane.Locate("svc", pos, sc, maxTrials)
		ts = append(ts, float64(res.Trials))
		ps = append(ps, float64(res.CellsProbed))
		ks = append(ks, float64(res.Ticks))
		if res.Found {
			hits++
		}
		plane.Compact()
	}
	return stats.Summarize(ts).Mean, stats.Summarize(ps).Mean,
		float64(hits) / float64(clients), stats.Summarize(ks).Mean, nil
}

// E13Hash reproduces §5: Hash Locate's two-message matches, its balanced
// load, its fragility to rendezvous crashes, and the replication/rehash
// mitigations.
func E13Hash() ([]Table, error) {
	const n = 256
	cost := Table{
		ID:    "E13.1",
		Title: "hash locate vs shotgun cost",
		Note:  "hash: 1 post + 2 hops per locate; shotgun checkerboard: Θ(√n) each.",
		Columns: []string{
			"method", "post msgs", "locate hops (mean)",
		},
	}
	// Hash side.
	hs, err := hashTransport(n, 1, 1)
	if err != nil {
		return nil, err
	}
	defer hs.Close()
	hashPostHops, err := hopsOf(hs, "svc", func() error { _, err := hs.Register("svc", 3); return err })
	if err != nil {
		return nil, err
	}
	var hops []float64
	rng := rand.New(rand.NewPCG(13, 31))
	for i := 0; i < 30; i++ {
		client := graph.NodeID(rng.IntN(n))
		h, err := hopsOf(hs, "svc", func() error { _, err := hs.Locate(client, "svc"); return err })
		if err != nil {
			return nil, err
		}
		hops = append(hops, h)
	}
	cost.Rows = append(cost.Rows, []string{"hash", f2(hashPostHops), f2(stats.Summarize(hops).Mean)})

	// Shotgun side.
	pairs := samplePairs(n, 30, 77)
	post, locate, _, err := measuredLocate(topology.Complete(n), rendezvous.Checkerboard(n), pairs)
	if err != nil {
		return nil, err
	}
	cost.Rows = append(cost.Rows, []string{"shotgun 2√n", f2(post), f2(locate)})

	load := Table{
		ID:    "E13.2",
		Title: "hash load distribution (1000 ports on 256 nodes)",
		Note:  "a well-chosen hash spreads the locate burden over the network.",
		Columns: []string{
			"total entries", "mean per node", "max per node",
		},
	}
	hl, err := hashTransport(n, 1, 1)
	if err != nil {
		return nil, err
	}
	defer hl.Close()
	for i := 0; i < 1000; i++ {
		if _, err := hl.Register(core.Port(fmt.Sprintf("p%d", i)), graph.NodeID(i%n)); err != nil {
			return nil, err
		}
	}
	sizes := cacheSizes(hl)
	total := 0
	for _, s := range sizes {
		total += s
	}
	load.Rows = append(load.Rows, []string{
		itoa(total), f2(stats.MeanInts(sizes)), itoa(stats.MaxInts(sizes)),
	})

	crash := Table{
		ID:    "E13.3",
		Title: "vulnerability to rendezvous crashes",
		Note:  "one crash kills a hash-located service network-wide; shotgun loses only the pairs whose singleton rendezvous died; replication/rehash recover.",
		Columns: []string{
			"method", "locate success after crash",
		},
	}
	// "hash r=3" hashes a port onto three addresses; "hash rehash" onto
	// one, with two backup attempts.
	for _, h := range []struct {
		name            string
		addrs, attempts int
	}{{"hash r=1", 1, 1}, {"hash r=3", 3, 1}, {"hash rehash", 1, 3}} {
		row, err := hashCrashRow(h.name, h.addrs, h.attempts, n)
		if err != nil {
			return nil, err
		}
		crash.Rows = append(crash.Rows, row)
	}

	// Shotgun: crash the same count of nodes (1) and sample clients.
	strat := rendezvous.Checkerboard(n)
	tr, err := cluster.NewSimTransport(topology.Complete(n), strat)
	if err != nil {
		return nil, err
	}
	defer tr.Close()
	if _, err := tr.Register("svc", 3); err != nil {
		return nil, err
	}
	// Crash one of the server's posting row nodes.
	victim := strat.Post(3)[0]
	if err := tr.Crash(victim); err != nil {
		return nil, err
	}
	ok := 0
	const samples = 40
	for i := 0; i < samples; i++ {
		client := graph.NodeID(rng.IntN(n))
		if client == victim {
			continue
		}
		if _, err := tr.Locate(client, "svc"); err == nil {
			ok++
		}
	}
	crash.Rows = append(crash.Rows, []string{"shotgun 2√n", f3(float64(ok) / samples)})

	neigh, err := neighborhoodTable()
	if err != nil {
		return nil, err
	}
	return []Table{cost, load, crash, neigh}, nil
}

// neighborhoodTable exercises the §5 generalization P,Q : U×Π → 2^U —
// services hashed onto neighborhoods of a hierarchy, with Amoeba-style
// visibility scopes.
func neighborhoodTable() (Table, error) {
	t := Table{
		ID:    "E13.4",
		Title: "neighborhood hashing on a 4×4×4 hierarchy",
		Note:  "local services resolve at level 1 with one query; cross-campus ones climb to their LCA; out-of-scope services stay invisible.",
		Columns: []string{
			"scenario", "resolved level", "rendezvous queried", "found",
		},
	}
	h, err := topology.NewHierarchy(4, 4, 4)
	if err != nil {
		return t, err
	}
	net, err := sim.New(h.G)
	if err != nil {
		return t, err
	}
	defer net.Close()
	nb, err := hashlocate.NewNeighborhood(net, h)
	if err != nil {
		return t, err
	}
	if _, err := nb.Post("local-fs", 1, 1); err != nil {
		return t, err
	}
	if _, err := nb.Post("campus-db", 1, 2); err != nil {
		return t, err
	}
	if _, err := nb.Post("global-auth", 1, 3); err != nil {
		return t, err
	}
	rows := []struct {
		name   string
		client graph.NodeID
		port   core.Port
	}{
		{"same cluster, local service", 2, "local-fs"},
		{"same campus, campus service", 12, "campus-db"},
		{"cross campus, global service", 60, "global-auth"},
		{"cross campus, local service", 60, "local-fs"},
	}
	for _, row := range rows {
		res, err := nb.Locate(row.client, row.port)
		if err != nil {
			t.Rows = append(t.Rows, []string{row.name, "-", itoa(res.Queried), "false"})
			continue
		}
		t.Rows = append(t.Rows, []string{row.name, itoa(res.Level), itoa(res.Queried), "true"})
	}
	return t, nil
}

// hashTransport serves Hash Locate on the complete n-node network: a
// port hashed onto addrs addresses, tried in attempts rehash attempts.
// The epoch's strategy is never read under hash; Central is the
// cheapest to build.
func hashTransport(n, addrs, attempts int) (*cluster.SimTransport, error) {
	lay, err := cluster.FixedLayout(n, rendezvous.Central(n, 0), attempts)
	if err != nil {
		return nil, err
	}
	lay.Hash = addrs
	return cluster.NewLayoutSimTransport(topology.Complete(n), lay)
}

// cacheSizes is the number of entries each node of tr caches.
func cacheSizes(tr *cluster.SimTransport) []int {
	sizes := make([]int, tr.N())
	for v := range sizes {
		sizes[v] = tr.Store().NodeSize(graph.NodeID(v))
	}
	return sizes
}

// hashCrashRow is locate success after the first address of a port's
// primary hash set crashed. The server posted to every rehash attempt's
// addresses up front, so no re-post is needed to recover.
func hashCrashRow(name string, addrs, attempts, n int) ([]string, error) {
	hs, err := hashTransport(n, addrs, attempts)
	if err != nil {
		return nil, err
	}
	defer hs.Close()
	primary := strategy.HashSet("svc", 0, addrs, n)
	server := graph.NodeID(0)
	for isIn(primary, server) {
		server++
	}
	if _, err := hs.Register("svc", server); err != nil {
		return nil, err
	}
	if err := hs.Crash(primary[0]); err != nil {
		return nil, err
	}
	ok, samples := 0, 40
	rng := rand.New(rand.NewPCG(5, 5))
	for i := 0; i < samples; i++ {
		client := graph.NodeID(rng.IntN(n))
		if client == primary[0] || client == server {
			continue
		}
		if _, err := hs.Locate(client, "svc"); err == nil {
			ok++
		}
	}
	return []string{name, f3(float64(ok) / float64(samples))}, nil
}

func isIn(s []graph.NodeID, v graph.NodeID) bool {
	for _, x := range s {
		if x == v {
			return true
		}
	}
	return false
}

// E14Robustness reproduces §2.4: with #(P∩Q) ≥ f+1 the match survives up
// to f crashed rendezvous nodes; redundancy costs r× the posting.
func E14Robustness() ([]Table, error) {
	const n = 64
	t := Table{
		ID:    "E14",
		Title: "f+1 redundant rendezvous under worst-case crashes",
		Note:  "crash f nodes of the pair's own rendezvous set: r > f survives, r = f fails.",
		Columns: []string{
			"redundancy r", "m(n)", "survives f=r−1", "fails at f=r", "random-crash success (f=2)",
		},
	}
	for _, r := range []int{1, 2, 3, 4} {
		strat := rendezvous.RedundantCheckerboard(n, r)
		m, err := rendezvous.Build(strat)
		if err != nil {
			return nil, err
		}
		// Worst-case: crash exactly f nodes of the rendezvous set of a
		// fixed pair.
		server, client := graph.NodeID(9), graph.NodeID(54)
		meet := rendezvous.Intersect(strat.Post(server), strat.Query(client))
		surviveF := simulateCrashLocate(n, strat, server, client, meet[:r-1])
		failAtR := simulateCrashLocate(n, strat, server, client, meet[:r])
		// Random crashes f=2 across many client samples.
		okRate, err := randomCrashRate(n, strat, 2, 40)
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{
			itoa(r), f2(m.AvgCost()),
			fmt.Sprintf("%v", surviveF), fmt.Sprintf("%v", !failAtR),
			f3(okRate),
		})
	}
	return []Table{t}, nil
}

// simulateCrashLocate reports whether a locate succeeds after crashing
// the given rendezvous nodes.
func simulateCrashLocate(n int, strat rendezvous.Strategy, server, client graph.NodeID, crash []graph.NodeID) bool {
	tr, err := cluster.NewSimTransport(topology.Complete(n), strat)
	if err != nil {
		return false
	}
	defer tr.Close()
	if _, err := tr.Register("svc", server); err != nil {
		return false
	}
	for _, v := range crash {
		if err := tr.Crash(v); err != nil {
			return false
		}
	}
	_, err = tr.Locate(client, "svc")
	return err == nil
}

// randomCrashRate measures locate success with f random non-endpoint
// crashes.
func randomCrashRate(n int, strat rendezvous.Strategy, f, samples int) (float64, error) {
	tr, err := cluster.NewSimTransport(topology.Complete(n), strat)
	if err != nil {
		return 0, err
	}
	defer tr.Close()
	server := graph.NodeID(9)
	if _, err := tr.Register("svc", server); err != nil {
		return 0, err
	}
	rng := rand.New(rand.NewPCG(14, uint64(f)))
	crashed := map[graph.NodeID]bool{}
	for len(crashed) < f {
		v := graph.NodeID(rng.IntN(n))
		if v != server && !crashed[v] {
			if err := tr.Crash(v); err != nil {
				return 0, err
			}
			crashed[v] = true
		}
	}
	ok, tried := 0, 0
	for i := 0; i < samples; i++ {
		client := graph.NodeID(rng.IntN(n))
		if crashed[client] {
			continue
		}
		tried++
		if _, err := tr.Locate(client, "svc"); err == nil {
			ok++
		}
	}
	if tried == 0 {
		return 0, errors.New("no live clients sampled")
	}
	return float64(ok) / float64(tried), nil
}

// e18Row measures one rendezvous family on the serving coordinator:
// post and mean locate hops, each held to its charge, the total cache
// footprint, and locate success after one crash.
func e18Row(strat rendezvous.Strategy, rng *rand.Rand) ([]string, error) {
	n := strat.N()
	tr, err := cluster.NewSimTransport(topology.Complete(n), strat)
	if err != nil {
		return nil, err
	}
	defer tr.Close()
	server := graph.NodeID(9)
	postHops, err := hopsOf(tr, "svc", func() error { _, err := tr.Register("svc", server); return err })
	if err != nil {
		return nil, err
	}
	var locHops []float64
	for i := 0; i < 20; i++ {
		client := graph.NodeID(rng.IntN(n))
		h, err := hopsOf(tr, "svc", func() error { _, err := tr.Locate(client, "svc"); return err })
		if err != nil {
			return nil, err
		}
		locHops = append(locHops, h)
	}
	cacheTotal := 0
	for v := range n {
		cacheTotal += tr.Store().NodeSize(graph.NodeID(v))
	}
	// Crash one random rendezvous-capable node (not the server); for the
	// centralized strategy the only meaningful victim is the name server
	// itself.
	victim := graph.NodeID(1 + rng.IntN(n-1))
	for victim == server {
		victim = graph.NodeID(1 + rng.IntN(n-1))
	}
	if strat.Name() == rendezvous.Central(n, 0).Name() {
		victim = 0
	}
	if err := tr.Crash(victim); err != nil {
		return nil, err
	}
	ok, tried := 0, 0
	for i := 0; i < 8; i++ {
		client := graph.NodeID(rng.IntN(n))
		if client == victim {
			continue
		}
		tried++
		if _, err := tr.Locate(client, "svc"); err == nil {
			ok++
		}
	}
	return []string{
		strat.Name(), f2(postHops), f2(stats.Summarize(locHops).Mean),
		itoa(cacheTotal), f3(float64(ok) / float64(tried)),
	}, nil
}

// E15Ring reproduces §2.3.5: on rings no match-making beats Ω(n), while
// the same strategies on grids cost Θ(√n).
func E15Ring() ([]Table, error) {
	t := Table{
		ID:    "E15",
		Title: "rings force Ω(n); grids allow Θ(√n)",
		Note:  "measured mean hops per full match (post+locate); checkerboard on a ring still pays Θ(n) in routing.",
		Columns: []string{
			"topology", "n", "strategy", "mean hops", "hops/n", "hops/2√n",
		},
	}
	for _, n := range []int{16, 64, 144} {
		ring, err := topology.Ring(n)
		if err != nil {
			return nil, err
		}
		for _, strat := range []rendezvous.Strategy{
			rendezvous.Broadcast(n),
			rendezvous.Checkerboard(n),
		} {
			pairs := samplePairs(n, 16, uint64(n))
			post, locate, _, err := measuredLocate(ring, strat, pairs)
			if err != nil {
				return nil, err
			}
			total := post + locate
			t.Rows = append(t.Rows, []string{
				"ring", itoa(n), strat.Name(), f2(total),
				f3(total / float64(n)), f3(total / (2 * math.Sqrt(float64(n)))),
			})
		}
		side := int(math.Sqrt(float64(n)))
		gr, err := topology.NewGrid(side, side)
		if err != nil {
			return nil, err
		}
		pairs := samplePairs(n, 16, uint64(n)*3)
		post, locate, _, err := measuredLocate(gr.G, strategy.Manhattan(gr), pairs)
		if err != nil {
			return nil, err
		}
		total := post + locate
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("grid %dx%d", side, side), itoa(n), "manhattan", f2(total),
			f3(total / float64(n)), f3(total / (2 * math.Sqrt(float64(n)))),
		})
	}
	return []Table{t}, nil
}

// E16Weighted reproduces the (M3′) adjustment: when queries are α times
// more frequent than posts, the optimal grid split shifts to
// p = √(n/α) rows, with cost 2√(αn). A second table measures the live
// serving realization (strategy.Weighted over the cluster fast path):
// promoting the observed-hot ports of a Zipf workload to the post-heavy
// split lowers the measured message passes per locate.
func E16Weighted() ([]Table, error) {
	const n = 64
	t := Table{
		ID:    "E16",
		Title: "frequency-weighted Manhattan splits (n = 64)",
		Note:  "minimize #P + α·#Q = q + α·p over p·q = n; optimum 2√(αn).",
		Columns: []string{
			"α", "best p×q", "weighted cost", "2√(αn)", "balanced 8×8 cost",
		},
	}
	for _, alpha := range []float64{0.25, 1, 4, 16} {
		p, q, cost := strategy.OptimalGridSplit(n, alpha)
		balanced := 8 + alpha*8
		t.Rows = append(t.Rows, []string{
			f2(alpha),
			fmt.Sprintf("%dx%d", p, q),
			f2(cost),
			f2(2 * math.Sqrt(alpha*n)),
			f2(balanced),
		})
	}
	measured, err := e16Measured(n)
	if err != nil {
		return nil, err
	}
	return []Table{t, measured}, nil
}

// e16Measured runs the same Zipf locate sample against the balanced
// checkerboard and against the weighted strategy with the top-2 ports
// promoted, reporting measured passes/locate on the in-process fast
// path.
func e16Measured(n int) (Table, error) {
	const (
		ports   = 8
		locates = 4000
	)
	t := Table{
		ID:    "E16",
		Title: "measured weighted serving (mem transport, Zipf s=1.2)",
		Note:  "top-2 ports promoted to the post-heavy split (α=16 ⇒ #Q=2); same sample both rows.",
		Columns: []string{
			"strategy", "hot ports", "passes/locate",
		},
	}
	hot, err := strategy.PostHeavy(n, strategy.AlphaQuerySize(n, 16))
	if err != nil {
		return t, err
	}
	w, err := strategy.NewWeighted(rendezvous.Checkerboard(n), hot)
	if err != nil {
		return t, err
	}
	// One deterministic Zipf sample, replayed against both configs.
	rng := rand.New(rand.NewPCG(42, 7))
	zipf := rand.NewZipf(rng, 1.2, 1, ports-1)
	sample := make([]struct {
		client graph.NodeID
		port   core.Port
	}, locates)
	counts := make(map[core.Port]int, ports)
	for i := range sample {
		sample[i].client = graph.NodeID(rng.IntN(n))
		sample[i].port = core.Port(fmt.Sprintf("svc-%04d", zipf.Uint64()))
		counts[sample[i].port]++
	}
	top := make([]core.Port, 0, len(counts))
	for p := range counts {
		top = append(top, p)
	}
	sort.Slice(top, func(i, j int) bool {
		if counts[top[i]] != counts[top[j]] {
			return counts[top[i]] > counts[top[j]]
		}
		return top[i] < top[j]
	})
	if len(top) > 2 {
		top = top[:2]
	}

	run := func(promote bool) (float64, error) {
		lay, err := cluster.WeightedLayout(w)
		if err != nil {
			return 0, err
		}
		tr, err := cluster.NewLayoutMemTransport(topology.Complete(n), lay, 0)
		if err != nil {
			return 0, err
		}
		for p := 0; p < ports; p++ {
			if _, err := tr.Register(core.Port(fmt.Sprintf("svc-%04d", p)), graph.NodeID((p*7919)%n)); err != nil {
				return 0, err
			}
		}
		if promote {
			if err := tr.SetHotPorts(top); err != nil {
				return 0, err
			}
		}
		tr.ResetPasses()
		for _, s := range sample {
			if _, err := tr.Locate(s.client, s.port); err != nil {
				return 0, err
			}
		}
		return float64(tr.Passes()) / float64(locates), nil
	}
	base, err := run(false)
	if err != nil {
		return t, err
	}
	weighted, err := run(true)
	if err != nil {
		return t, err
	}
	t.Rows = append(t.Rows,
		[]string{"checkerboard-64 (balanced)", "0", f2(base)},
		[]string{"weighted checkerboard + post-heavy", "2", f2(weighted)},
	)
	return t, nil
}

// E17Decomposition reproduces the generic §3 method: O(√n) connected
// parts on arbitrary connected graphs, server posts O(n), client
// broadcasts ≤ √n, caches O(√n).
func E17Decomposition() ([]Table, error) {
	t := Table{
		ID:    "E17",
		Title: "√n decomposition on arbitrary connected graphs",
		Note:  "server addresses one node per part; client floods its own part.",
		Columns: []string{
			"graph", "n", "parts", "max part", "#P", "max #Q", "mean locate hops",
		},
	}
	graphs := []struct {
		name string
		g    *graph.Graph
	}{}
	if g, err := topology.RandomConnected(100, 60, 21); err == nil {
		graphs = append(graphs, struct {
			name string
			g    *graph.Graph
		}{"random-100", g})
	}
	if gr, err := topology.NewGrid(15, 15); err == nil {
		graphs = append(graphs, struct {
			name string
			g    *graph.Graph
		}{"grid-15x15", gr.G})
	}
	if tr, err := topology.NewBalancedTree(3, 5); err == nil {
		graphs = append(graphs, struct {
			name string
			g    *graph.Graph
		}{"tree-3ary-5", tr.G})
	}
	// The UUCP core: the paper's own "existing network" case, where the
	// generic method should beat the order-n figure by a wide margin.
	if ug, err := topology.UUCPNet(4); err == nil {
		comps := ug.Components()
		core := comps[0]
		for _, comp := range comps {
			if len(comp) > len(core) {
				core = comp
			}
		}
		if sub, _, err := ug.InducedSubgraph(core); err == nil {
			sub.SetName("uucp-core")
			graphs = append(graphs, struct {
				name string
				g    *graph.Graph
			}{"uucp-core", sub})
		}
	}
	for _, item := range graphs {
		d, err := strategy.NewDecomposition(item.g)
		if err != nil {
			return nil, err
		}
		s := d.Strategy()
		maxQ := 0
		for v := 0; v < item.g.N(); v++ {
			if q := len(s.Query(graph.NodeID(v))); q > maxQ {
				maxQ = q
			}
		}
		pairs := samplePairs(item.g.N(), 16, 17)
		_, locate, _, err := measuredLocate(item.g, s, pairs)
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{
			item.name, itoa(item.g.N()),
			itoa(d.Partition().NumParts()),
			itoa(d.Partition().MaxPartSize()),
			itoa(len(s.Post(0))),
			itoa(maxQ),
			f2(locate),
		})
	}
	return []Table{t}, nil
}

// E18Families compares the §1.5 locate families end to end on one
// workload: messages per match, cache footprint, and crash survival.
func E18Families() ([]Table, error) {
	const n = 64
	t := Table{
		ID:    "E18",
		Title: "locate families on a 64-node complete network",
		Note:  "broadcast/sweep pay Θ(n) on one side; checkerboard balances at 2√n; hash pays Θ(1) but dies with its rendezvous.",
		Columns: []string{
			"family", "post hops", "locate hops", "total cache entries", "success after 1 crash",
		},
	}
	families := []rendezvous.Strategy{
		rendezvous.Broadcast(n),
		rendezvous.Sweep(n),
		rendezvous.Central(n, 0),
		rendezvous.Checkerboard(n),
	}
	rng := rand.New(rand.NewPCG(18, 18))
	for _, strat := range families {
		row, err := e18Row(strat, rng)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", strat.Name(), err)
		}
		t.Rows = append(t.Rows, row)
	}

	// Hash family.
	hs, err := hashTransport(n, 1, 1)
	if err != nil {
		return nil, err
	}
	defer hs.Close()
	primary := strategy.HashSet("svc", 0, 1, n)
	server := graph.NodeID(9)
	for isIn(primary, server) {
		server++
	}
	postHops, err := hopsOf(hs, "svc", func() error { _, err := hs.Register("svc", server); return err })
	if err != nil {
		return nil, err
	}
	var locHops []float64
	for i := 0; i < 20; i++ {
		client := graph.NodeID(rng.IntN(n))
		h, err := hopsOf(hs, "svc", func() error { _, err := hs.Locate(client, "svc"); return err })
		if err != nil {
			return nil, err
		}
		locHops = append(locHops, h)
	}
	cacheTotal := 0
	for _, sz := range cacheSizes(hs) {
		cacheTotal += sz
	}
	if err := hs.Crash(primary[0]); err != nil {
		return nil, err
	}
	ok, tried := 0, 0
	for i := 0; i < 20; i++ {
		client := graph.NodeID(rng.IntN(n))
		if client == primary[0] {
			continue
		}
		tried++
		if _, err := hs.Locate(client, "svc"); err == nil {
			ok++
		}
	}
	t.Rows = append(t.Rows, []string{
		"hash", f2(postHops), f2(stats.Summarize(locHops).Mean),
		itoa(cacheTotal), f3(float64(ok) / float64(tried)),
	})
	return []Table{t}, nil
}
