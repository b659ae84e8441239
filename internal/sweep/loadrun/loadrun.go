// Package loadrun is the importable engine of cmd/mmload: build a
// transport from a declarative Config, drive the configured workload
// (closed or open loop, with optional churn, kill, corruption,
// Byzantine and resize chaos loops), and return a typed Result whose
// Report method prints the exact summary lines the mmload binary has
// always printed. cmd/mmload is a thin flag wrapper over this package;
// cmd/mmsweep runs the same engine once per scenario of a matrix and
// keeps the Result as machine-readable JSON instead of text.
package loadrun

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"strings"
	"time"

	"matchmake/internal/cluster"
	"matchmake/internal/core"
	"matchmake/internal/gate"
	"matchmake/internal/graph"
	"matchmake/internal/netwire"
	"matchmake/internal/rendezvous"
	"matchmake/internal/strategy"
	"matchmake/internal/topology"
)

// Run validates cfg, builds the transport, registers one server per
// port, drives the workload with every configured chaos loop, and
// returns the typed Result. Progress lines produced mid-run (rescale
// notices from a watched state file) go to progress; the summary is
// NOT printed — call Result.Report for the mmload text rendering.
func Run(cfg Config, progress io.Writer) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.CorruptRate > 0 && cfg.ReconEvery == 0 {
		cfg.ReconEvery = 50 * time.Millisecond
	}

	// The transport, node count and the topology/strategy names for the
	// report. With the gate transport the rendezvous machinery lives
	// behind the service edge: the gateway picked topology and strategy,
	// the engine learns the node count from the hello and reports the
	// rest as "remote".
	var (
		tr        cluster.Transport
		n         int
		topoName  string
		stratName string
	)
	if cfg.Transport == "gate" {
		if err := cfg.validateGate(); err != nil {
			return nil, err
		}
		gt, err := gate.DialTransport(cfg.GateAddr, cfg.GateToken, cfg.stripes())
		if err != nil {
			return nil, err
		}
		tr, n = gt, gt.N()
		topoName, stratName = "remote", "remote"
	} else {
		g, err := BuildTopology(cfg.Topo, cfg.Nodes)
		if err != nil {
			return nil, err
		}
		if cfg.ResizeTo == 0 {
			cfg.ResizeTo = g.N() * 3 / 4
		}
		if cfg.ResizeEvery > 0 {
			if cfg.Weighted {
				return nil, fmt.Errorf("-resize-interval and -weighted are mutually exclusive")
			}
			if cfg.ResizeTo < 2 || cfg.ResizeTo > g.N() {
				return nil, fmt.Errorf("-resize-to %d out of [2,%d]", cfg.ResizeTo, g.N())
			}
			if cfg.Replicas > cfg.ResizeTo {
				return nil, fmt.Errorf("-replicas %d > -resize-to %d", cfg.Replicas, cfg.ResizeTo)
			}
		}
		if cfg.WatchState > 0 {
			if cfg.Transport != "net" {
				return nil, fmt.Errorf("-watch-state needs -transport net")
			}
			if cfg.StateFile == "" {
				return nil, fmt.Errorf("-watch-state needs -state")
			}
		}
		if cfg.Transport == "net" && cfg.Addrs == "" && cfg.StateFile != "" {
			stateAddrs, err := readStateAddrs(cfg.StateFile)
			if err != nil {
				return nil, fmt.Errorf("-state %s: %w", cfg.StateFile, err)
			}
			cfg.Addrs = strings.Join(stateAddrs, ",")
		}
		strat, err := BuildStrategy(cfg.Strategy, g.N(), cfg.Seed)
		if err != nil {
			return nil, err
		}
		if tr, err = BuildTransport(cfg, g, strat); err != nil {
			return nil, err
		}
		n, topoName, stratName = g.N(), cfg.Topo, strat.Name()
	}
	// When membership churns, servers and clients stay inside the
	// smaller epoch's range so every locate remains serviceable.
	activeFloor := n
	if cfg.ResizeEvery > 0 && cfg.ResizeTo < activeFloor {
		activeFloor = cfg.ResizeTo
	}
	copts := cluster.Options{
		Shards:            cfg.Shards,
		WorkersPerShard:   cfg.Workers,
		QueueDepth:        cfg.Queue,
		DisableCoalescing: cfg.NoCoalesce,
		Hints:             cfg.Hints,
		VoteQuorum:        cfg.VoteQuorum,
	}
	if cfg.Weighted {
		copts.HotPorts = cfg.HotPorts
		copts.HotRefresh = cfg.HotRefresh
	}
	c := cluster.New(tr, copts)
	defer c.Close()

	// The self-stabilization layer: a background anti-entropy loop (and,
	// with CorruptRate, the adversarial injector racing it).
	var antiT cluster.AntiEntropyTransport
	if cfg.CorruptRate > 0 || cfg.ReconEvery > 0 {
		var ok bool
		if antiT, ok = tr.(cluster.AntiEntropyTransport); !ok {
			return nil, fmt.Errorf("-corrupt-rate/-reconcile-interval need an anti-entropy transport (mem, sim or net), got %s", tr.Name())
		}
		antiT.StartReconcile(cfg.ReconEvery)
	}

	// The Byzantine adversary: ByzRate arms Liars rendezvous nodes to
	// forge locate answers, re-armed with a fresh seed per wave.
	var byzT cluster.ByzantineTransport
	if cfg.ByzRate > 0 || cfg.VoteQuorum >= 2 {
		var ok bool
		if byzT, ok = tr.(cluster.ByzantineTransport); !ok {
			return nil, fmt.Errorf("-byzantine-rate/-vote-quorum need a byzantine-capable transport (mem, sim or net), got %s", tr.Name())
		}
	}

	// One server per port, announced through the batched posting path
	// (one shard lock per store shard, bulk pass accounting). The name
	// table is materialized once; the measured loops index it rather than
	// formatting a name per locate, which would bill the harness's own
	// allocations to the serving path.
	regs := Services(cfg.Ports, activeFloor)
	names := make([]core.Port, len(regs))
	for p, r := range regs {
		names[p] = r.Port
	}
	refs, err := c.PostBatch(regs)
	if err != nil {
		return nil, fmt.Errorf("register services: %w", err)
	}
	reg := &registry{servers: refs}

	stop := make(chan struct{})
	var churnWG waitGroup
	if cfg.Churn > 0 {
		churnWG.Go(func() { runChurn(c, reg, cfg, activeFloor, stop) })
	}
	var kills int64
	if cfg.KillRate > 0 {
		churnWG.Go(func() { kills = runKiller(c, reg, cfg, activeFloor, stop) })
	}
	if cfg.CorruptRate > 0 {
		churnWG.Go(func() { runCorruptor(antiT, cfg, stop) })
	}
	var det *forgeDetector
	if byzT != nil {
		det = newForgeDetector(cfg, reg, names)
	}
	var armed int64
	if cfg.ByzRate > 0 {
		// Arm the first wave before measurement starts so the adversary
		// is live for the whole window.
		n0, aerr := byzT.Arm(cluster.ArmOptions{Seed: cfg.Seed * 6053, Liars: cfg.Liars})
		if aerr != nil {
			return nil, fmt.Errorf("arm byzantine adversary: %w", aerr)
		}
		armed = int64(n0)
		churnWG.Go(func() { runArmer(byzT, cfg, stop) })
	}
	var resizes int64
	var resizeErr error
	if cfg.ResizeEvery > 0 {
		churnWG.Go(func() { resizes, resizeErr = runResizer(c, cfg, n, stop) })
	}
	if cfg.WatchState > 0 {
		// Validated up front: -transport net always builds a *NetTransport.
		netT := tr.(*cluster.NetTransport)
		churnWG.Go(func() { watchState(netT, cfg.StateFile, cfg.WatchState, stop, progress) })
	}

	c.ResetMetrics()
	// Snapshot wire-level counters (net and gate transports) so the
	// report can charge frames and bytes to the measurement window only.
	wireT, _ := tr.(interface{ WireStats() netwire.Stats })
	var wireBefore netwire.Stats
	if wireT != nil {
		wireBefore = wireT.WireStats()
	}
	var memBefore runtime.MemStats
	runtime.ReadMemStats(&memBefore)
	if cfg.Rate > 0 {
		err = openLoop(c, cfg, names, activeFloor, det)
	} else {
		err = closedLoop(c, cfg, names, activeFloor, det)
	}
	var memAfter runtime.MemStats
	runtime.ReadMemStats(&memAfter)
	close(stop)
	churnWG.Wait()
	if err != nil {
		return nil, err
	}

	// Time-to-quiescence: with the injector stopped, drive explicit
	// rounds until one finds nothing to repair. The drain happens before
	// the snapshot so its rounds and repairs land in the report window.
	var (
		quiesceRounds int
		quiesceIn     time.Duration
	)
	if antiT != nil && cfg.CorruptRate > 0 {
		t0 := time.Now()
		for quiesceRounds = 1; quiesceRounds <= 64; quiesceRounds++ {
			r, rerr := antiT.ReconcileRound()
			if rerr != nil {
				return nil, fmt.Errorf("quiescence drain: %w", rerr)
			}
			if r == 0 {
				break
			}
		}
		quiesceIn = time.Since(t0)
	}

	res := &Result{
		Transport:     tr.Name(),
		Topology:      topoName,
		Strategy:      stratName,
		Nodes:         n,
		Ports:         cfg.Ports,
		Workload:      cfg.Workload,
		Churn:         cfg.Churn,
		KillRate:      cfg.KillRate,
		Kills:         kills,
		CorruptRate:   cfg.CorruptRate,
		ReconEvery:    cfg.ReconEvery,
		QuiesceRounds: quiesceRounds,
		QuiesceIn:     quiesceIn,
		ResizeEvery:   cfg.ResizeEvery,
		ResizeFrom:    n,
		ResizeTo:      cfg.ResizeTo,
		Resizes:       resizes,
		ByzRate:       cfg.ByzRate,
		Liars:         cfg.Liars,
		ArmedLies:     armed,
		VoteQuorum:    cfg.VoteQuorum,
		Byzantine:     det != nil,
		Metrics:       c.Metrics(),
	}
	if resizeErr != nil {
		res.ResizeErr = resizeErr.Error()
	}
	if det != nil {
		res.Forged = det.forged.Load()
	}
	if res.Metrics.Locates > 0 {
		// Process-wide allocation count over the window divided by
		// locates: includes the harness's own allocations, so it is an
		// upper bound on the serving path's allocs/op.
		res.AllocsPerLocate = float64(memAfter.Mallocs-memBefore.Mallocs) / float64(res.Metrics.Locates)
	}
	if wireT != nil && res.Metrics.Locates > 0 {
		d := wireT.WireStats().Sub(wireBefore)
		res.Wire = &WireReport{
			FramesPerLocate: float64(d.FramesSent+d.FramesRecv) / float64(res.Metrics.Locates),
			BytesPerLocate:  float64(d.BytesSent+d.BytesRecv) / float64(res.Metrics.Locates),
		}
		if ct, ok := tr.(interface{ CoalesceStats() (int64, int64) }); ok {
			res.Wire.Coalesced, res.Wire.Floods = ct.CoalesceStats()
		}
	}
	return res, nil
}

// waitGroup is a tiny sync.WaitGroup wrapper keeping the chaos-loop
// spawns one-liners.
type waitGroup struct{ wg waitGroupImpl }

// Services is a run's port population: ports services named svc-0000,
// svc-0001, …, spread deterministically over the first n nodes.
func Services(ports, n int) []cluster.Registration {
	regs := make([]cluster.Registration, ports)
	for p := range regs {
		regs[p] = cluster.Registration{Port: core.Port(fmt.Sprintf("svc-%04d", p)), Node: graph.NodeID((p * 7919) % n)}
	}
	return regs
}

// BuildTopology constructs the named graph over n nodes.
func BuildTopology(name string, n int) (*graph.Graph, error) {
	switch name {
	case "complete":
		return topology.Complete(n), nil
	case "ring":
		return topology.Ring(n)
	case "grid":
		p := int(math.Sqrt(float64(n)))
		for p > 1 && n%p != 0 {
			p--
		}
		if p <= 1 {
			return nil, fmt.Errorf("grid needs a composite node count, got %d", n)
		}
		gr, err := topology.NewGrid(p, n/p)
		if err != nil {
			return nil, err
		}
		return gr.G, nil
	case "hypercube":
		d := 0
		for 1<<d < n {
			d++
		}
		if 1<<d != n {
			return nil, fmt.Errorf("hypercube needs a power-of-two node count, got %d", n)
		}
		h, err := topology.NewHypercube(d)
		if err != nil {
			return nil, err
		}
		return h.G, nil
	default:
		return nil, fmt.Errorf("unknown topology %q", name)
	}
}

// BuildStrategy constructs the named rendezvous strategy over n nodes.
func BuildStrategy(name string, n int, seed int64) (rendezvous.Strategy, error) {
	switch name {
	case "checkerboard":
		return rendezvous.Checkerboard(n), nil
	case "random":
		k := int(math.Ceil(math.Sqrt(float64(n)))) * 2
		return rendezvous.Random(n, k, k, uint64(seed)), nil
	case "broadcast":
		return rendezvous.Broadcast(n), nil
	case "sweep":
		return rendezvous.Sweep(n), nil
	default:
		return nil, fmt.Errorf("unknown strategy %q", name)
	}
}

// BuildTransport assembles the configured transport over g and strat:
// the layout — strat replicated cfg.Replicas-fold at full membership,
// elastic for the resize-churn scenario (runResizer then alternates the
// membership live), the weighted split laid over it when asked — is
// built once and handed to the chosen backend.
func BuildTransport(cfg Config, g *graph.Graph, strat rendezvous.Strategy) (cluster.Transport, error) {
	lay, err := cluster.FixedLayout(g.N(), strat, cfg.Replicas)
	if err != nil {
		return nil, err
	}
	lay.Elastic = cfg.ResizeEvery > 0
	if cfg.Weighted {
		if cfg.Transport == "sim" {
			return nil, fmt.Errorf("-weighted needs -transport mem or net (the sim path runs the base strategy only)")
		}
		if lay.Weighted, err = buildWeighted(g.N(), strat, cfg.HotAlpha); err != nil {
			return nil, err
		}
	}
	switch cfg.Transport {
	case "mem":
		return cluster.NewLayoutMemTransport(g, lay, 0)
	case "sim":
		return cluster.NewLayoutSimTransport(g, lay, core.Options{})
	case "net":
		if cfg.Addrs == "" {
			return nil, fmt.Errorf("-transport net needs -addrs (boot a cluster with `mmctl up` or mmnode)")
		}
		return cluster.NewLayoutNetTransport(g, lay, strings.Split(cfg.Addrs, ","), cfg.NetOptions())
	default:
		return nil, fmt.Errorf("unknown transport %q", cfg.Transport)
	}
}

// buildWeighted assembles the frequency-weighted strategy pair: the
// base strategy plus the (M3′) post-heavy hot split sized for an
// assumed locate:post ratio of alpha.
func buildWeighted(n int, base rendezvous.Strategy, alpha float64) (*strategy.Weighted, error) {
	hot, err := strategy.PostHeavy(n, strategy.AlphaQuerySize(n, alpha))
	if err != nil {
		return nil, err
	}
	return strategy.NewWeighted(base, hot)
}

// readStateAddrs extracts the worker address list from an mmctl state
// file, in partition order.
func readStateAddrs(path string) ([]string, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var st struct {
		Procs []struct {
			Addr string `json:"addr"`
		} `json:"procs"`
	}
	if err := json.Unmarshal(b, &st); err != nil {
		return nil, err
	}
	if len(st.Procs) == 0 {
		return nil, fmt.Errorf("state file lists no workers")
	}
	addrs := make([]string, len(st.Procs))
	for i, p := range st.Procs {
		addrs[i] = p.Addr
	}
	return addrs, nil
}
