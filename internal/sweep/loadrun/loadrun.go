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

// Config declares one load run: the transport and cluster shape, the
// workload, and the chaos loops layered on top. Zero values mean "off"
// for every optional feature; Run applies the same defaults the mmload
// flags default to where a zero is not meaningful (Nodes, Ports,
// Duration, Concurrency, workload parameters).
type Config struct {
	// Transport selects the serving backend: "mem" (in-process fast
	// path), "sim" (paper-exact simulator), "net" (socket cluster;
	// needs Addrs) or "gate" (mmgate service edge; needs GateAddr).
	Transport string
	// GateAddr and GateToken configure the gate transport.
	GateAddr  string
	GateToken string
	// Addrs is the net transport's comma-separated node-process
	// address list in partition order; StateFile reads the list from
	// an mmctl state file instead, and WatchState polls that file to
	// rescale onto layout changes.
	Addrs      string
	StateFile  string
	WatchState time.Duration
	// NetConns and NetStripes set the connection stripes per
	// destination process (NetStripes wins); NetCoalesce switches the
	// wire coalescers (shared floods and probe frames) on.
	NetConns    int
	NetStripes  int
	NetCoalesce bool

	// Topology, Nodes, Strategy, Ports describe the cluster; Workload,
	// ZipfS, ZipfV the port-popularity distribution.
	Topo     string
	Nodes    int
	Strategy string
	Ports    int
	Workload string
	ZipfS    float64
	ZipfV    float64

	// Churn tears one service down per interval; Replicas replicates
	// the rendezvous strategy r-fold; KillRate crashes random nodes;
	// CorruptRate injects adversarial posting corruption (with
	// ReconEvery the anti-entropy round period); ByzRate re-arms Liars
	// lying nodes per wave; VoteQuorum turns on answer voting;
	// ResizeEvery/ResizeTo drive elastic membership churn.
	Churn       time.Duration
	Replicas    int
	KillRate    float64
	CorruptRate float64
	ReconEvery  time.Duration
	ByzRate     float64
	Liars       int
	VoteQuorum  int
	ResizeEvery time.Duration
	ResizeTo    int

	// Duration is the measurement window; Concurrency the closed-loop
	// worker count; Rate a nonzero open-loop arrival rate; Batch the
	// closed-loop LocateBatch size; Hints enables the per-client hint
	// cache; Weighted the frequency-weighted strategy (with HotPorts,
	// HotRefresh, HotAlpha).
	Duration    time.Duration
	Concurrency int
	Rate        int
	Batch       int
	Hints       bool
	Weighted    bool
	HotPorts    int
	HotRefresh  time.Duration
	HotAlpha    float64

	// Shards, Workers, Queue, NoCoalesce tune the cluster serving
	// layer; Seed seeds every workload RNG; LocateTO and CollectWin
	// are the sim transport's timing knobs.
	Shards     int
	Workers    int
	Queue      int
	NoCoalesce bool
	Seed       int64
	LocateTO   time.Duration
	CollectWin time.Duration
}

// Defaults returns the Config matching mmload's flag defaults: the
// 64-node complete-network checkerboard under a Zipf(1.2) closed loop.
func Defaults() Config {
	return Config{
		Transport:   "mem",
		GateToken:   "dev",
		NetCoalesce: true,
		Topo:        "complete",
		Nodes:       64,
		Strategy:    "checkerboard",
		Ports:       16,
		Workload:    "zipf",
		ZipfS:       1.2,
		ZipfV:       1,
		Replicas:    1,
		Liars:       1,
		Duration:    2 * time.Second,
		Concurrency: 8,
		HotPorts:    2,
		HotRefresh:  250 * time.Millisecond,
		HotAlpha:    16,
		Seed:        1,
		LocateTO:    250 * time.Millisecond,
		CollectWin:  time.Millisecond,
	}
}

// stripes resolves the connection-stripe count for the net and gate
// transports: NetStripes wins, the older NetConns spelling still
// works, and zero defers to netwire.NewPool's max(2, GOMAXPROCS)
// default.
func (cfg Config) stripes() int {
	if cfg.NetStripes != 0 {
		return cfg.NetStripes
	}
	return cfg.NetConns
}

// netOptions assembles the NetOptions shared by the static and
// elastic net transport builders from the wire-tuning knobs.
func (cfg Config) netOptions() cluster.NetOptions {
	return cluster.NetOptions{
		ConnsPerProc:      cfg.stripes(),
		CallTimeout:       30 * time.Second,
		DisableCoalescing: !cfg.NetCoalesce,
	}
}

// validate rejects inconsistent Configs with the messages the mmload
// flags have always produced.
func (cfg *Config) validate() error {
	if cfg.Nodes < 2 {
		return fmt.Errorf("need at least 2 nodes")
	}
	if cfg.Ports < 1 {
		return fmt.Errorf("need at least 1 port")
	}
	if cfg.Rate > 0 && cfg.Batch > 0 {
		return fmt.Errorf("-batch applies to the closed loop only; drop -rate to measure LocateBatch")
	}
	if cfg.Replicas < 1 {
		return fmt.Errorf("-replicas must be ≥ 1, got %d", cfg.Replicas)
	}
	if cfg.Replicas > 1 && cfg.Weighted {
		return fmt.Errorf("-replicas and -weighted are mutually exclusive")
	}
	if cfg.KillRate < 0 {
		return fmt.Errorf("-kill-rate must be ≥ 0, got %v", cfg.KillRate)
	}
	if cfg.CorruptRate < 0 {
		return fmt.Errorf("-corrupt-rate must be ≥ 0, got %v", cfg.CorruptRate)
	}
	if cfg.CorruptRate > 0 && cfg.ReconEvery == 0 {
		cfg.ReconEvery = 50 * time.Millisecond
	}
	if cfg.ByzRate < 0 {
		return fmt.Errorf("-byzantine-rate must be ≥ 0, got %v", cfg.ByzRate)
	}
	if cfg.ByzRate > 0 && cfg.Liars < 1 {
		return fmt.Errorf("-liars must be ≥ 1, got %d", cfg.Liars)
	}
	if cfg.VoteQuorum < 0 {
		return fmt.Errorf("-vote-quorum must be ≥ 0, got %d", cfg.VoteQuorum)
	}
	if cfg.VoteQuorum >= 2 && cfg.Replicas < 2 {
		return fmt.Errorf("-vote-quorum %d needs -replicas ≥ 2 (voting is across replica families)", cfg.VoteQuorum)
	}
	if (cfg.ByzRate > 0 || cfg.VoteQuorum > 0) && cfg.ResizeEvery > 0 {
		return fmt.Errorf("-byzantine-rate/-vote-quorum and -resize-interval are mutually exclusive")
	}
	return nil
}

// validateGate rejects Config fields that configure machinery living
// on the gateway's side of the wire: with the gate transport the
// rendezvous strategy, hint cache, fault injection and membership
// churn all belong to the mmgate process, not the load driver.
func (cfg Config) validateGate() error {
	if cfg.GateAddr == "" {
		return fmt.Errorf("-transport gate needs -gate-addr (the WIRE line mmgate prints)")
	}
	switch {
	case cfg.Addrs != "" || cfg.StateFile != "":
		return fmt.Errorf("-addrs/-state belong to -transport net; the gateway owns its own cluster")
	case cfg.Hints:
		return fmt.Errorf("-hints is gateway-side: start mmgate with -hints instead")
	case cfg.Weighted:
		return fmt.Errorf("-weighted is gateway-side; not available over -transport gate")
	case cfg.Replicas > 1:
		return fmt.Errorf("-replicas is gateway-side: start mmgate with -replicas instead")
	case cfg.Churn > 0 || cfg.KillRate > 0:
		return fmt.Errorf("-churn/-kill-rate need direct transport access; not available over -transport gate")
	case cfg.ResizeEvery > 0 || cfg.WatchState > 0:
		return fmt.Errorf("membership churn (-resize-interval/-watch-state) is not available over -transport gate")
	case cfg.CorruptRate > 0 || cfg.ReconEvery > 0:
		return fmt.Errorf("-corrupt-rate/-reconcile-interval need direct transport access; not available over -transport gate")
	case cfg.ByzRate > 0 || cfg.VoteQuorum > 0:
		return fmt.Errorf("-byzantine-rate/-vote-quorum need direct transport access; not available over -transport gate")
	}
	return nil
}

// Run validates cfg, builds the transport, registers one server per
// port, drives the workload with every configured chaos loop, and
// returns the typed Result. Progress lines produced mid-run (rescale
// notices from a watched state file) go to progress; the summary is
// NOT printed — call Result.Report for the mmload text rendering.
func Run(cfg Config, progress io.Writer) (*Result, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
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

	// One server per port, spread deterministically over the nodes and
	// announced through the batched posting path (one shard lock per
	// store shard, bulk pass accounting).
	names := makePortNames(cfg.Ports)
	regs := make([]cluster.Registration, cfg.Ports)
	for p := 0; p < cfg.Ports; p++ {
		regs[p] = cluster.Registration{Port: names[p], Node: graph.NodeID((p * 7919) % activeFloor)}
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

// portName formats the p-th service name.
func portName(p int) core.Port { return core.Port(fmt.Sprintf("svc-%04d", p)) }

// makePortNames materializes the port name table once; the measured
// loops index it rather than formatting a name per locate, which would
// bill the harness's own allocations to the serving path.
func makePortNames(ports int) []core.Port {
	names := make([]core.Port, ports)
	for p := range names {
		names[p] = portName(p)
	}
	return names
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
		return cluster.NewLayoutSimTransport(g, lay, core.Options{LocateTimeout: cfg.LocateTO, CollectWindow: cfg.CollectWin})
	case "net":
		if cfg.Addrs == "" {
			return nil, fmt.Errorf("-transport net needs -addrs (boot a cluster with `mmctl up` or mmnode)")
		}
		return cluster.NewLayoutNetTransport(g, lay, strings.Split(cfg.Addrs, ","), cfg.netOptions())
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
