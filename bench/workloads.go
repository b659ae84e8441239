package main

import (
	"fmt"
	"math/rand"
	"time"

	"matchmake/internal/cluster"
	"matchmake/internal/core"
	"matchmake/internal/graph"
)

// The common shape of every workload. These are constants, identical on
// every commit, so that two commits are always measured on the same
// inputs; only -seed (the draw order) and -seconds (the driver's
// run_seconds) come from outside.
const (
	nodes       = 64     // complete topology, checkerboard strategy, r = 1
	ports       = 64     // one server per port
	shardProcs  = 2      // node-shard processes behind the net workloads
	callers     = 2      // closed-loop caller goroutines
	stripes     = 2      // connection stripes per destination
	segments    = 5      // measured segments per run; reported value = median over them
	hintClients = 8      // clients of the hinted workloads: 8 × 64 = 512 (client, port) pairs
	zipfS       = 1.2    // port popularity exponent of the hinted workloads
	churnEvery  = 500    // net_hint_churn: every 500th operation of a caller is a Migrate
	openRate    = 5000.0 // arrivals per second of the open loop; see README.md, "Noise"
	openWorkers = 8
	streamLen   = 1 << 16 // generated requests before the stream repeats
	replayOps   = 10000   // requests replayed on a fresh MemTransport (mem = net check)

	// The mem workloads time 1 call in 16: two clock reads cost a third
	// of the 136 ns hinted path. Net and gate time every call. Of the
	// timed calls the traced run records spans for all on net and gate
	// and for 1 in 8 on mem, where timed calls come at half a million a
	// second and a run's spans must fit in memory.
	memSampleEvery = 16
	memTraceEvery  = 8
	devToken       = "dev"

	// runSeconds is BENCHMARK.json's run_seconds: the default of
	// -seconds. warmup lets hint caches and connections fill first.
	runSeconds = 20
	warmup     = time.Second
)

// workload is one named traffic mix. The flags select the code path;
// nothing in the program under test ever sees the name.
type workload struct {
	name string
	loop string // printed: closed or open loop, and its client count or rate
	why  string

	net   bool // NetTransport over 2 shard processes (else MemTransport)
	gate  bool // driver → gate wire client → in-process gateway → cluster → net
	hints bool // Options.Hints, Zipf ports, 8 clients (else uniform over 64 × 64)
	churn bool // every churnEvery-th operation of a caller is a Migrate
	open  bool // open loop at openRate (else closed loop, callers goroutines)
}

var workloads = []workload{
	{
		name: "mem_flood", loop: "closed loop, 2 callers",
		why: "in-process full flood per locate: cluster flight dedup, set-cost lookup and Store reads do all the work, netwire and gate none; the control a wire or gate change must not move",
	},
	{
		name: "mem_hinted", loop: "closed loop, 2 callers", hints: true,
		why: "all 512 (client, port) hints cached: the ~136 ns probe path, canary for any per-locate cost added to cluster, which a 20 us wire round trip would hide; netwire and gate do nothing",
	},
	{
		name: "net_flood", loop: "closed loop, 2 callers", net: true,
		why: "every locate is a wire flood to 8 rendezvous nodes on both shards: netwire framing, netcoalesce hand-off, NodeServer and remote Store reads do most of the work, the hint layer none",
	},
	{
		name: "net_hint_churn", loop: "closed loop, 2 callers, every 500th op a Migrate", net: true, hints: true, churn: true,
		why: "reads are one probe round trip, writes are posting multicasts that bump generations and stale hints: shows a hint or flood change that makes writes or invalidation dearer; gate does nothing",
	},
	{
		name: "gate_open", loop: "open loop, Poisson 5000/s, 8 driver goroutines, timed from release", net: true, gate: true, open: true,
		why: "net_flood plus the tenant edge at a fixed 5000/s, under two thirds of what it sustains: the direct-vs-gate gap is the difference of two workloads; the only one where a queue can build; hints idle",
	},
}

func workloadByName(name string) (*workload, error) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// request is one generated locate; migration one generated write of
// net_hint_churn: move port to the node step places after its home.
type request struct {
	client graph.NodeID
	port   int32
}

type migration struct {
	port int32
	step int32
}

// inputs is everything generated from the seed. The layout (which node
// hosts which port, which nodes are clients) is the same for every
// seed — it decides passes_per_locate, which must not vary with the
// draw — and the seed decides only the order of requests, migrations
// and arrivals.
type inputs struct {
	names []core.Port    // port index → name
	home  []graph.NodeID // port index → node it registers at
	reqs  []request      // caller c takes c, c+callers, c+2·callers, …
	migs  [callers][]migration
	rng   *rand.Rand // continues into arrivals()
}

func generate(w *workload, seed int64) *inputs {
	in := &inputs{
		names: make([]core.Port, ports),
		home:  make([]graph.NodeID, ports),
		reqs:  make([]request, streamLen),
		rng:   rand.New(rand.NewSource(seed)),
	}
	for p := range in.names {
		in.names[p] = core.Port(fmt.Sprintf("svc-%04d", p))
		in.home[p] = graph.NodeID((p*47 + 5) % nodes) // 47 is odd: a bijection
	}
	clients := make([]graph.NodeID, nodes)
	for c := range clients {
		clients[c] = graph.NodeID(c)
	}
	if w.hints {
		clients = clients[:hintClients]
		for c := range clients {
			clients[c] = graph.NodeID(c * 9) // one per checkerboard row and column
		}
	}
	pick := func() int32 { return int32(in.rng.Intn(ports)) }
	if w.hints {
		z := rand.NewZipf(in.rng, zipfS, 1, ports-1)
		pick = func() int32 { return int32(z.Uint64()) }
	}
	for i := range in.reqs {
		in.reqs[i] = request{client: clients[in.rng.Intn(len(clients))], port: pick()}
	}
	if w.churn {
		for c := range in.migs {
			in.migs[c] = make([]migration, 1<<10)
			for j := range in.migs[c] {
				// Ports are split between callers by index, so a ServerRef
				// has one writer.
				in.migs[c][j] = migration{
					port: int32(in.rng.Intn(ports/callers)*callers + c),
					step: int32(1 + in.rng.Intn(nodes-1)),
				}
			}
		}
	}
	return in
}

// registrations is the one PostBatch that announces every port at its
// home.
func (in *inputs) registrations() []cluster.Registration {
	regs := make([]cluster.Registration, len(in.names))
	for p := range regs {
		regs[p] = cluster.Registration{Port: in.names[p], Node: in.home[p]}
	}
	return regs
}

// arrivals returns the open loop's schedule: due times, as offsets from
// the start, of a Poisson process at openRate over total.
func (in *inputs) arrivals(total time.Duration) []int64 {
	var due []int64
	for t := 0.0; ; {
		t += in.rng.ExpFloat64() / openRate * 1e9
		if t >= float64(total) {
			return due
		}
		due = append(due, int64(t))
	}
}
