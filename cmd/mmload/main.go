// Command mmload drives a synthetic match-making workload against an
// internal/cluster service and reports throughput, latency quantiles
// and the paper's cost measure (message passes per locate).
//
// One server is registered per port, then client goroutines issue
// locates with the chosen port-popularity distribution until the run
// duration expires. The load is closed-loop by default (-concurrency
// workers back to back); -rate switches to an open-loop arrival process
// feeding the cluster's shard worker pools, where overload is shed and
// reported rather than queued without bound.
//
// The engine itself lives in internal/sweep/loadrun — this binary is a
// flag wrapper over loadrun.Run, and cmd/mmsweep drives the same
// engine programmatically across whole scenario matrices.
//
// Usage:
//
//	mmload                                   # 64-node Zipfian fast-path run
//	mmload -transport sim -duration 5s       # same load over the simulator
//	mmload -transport net -addrs a,b,c       # real sockets: a node-process
//	                                         # cluster from `mmctl up` or mmnode
//	mmload -transport gate -gate-addr a:p    # through a running mmgate service
//	                                         # edge (binary gate protocol)
//	mmload -workload uniform -ports 64
//	mmload -workload zipf -zipf-s 1.4        # skew the port popularity
//	mmload -churn 50ms                       # crash/re-register churn
//	mmload -corrupt-rate 50 -replicas 2      # adversarial state corruption vs
//	                                         # the anti-entropy reconciler
//	mmload -rate 200000                      # open-loop at 200k locates/sec
//	mmload -hints                            # probe-validated address hint cache
//	mmload -batch 16                         # batched locates via LocateBatch
//	mmload -weighted -hot 2                  # frequency-weighted hot-port strategy
//
// Workload flags:
//
//	-workload uniform|zipf   port popularity: uniform, or Zipf-distributed
//	                         so a few hot services dominate (the realistic
//	                         regime for a name server)
//	-zipf-s, -zipf-v         Zipf skew (s > 1) and offset (v ≥ 1)
//	-churn d                 every d, one service is torn down: its server
//	                         deregisters, its node crashes (volatile cache
//	                         lost), a replacement registers at a new node,
//	                         and the crashed node is restored on the next
//	                         churn tick — §1.3's crash/re-register dynamics
//	                         as a sustained background process
//	-replicas r              r-fold replicated rendezvous (strategy
//	                         .Replicated): servers post to every replica
//	                         family, locates fall through the families when
//	                         rendezvous nodes are dead; the report gains
//	                         availability and replica-depth lines
//	-kill-rate k             crash k random rendezvous nodes per second
//	                         (caches lost, no re-registration), restoring
//	                         the previous victim so one node is down at a
//	                         time — the §2.4/§5 fault model that replication
//	                         is measured against; with r=1 affected pairs
//	                         fail, with r≥2 they fall through and succeed
//	-resize-interval d       elastic-membership churn: the transport is
//	                         built elastic (strategy.Epoch) and every d the
//	                         cluster either finishes the draining migration
//	                         or starts the next one, alternating the active
//	                         node count between -nodes and -resize-to —
//	                         live grow/shrink under load, with the epoch,
//	                         migrated-posting and dual-epoch counters in
//	                         the report; servers and clients stay inside
//	                         the smaller membership so every locate remains
//	                         serviceable at every epoch
//	-resize-to m             the smaller active node count the resize
//	                         churn shrinks to (default 3n/4)
//	-corrupt-rate k          inject k adversarial posting corruptions per
//	                         second (silent drops, orphaned duplicates,
//	                         stale addresses, bit-flips with poisoned
//	                         timestamps) while a background anti-entropy
//	                         loop reconciles the damage; after the load
//	                         stops, explicit rounds drain the cluster to
//	                         quiescence and the report shows the
//	                         time-to-quiescence plus the reconcile
//	                         counters (rounds, repairs, corruptions)
//	-reconcile-interval d    anti-entropy background round period
//	                         (defaults to 50ms when -corrupt-rate is set;
//	                         usable alone to measure a quiescent loop's
//	                         zero overhead)
//
// Net-transport cluster membership can also come from an mmctl state
// file instead of a literal address list: -state mm.json reads the
// current "ADDRS" from the file, and -watch-state d polls it so an
// `mmctl scale` run mid-load re-partitions this transport live
// (NetTransport.Rescale) without restarting the workload.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"matchmake/internal/sweep/loadrun"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "mmload:", err)
		os.Exit(1)
	}
}

// run parses the flag set into a loadrun.Config, runs the engine, and
// prints the summary — the whole binary, kept as a function so the
// tests can call it with a captured writer.
func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("mmload", flag.ContinueOnError)
	var cfg loadrun.Config
	fs.StringVar(&cfg.Transport, "transport", "mem", "transport: mem (in-process fast path) | sim (paper-exact simulator) | net (socket cluster; needs -addrs) | gate (mmgate service edge; needs -gate-addr)")
	fs.StringVar(&cfg.GateAddr, "gate-addr", "", "gate transport: mmgate wire address (the WIRE line mmgate prints)")
	fs.StringVar(&cfg.GateToken, "gate-token", "dev", "gate transport: bearer token (a tenant from the gateway's -tenants table)")
	fs.StringVar(&cfg.Addrs, "addrs", "", "net transport: comma-separated node-process addresses in partition order (from `mmctl up` or mmnode)")
	fs.StringVar(&cfg.StateFile, "state", "", "net transport: read the address list from this mmctl state file instead of -addrs")
	fs.DurationVar(&cfg.WatchState, "watch-state", 0, "net transport: poll the -state file this often and rescale onto layout changes (0 = off)")
	fs.IntVar(&cfg.NetConns, "net-conns", 0, "net transport: connections per node process (0 = default; superseded by -net-stripes)")
	fs.IntVar(&cfg.NetStripes, "net-stripes", 0, "net/gate transport: connection stripes per destination process (0 = max(2, GOMAXPROCS))")
	fs.BoolVar(&cfg.NetCoalesce, "net-coalesce", true, "net transport: coalesce concurrent locates into shared wire floods and concurrent hint probes into shared probe frames (-net-coalesce=false for one frame per call)")
	fs.DurationVar(&cfg.ResizeEvery, "resize-interval", 0, "elastic membership churn: resize (or finish the draining resize) this often (0 = off)")
	fs.IntVar(&cfg.ResizeTo, "resize-to", 0, "resize churn: the smaller active node count to shrink to (0 = 3n/4)")
	fs.StringVar(&cfg.Topo, "topology", "complete", "topology: complete|grid|ring|hypercube")
	fs.IntVar(&cfg.Nodes, "nodes", 64, "network size (grid needs a rectangle, hypercube a power of two)")
	fs.StringVar(&cfg.Strategy, "strategy", "checkerboard", "strategy: checkerboard|random|broadcast|sweep")
	fs.IntVar(&cfg.Ports, "ports", 16, "number of services (one server each)")
	fs.StringVar(&cfg.Workload, "workload", "zipf", "port popularity: uniform|zipf")
	fs.Float64Var(&cfg.ZipfS, "zipf-s", 1.2, "Zipf skew exponent (> 1)")
	fs.Float64Var(&cfg.ZipfV, "zipf-v", 1, "Zipf value offset (≥ 1)")
	fs.DurationVar(&cfg.Churn, "churn", 0, "crash/re-register one service this often (0 = off)")
	fs.IntVar(&cfg.Replicas, "replicas", 1, "replication factor r of the rendezvous strategy (1 = unreplicated)")
	fs.Float64Var(&cfg.KillRate, "kill-rate", 0, "crash random non-server nodes at this rate per second (0 = off)")
	fs.Float64Var(&cfg.CorruptRate, "corrupt-rate", 0, "inject adversarial posting corruption (drops, duplicates, stale and bit-flipped entries) at this rate per second while anti-entropy reconciles in the background; the report gains a time-to-quiescence line (0 = off)")
	fs.DurationVar(&cfg.ReconEvery, "reconcile-interval", 0, "anti-entropy background round period (0 = off, or 50ms when -corrupt-rate is set)")
	fs.Float64Var(&cfg.ByzRate, "byzantine-rate", 0, "re-arm the answer-forging adversary (-liars lying rendezvous nodes, fresh seed per wave) at this rate per second; the report gains a forged-answers line (0 = off)")
	fs.IntVar(&cfg.Liars, "liars", 1, "byzantine: number of lying rendezvous nodes per wave (the f of r ≥ 2f+1)")
	fs.IntVar(&cfg.VoteQuorum, "vote-quorum", 0, "answer voting: flood this many replica families per locate and believe only a strict majority (needs -replicas ≥ 2; 0 = first-answer fallthrough)")
	fs.DurationVar(&cfg.Duration, "duration", 2*time.Second, "measurement duration")
	fs.IntVar(&cfg.Concurrency, "concurrency", 8, "closed-loop client goroutines")
	fs.IntVar(&cfg.Rate, "rate", 0, "open-loop arrival rate in locates/sec (0 = closed loop)")
	fs.IntVar(&cfg.Batch, "batch", 0, "closed loop: issue locates in batches of N via LocateBatch (0 = single locates)")
	fs.BoolVar(&cfg.Hints, "hints", false, "enable the per-client address hint cache (probe-validated, generation-invalidated)")
	fs.BoolVar(&cfg.Weighted, "weighted", false, "mem transport: frequency-weighted strategy (hot ports switch to a post-heavy split)")
	fs.IntVar(&cfg.HotPorts, "hot", 2, "weighted: number of ports to keep promoted")
	fs.DurationVar(&cfg.HotRefresh, "hot-refresh", 250*time.Millisecond, "weighted: reclassification period")
	fs.Float64Var(&cfg.HotAlpha, "hot-alpha", 16, "weighted: assumed locate:post frequency ratio (sets the hot query size √(n/α))")
	fs.IntVar(&cfg.Shards, "shards", 0, "cluster shards (0 = GOMAXPROCS)")
	fs.IntVar(&cfg.Workers, "workers", 0, "workers per shard (0 = default)")
	fs.IntVar(&cfg.Queue, "queue", 0, "per-shard async queue depth (0 = default)")
	fs.BoolVar(&cfg.NoCoalesce, "no-coalesce", false, "disable locate coalescing")
	fs.Int64Var(&cfg.Seed, "seed", 1, "workload RNG seed")
	fs.DurationVar(&cfg.LocateTO, "locate-timeout", 250*time.Millisecond, "sim transport: locate timeout")
	fs.DurationVar(&cfg.CollectWin, "collect-window", time.Millisecond, "sim transport: reply collection window")
	if err := fs.Parse(args); err != nil {
		return err
	}
	res, err := loadrun.Run(cfg, out)
	if err != nil {
		return err
	}
	res.Report(out)
	return nil
}
