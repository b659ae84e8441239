// Command mmctl spawns, partitions, verifies, kills and tears down
// local NetTransport clusters — the process-orchestration companion to
// cmd/mmnode for tests, demos and CI.
//
// Every worker it spawns is a re-exec of mmctl itself (selected by an
// environment variable), so a single binary carries the whole cluster;
// production deployments run cmd/mmnode per host instead, with the
// same wire protocol and partition layout (cluster.PartitionRange).
//
// Subcommands:
//
//	mmctl up -nodes 36 -procs 3 -state mm.json
//	    Spawn a cluster, print "ADDRS a,b,c" (feed it to `mmload
//	    -transport net -addrs ...`), persist pids/addresses to -state,
//	    then serve until SIGINT/SIGTERM and drain the workers.
//
//	mmctl verify -nodes 36 -procs 3 -locates 10000
//	    Spawn a cluster and drive the same seeded workload (batched
//	    registrations, locates, migrations, probes) through the socket
//	    transport and the in-process MemTransport side by side; exit 1
//	    on any answer or pass-count divergence. The CI net-smoke gate.
//
//	mmctl demo
//	    Spawn 3 processes, register services, locate them, kill -9 one
//	    process mid-run, and narrate the recovery (hint generations
//	    bump, surviving rendezvous nodes keep answering).
//
//	mmctl chaos -replicas 2 -duration 5s
//	    The load engine (internal/sweep/loadrun, mmload's) plus a process
//	    killer: spawn a cluster, run a uniform closed-loop locate load
//	    over it, and kill -9 one node process on a timer, respawning
//	    each victim on its old address — while the replicated transport's fallthrough bridges
//	    every outage and its repair loop re-posts after every recovery.
//	    Prints the measured availability and exits non-zero when
//	    -replicas ≥ 2 and any serviceable locate failed; with
//	    -replicas 1 the failures are the point (the fragility baseline)
//	    and only the report is produced. With -corrupt k, adversarial
//	    posting corruption (silent drops, orphaned duplicates, stale
//	    addresses, bit-flips with poisoned timestamps) additionally hits
//	    the live node shards k times per second while a background
//	    anti-entropy loop reconciles the damage; the run drains to
//	    quiescence afterwards and the gate becomes the storm bound
//	    (availability ≥ 0.999 at -replicas ≥ 2). With -lie, the
//	    Byzantine storm: -liars rendezvous nodes are armed to forge
//	    locate answers (re-armed with fresh seeds every -lie-every,
//	    an anti-entropy round re-verifying the rows between waves)
//	    while the cluster votes every locate across -vote-quorum
//	    replica families; kills default off so the gate isolates the
//	    defence, and at -replicas ≥ 3 the run fails if a single forged
//	    answer surfaced to a client or availability dropped below
//	    0.999.
//
//	mmctl scale -state mm.json -procs 8
//	    Live process resize: spawn a fresh worker set partitioning the
//	    same node space across -procs processes, copy every partition
//	    from the old workers (postings, liveness records, crash marks —
//	    the opSnapshot transfer), rewrite the state file, print the new
//	    "ADDRS ..." line, and after a grace period (for `mmload
//	    -watch-state` consumers to rescale) drain the old workers.
//	    Consumers that miss the handoff — or donors that died
//	    mid-transfer — are covered by the transport's repair loop and,
//	    at -replicas ≥ 2, by the replica fallthrough.
//
//	mmctl kill -state mm.json -index 1 [-9]
//	    Signal one worker of an `up` cluster (SIGTERM, or SIGKILL with
//	    -9) — fault injection against a live cluster.
//
//	mmctl down -state mm.json
//	    SIGTERM every worker recorded in the state file.
package main

import (
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"matchmake/internal/cluster"
	"matchmake/internal/graph"
	"matchmake/internal/rendezvous"
	"matchmake/internal/sweep/loadrun"
	"matchmake/internal/sweep/procctl"
	"matchmake/internal/topology"
)

func main() {
	procctl.MaybeWorker()
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "mmctl:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	if len(args) == 0 {
		return fmt.Errorf("usage: mmctl up|verify|demo|chaos|kill|down [flags] (see `go doc ./cmd/mmctl`)")
	}
	switch args[0] {
	case "up":
		return cmdUp(args[1:], out)
	case "verify":
		return cmdVerify(args[1:], out)
	case "demo":
		return cmdDemo(args[1:], out)
	case "chaos":
		return cmdChaos(args[1:], out)
	case "scale":
		return cmdScale(args[1:], out)
	case "kill":
		return cmdKill(args[1:], out)
	case "down":
		return cmdDown(args[1:], out)
	default:
		return fmt.Errorf("unknown subcommand %q (want up, verify, demo, chaos, scale, kill or down)", args[0])
	}
}

// cmdScale is the live process resize: the whole state machine lives
// in procctl.Scale (shared with cmd/mmsweep); this wrapper only parses
// the flags.
func cmdScale(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("mmctl scale", flag.ContinueOnError)
	state := fs.String("state", "", "state file written by `mmctl up` (required; rewritten with the new layout)")
	procs := fs.Int("procs", 0, "new node-process count (required)")
	grace := fs.Duration("grace", 750*time.Millisecond, "delay between publishing the new layout and draining the old workers")
	if err := fs.Parse(args); err != nil {
		return err
	}
	return procctl.Scale(*state, *procs, *grace, out)
}

func cmdUp(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("mmctl up", flag.ContinueOnError)
	nodes := fs.Int("nodes", 36, "cluster size n")
	procs := fs.Int("procs", 3, "node processes to spawn")
	state := fs.String("state", "", "write pids/addresses to this JSON file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	ps, err := procctl.Spawn(*nodes, *procs)
	if err != nil {
		return err
	}
	procctl.Banner(out, "mmctl:", ps)
	if *state != "" {
		if err := procctl.WriteState(*state, *nodes, ps); err != nil {
			procctl.Teardown(ps, 5*time.Second)
			return err
		}
	}
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGTERM, syscall.SIGINT)
	<-sig
	fmt.Fprintln(out, "mmctl: draining workers")
	return procctl.Teardown(ps, 10*time.Second)
}

func cmdKill(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("mmctl kill", flag.ContinueOnError)
	state := fs.String("state", "", "state file written by `mmctl up` (required)")
	index := fs.Int("index", -1, "worker index to signal (required)")
	nine := fs.Bool("9", false, "SIGKILL instead of SIGTERM")
	if err := fs.Parse(args); err != nil {
		return err
	}
	st, err := procctl.ReadState(*state)
	if err != nil {
		return err
	}
	if *index < 0 || *index >= len(st.Procs) {
		return fmt.Errorf("-index %d out of range (cluster has %d workers)", *index, len(st.Procs))
	}
	p := st.Procs[*index]
	sig := syscall.SIGTERM
	if *nine {
		sig = syscall.SIGKILL
	}
	if err := syscall.Kill(p.Pid, sig); err != nil {
		return fmt.Errorf("signal pid %d: %w", p.Pid, err)
	}
	fmt.Fprintf(out, "mmctl: sent %v to worker %d (pid %d, nodes [%d,%d))\n", sig, p.Index, p.Pid, p.Lo, p.Hi)
	return nil
}

func cmdDown(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("mmctl down", flag.ContinueOnError)
	state := fs.String("state", "", "state file written by `mmctl up` (required)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	st, err := procctl.ReadState(*state)
	if err != nil {
		return err
	}
	for _, p := range st.Procs {
		if err := syscall.Kill(p.Pid, syscall.SIGTERM); err == nil {
			fmt.Fprintf(out, "mmctl: SIGTERM worker %d (pid %d)\n", p.Index, p.Pid)
		}
	}
	// Wake the `up` coordinator so it reaps its workers and exits
	// instead of waiting on a signal that will never come.
	if st.CoordPid > 0 {
		if err := syscall.Kill(st.CoordPid, syscall.SIGTERM); err == nil {
			fmt.Fprintf(out, "mmctl: SIGTERM coordinator (pid %d)\n", st.CoordPid)
		}
	}
	return nil
}

// cmdVerify is the divergence gate: the same seeded workload through
// the socket cluster and the in-process fast path, with answers
// compared request by request and pass totals compared after every
// phase.
func cmdVerify(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("mmctl verify", flag.ContinueOnError)
	nodes := fs.Int("nodes", 36, "cluster size n")
	procs := fs.Int("procs", 3, "node processes to spawn")
	locates := fs.Int("locates", 10000, "locates to compare")
	ports := fs.Int("ports", 8, "services to register")
	seed := fs.Int64("seed", 1, "workload RNG seed")
	if err := fs.Parse(args); err != nil {
		return err
	}
	ps, err := procctl.Spawn(*nodes, *procs)
	if err != nil {
		return err
	}
	defer procctl.Teardown(ps, 10*time.Second)

	g := topology.Complete(*nodes)
	strat := rendezvous.Checkerboard(*nodes)
	memT, err := cluster.NewMemTransport(g, strat, 0)
	if err != nil {
		return err
	}
	netT, err := cluster.NewNetTransport(g, strat, procctl.Addrs(ps), loadrun.Defaults().NetOptions())
	if err != nil {
		return err
	}
	defer netT.Close()

	// Registrations through the batched path on both.
	regs := loadrun.Services(*ports, *nodes)
	memRefs, err := memT.PostBatch(regs)
	if err != nil {
		return err
	}
	netRefs, err := netT.PostBatch(regs)
	if err != nil {
		return err
	}
	if memT.Passes() != netT.Passes() {
		return fmt.Errorf("verify: PostBatch diverged: mem %d passes, net %d", memT.Passes(), netT.Passes())
	}

	rng := rand.New(rand.NewSource(*seed))
	start := time.Now()
	var netOnly time.Duration
	for i := 0; i < *locates; i++ {
		client := graph.NodeID(rng.Intn(*nodes))
		port := regs[rng.Intn(len(regs))].Port
		e1, err1 := memT.Locate(client, port)
		t0 := time.Now()
		e2, err2 := netT.Locate(client, port)
		netOnly += time.Since(t0)
		if (err1 == nil) != (err2 == nil) {
			return fmt.Errorf("verify: locate %d (%q from %d): mem err=%v net err=%v", i, port, client, err1, err2)
		}
		if err1 == nil && (e1.Addr != e2.Addr || e1.ServerID != e2.ServerID) {
			return fmt.Errorf("verify: locate %d (%q from %d): mem %+v != net %+v", i, port, client, e1, e2)
		}
		if memT.Passes() != netT.Passes() {
			return fmt.Errorf("verify: locate %d (%q from %d): pass totals diverged: mem %d, net %d",
				i, port, client, memT.Passes(), netT.Passes())
		}
		// Sprinkle the lifecycle into the stream: occasional probes of
		// the fresh answer and occasional migrations.
		if err1 == nil && i%97 == 0 {
			_, merr := memT.Probe(client, e1)
			_, nerr := netT.Probe(client, e2)
			if (merr == nil) != (nerr == nil) || memT.Passes() != netT.Passes() {
				return fmt.Errorf("verify: probe at locate %d: mem err=%v net err=%v (passes %d vs %d)",
					i, merr, nerr, memT.Passes(), netT.Passes())
			}
		}
		if i%1009 == 1008 {
			s := rng.Intn(len(regs))
			to := graph.NodeID(rng.Intn(*nodes))
			merr := memRefs[s].Migrate(to)
			nerr := netRefs[s].Migrate(to)
			if (merr == nil) != (nerr == nil) || memT.Passes() != netT.Passes() {
				return fmt.Errorf("verify: migrate at locate %d: mem err=%v net err=%v (passes %d vs %d)",
					i, merr, nerr, memT.Passes(), netT.Passes())
			}
		}
	}
	elapsed := time.Since(start)
	fmt.Fprintf(out, "verify: OK — %d locates over %d nodes / %d processes: answers and pass totals identical (mem=net=%d passes)\n",
		*locates, *nodes, *procs, netT.Passes())
	fmt.Fprintf(out, "verify: net locate throughput ~%.0f/s sequential (%.1fs wall total)\n",
		float64(*locates)/netOnly.Seconds(), elapsed.Seconds())
	return nil
}

// cmdChaos is the availability gate: a continuous locate load over a
// live cluster while node processes are kill -9'd on a timer and
// respawned on their old addresses. With -replicas ≥ 2 the replica
// fallthrough must bridge every outage — any serviceable locate
// failure exits non-zero; with -replicas 1 the report simply shows the
// fragility the paper warns about.
func cmdChaos(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("mmctl chaos", flag.ContinueOnError)
	// The run is the load engine's: uniform closed-loop locates over the
	// spawned socket cluster, with the engine's corruptor, armer, forge
	// oracle and quiescence drain — so the flags chaos shares with mmload
	// are the engine's rows, under chaos's own defaults. Only the process
	// killer, and the shorthands below that map onto engine rows, are
	// chaos's own.
	cfg := loadrun.Defaults()
	cfg.Transport, cfg.Workload = "net", "uniform"
	cfg.Nodes, cfg.Replicas, cfg.Ports, cfg.Concurrency = 36, 2, 6, 4
	cfg.Duration, cfg.Repair = 5*time.Second, 100*time.Millisecond
	cfg.Flags(fs, "nodes", "replicas", "ports", "duration", "repair", "liars", "concurrency", "seed")
	procs := fs.Int("procs", 3, "node processes to spawn")
	killEvery := fs.Duration("kill-every", 900*time.Millisecond, "kill -9 one node process this often")
	respawnAfter := fs.Duration("respawn-after", 250*time.Millisecond, "outage length before the victim respawns")
	fs.Float64Var(&cfg.CorruptRate, "corrupt", 0, "inject adversarial posting corruption (drops, duplicates, stale and bit-flipped entries) at this rate per second on the live node shards (0 = off)")
	reconcile := fs.Duration("reconcile", 100*time.Millisecond, "anti-entropy reconcile interval while -corrupt runs")
	lie := fs.Bool("lie", false, "Byzantine mode: arm lying rendezvous nodes (forged answers, not corrupted state) and vote locate answers across replica families; the gate becomes zero forged answers surfaced at -replicas ≥ 3")
	lieEvery := fs.Duration("lie-every", time.Second, "lie mode: re-arm a fresh wave of liars this often, with an anti-entropy round at the same period re-verifying the rows between waves")
	voteQuorum := fs.Int("vote-quorum", 0, "lie mode: replica families voted per locate (0 = full width -replicas when -lie is set)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	// Lie mode measures the forgery storm, not the kill storm: unless
	// the caller combines them explicitly, process kills stay off so
	// the exit gate isolates the voting defence.
	explicit := make(map[string]bool)
	fs.Visit(func(f *flag.Flag) { explicit[f.Name] = true })
	if *lie && !explicit["kill-every"] {
		*killEvery = 0
	}
	if cfg.CorruptRate < 0 {
		return fmt.Errorf("-corrupt must be ≥ 0, got %v", cfg.CorruptRate)
	}
	if cfg.Replicas > *procs {
		return fmt.Errorf("-replicas %d > -procs %d: a replica shift narrower than a node-shard range cannot escape a killed process", cfg.Replicas, *procs)
	}
	if cfg.CorruptRate > 0 {
		cfg.ReconEvery = *reconcile
	}
	if *lie {
		if *lieEvery <= 0 {
			return fmt.Errorf("-lie-every must be > 0, got %v", *lieEvery)
		}
		// One wave of liars per -lie-every, and a reconcile round at the
		// same period re-verifying the rows between waves.
		cfg.ByzRate = float64(time.Second) / float64(*lieEvery)
		if cfg.ReconEvery == 0 {
			cfg.ReconEvery = *lieEvery
		}
		cfg.VoteQuorum = *voteQuorum
		if *voteQuorum == 0 {
			cfg.VoteQuorum = cfg.Replicas
		}
	}
	if err := cfg.Validate(); err != nil {
		return err
	}
	ps, err := procctl.Spawn(cfg.Nodes, *procs)
	if err != nil {
		return err
	}
	defer procctl.Teardown(ps, 10*time.Second)
	cfg.Addrs = strings.Join(procctl.Addrs(ps), ",")

	// The killer stops on its own once another outage would not end
	// inside the run, so every victim is back before the engine drains.
	type killed struct {
		n   int
		err error
	}
	killer := make(chan killed, 1)
	deadline := time.Now().Add(cfg.Duration)
	go func() {
		var k killed
		rng := rand.New(rand.NewSource(cfg.Seed * 97))
		for *killEvery > 0 && time.Now().Add(*killEvery+*respawnAfter).Before(deadline) {
			time.Sleep(*killEvery)
			victim := ps[rng.Intn(len(ps))]
			fmt.Fprintf(out, "chaos: kill -9 worker %d (pid %d, nodes [%d,%d))\n", victim.Index, victim.Pid, victim.Lo, victim.Hi)
			if k.err = victim.Kill(syscall.SIGKILL); k.err != nil {
				break
			}
			victim.Wait()
			k.n++
			time.Sleep(*respawnAfter)
			if err := procctl.Respawn(cfg.Nodes, victim); err != nil {
				k.err = fmt.Errorf("respawn worker %d: %w", victim.Index, err)
				break
			}
			fmt.Fprintf(out, "chaos: worker %d respawned (pid %d) at %s\n", victim.Index, victim.Pid, victim.Addr)
		}
		killer <- k
	}()
	res, err := loadrun.Run(cfg, out)
	k := <-killer
	if err != nil {
		return fmt.Errorf("chaos: %w", err)
	}
	if k.err != nil {
		return k.err
	}

	m := res.Metrics
	if cfg.CorruptRate > 0 {
		// The injector stopped with the load, so the engine's bounded
		// drain must have found a converged cluster.
		if res.QuiesceRounds > 64 {
			return fmt.Errorf("chaos: cluster did not reconcile to quiescence within 64 rounds")
		}
		fmt.Fprintf(out, "chaos: corrupt=%.1f/s injected=%d repaired=%d reconcile-rounds=%d; quiescence in %v (%d rounds after load)\n",
			cfg.CorruptRate, m.CorruptionsInjected, m.RepairedPosts, m.ReconcileRounds, res.QuiesceIn.Round(time.Microsecond), res.QuiesceRounds)
	}
	fmt.Fprintf(out, "chaos: r=%d kills=%d locates=%d failed=%d availability=%.4f fallthroughs=%d passes/locate=%.2f\n",
		cfg.Replicas, k.n, m.Locates, m.NotFound, m.Availability, m.ReplicaFallthroughs, m.PassesPerLocate)
	if *lie {
		fmt.Fprintf(out, "chaos: byzantine liars=%d vote-quorum=%d voted=%d conflicts=%d suspected=%d forged=%d\n",
			cfg.Liars, cfg.VoteQuorum, m.VotedLocates, m.VoteConflicts, m.SuspectedNodes, res.Forged)
		// The Byzantine gate: with r ≥ 2f+1 families voting, zero forged
		// answers may reach a client — fail-closed splits are allowed
		// only within the availability storm bound. At r=2 a single liar
		// can force a 1-1 split, so the gate needs r ≥ 3.
		if cfg.Replicas >= 3 {
			if res.Forged > 0 {
				return fmt.Errorf("chaos: %d forged answer(s) surfaced to clients despite voting at r=%d", res.Forged, cfg.Replicas)
			}
			if m.Availability < 0.999 {
				return fmt.Errorf("chaos: availability %.4f under Byzantine forging, want ≥ 0.999", m.Availability)
			}
		}
		return nil
	}
	if cfg.Replicas >= 2 {
		// Corruption windows may cost isolated locates before a
		// reconcile round lands, so the corrupt-mode gate is the storm
		// availability bound rather than the exact-zero kill gate.
		if cfg.CorruptRate > 0 && m.Availability < 0.999 {
			return fmt.Errorf("chaos: availability %.4f under corruption, want ≥ 0.999", m.Availability)
		}
		if cfg.CorruptRate == 0 && m.NotFound > 0 {
			return fmt.Errorf("chaos: %d serviceable locates failed despite r=%d", m.NotFound, cfg.Replicas)
		}
	}
	return nil
}

// cmdDemo narrates the socket cluster's crash story on a 3-process
// partition: register, locate, kill -9, recover.
func cmdDemo(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("mmctl demo", flag.ContinueOnError)
	nodes := fs.Int("nodes", 36, "cluster size n")
	if err := fs.Parse(args); err != nil {
		return err
	}
	ps, err := procctl.Spawn(*nodes, 3)
	if err != nil {
		return err
	}
	defer procctl.Teardown(ps, 10*time.Second)
	for _, p := range ps {
		fmt.Fprintf(out, "demo: worker %d (pid %d) serves wire slots [%d,%d) at %s\n", p.Index, p.Pid, p.Lo, p.Hi, p.Addr)
	}
	lay, err := cluster.FixedLayout(*nodes, rendezvous.Checkerboard(*nodes), 1)
	if err != nil {
		return err
	}
	tr, err := cluster.NewLayoutNetTransport(topology.Complete(*nodes), lay, procctl.Addrs(ps), loadrun.Defaults().NetOptions())
	if err != nil {
		return err
	}
	defer tr.Close()

	// The node the transport places in worker 1's middle wire slot.
	mid := lay.Epoch.QueryOrder()[(ps[1].Lo+ps[1].Hi)/2]
	if _, err := tr.Register("printer", mid); err != nil {
		return err
	}
	if _, err := tr.Register("mail", 0); err != nil {
		return err
	}
	e, err := tr.Locate(0, "printer")
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "demo: located \"printer\" at node %d (%d passes charged so far)\n", e.Addr, tr.Passes())

	gen := tr.Gen("mail")
	fmt.Fprintf(out, "demo: kill -9 worker 1 (pid %d) — wire slots [%d,%d) go dark\n", ps[1].Pid, ps[1].Lo, ps[1].Hi)
	ps[1].Kill(syscall.SIGKILL)
	ps[1].Wait()
	if _, err := tr.Probe(0, e); err != nil {
		fmt.Fprintf(out, "demo: probe of the cached \"printer\" address fails without an answer: %v\n", err)
	}
	if tr.Gen("mail") != gen {
		fmt.Fprintln(out, "demo: every hint generation bumped — cached addresses will re-flood, not probe a black hole")
	}
	if e, err = tr.Locate(0, "mail"); err == nil {
		fmt.Fprintf(out, "demo: \"mail\" still resolves to node %d from the surviving rendezvous nodes\n", e.Addr)
	} else {
		return fmt.Errorf("demo: mail stopped resolving after the kill: %w", err)
	}
	if _, err := tr.Register("fresh", 30); err != nil {
		return err
	}
	if e, err = tr.Locate(4, "fresh"); err != nil {
		return fmt.Errorf("demo: fresh service did not resolve: %w", err)
	}
	fmt.Fprintf(out, "demo: new \"fresh\" service registers and resolves (node %d) on the degraded cluster\n", e.Addr)
	fmt.Fprintln(out, "demo: draining survivors")
	return nil
}
