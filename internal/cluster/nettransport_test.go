package cluster

import (
	"bufio"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"

	"matchmake/internal/core"
	"matchmake/internal/graph"
	"matchmake/internal/rendezvous"
	"matchmake/internal/strategy"
	"matchmake/internal/topology"
)

// TestMain re-execs the test binary as a node-server worker when
// MM_NET_NODE is set: that is how the net equivalence tests get real
// OS processes (3-process loopback clusters) without shipping a
// separate binary. The worker prints "ADDR host:port" on stdout, then
// serves until SIGTERM (graceful drain) or death.
func TestMain(m *testing.M) {
	if os.Getenv("MM_NET_NODE") != "" {
		runTestNodeWorker()
		return
	}
	os.Exit(m.Run())
}

func runTestNodeWorker() {
	atoi := func(k string) int {
		v, err := strconv.Atoi(os.Getenv(k))
		if err != nil {
			fmt.Fprintf(os.Stderr, "worker: bad %s: %v\n", k, err)
			os.Exit(2)
		}
		return v
	}
	n, lo, hi := atoi("MM_NET_N"), atoi("MM_NET_LO"), atoi("MM_NET_HI")
	listen := os.Getenv("MM_NET_ADDR")
	if listen == "" {
		listen = "127.0.0.1:0"
	}
	if err := RunNodeWorker(n, lo, hi, listen, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "worker:", err)
		os.Exit(2)
	}
}

// spawnNetCluster boots a procs-process loopback cluster partitioning
// n nodes and returns the process addresses plus the commands (for
// fault injection). Processes are killed at test cleanup.
func spawnNetCluster(t *testing.T, n, procs int) ([]string, []*exec.Cmd) {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	addrs := make([]string, procs)
	cmds := make([]*exec.Cmd, procs)
	for i := 0; i < procs; i++ {
		lo, hi := PartitionRange(n, procs, i)
		cmd := exec.Command(exe)
		cmd.Env = append(os.Environ(),
			"MM_NET_NODE=1",
			fmt.Sprintf("MM_NET_N=%d", n),
			fmt.Sprintf("MM_NET_LO=%d", lo),
			fmt.Sprintf("MM_NET_HI=%d", hi),
		)
		cmd.Stderr = os.Stderr
		out, err := cmd.StdoutPipe()
		if err != nil {
			t.Fatal(err)
		}
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() {
			cmd.Process.Kill()
			cmd.Wait()
		})
		sc := bufio.NewScanner(out)
		if !sc.Scan() {
			t.Fatalf("worker %d: no ADDR line (err=%v)", i, sc.Err())
		}
		line := sc.Text()
		if !strings.HasPrefix(line, "ADDR ") {
			t.Fatalf("worker %d: unexpected line %q", i, line)
		}
		addrs[i] = strings.TrimPrefix(line, "ADDR ")
		cmds[i] = cmd
		go func() { // drain any further output so the child never blocks
			for sc.Scan() {
			}
		}()
	}
	return addrs, cmds
}

// netEqCase builds a mem/net transport pair over a freshly spawned
// 3-process cluster for one topology/strategy case.
func netEqCase(t *testing.T, tc eqCase, procs int) (*MemTransport, *NetTransport) {
	t.Helper()
	addrs, _ := spawnNetCluster(t, tc.g.N(), procs)
	memT, err := NewMemTransport(tc.g, tc.strat, 0)
	if err != nil {
		t.Fatal(err)
	}
	netT, err := NewNetTransport(tc.g, tc.strat, addrs, NetOptions{CallTimeout: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { netT.Close() })
	return memT, netT
}

// TestNetTransportEquivalence drives the same scripted workload through
// a 3-process socket cluster and the in-process fast path and demands
// identical results and identical message-pass accounting, operation by
// operation — registration, steady locates, migration, deregistration.
func TestNetTransportEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("process cluster: skipped in -short")
	}
	for _, tc := range equivalenceCases(t) {
		t.Run(tc.name, func(t *testing.T) {
			memT, netT := netEqCase(t, tc, 3)
			n := tc.g.N()
			script := []struct {
				port   core.Port
				server graph.NodeID
			}{
				{"alpha", graph.NodeID(n / 3)},
				{"beta", graph.NodeID(n - 1)},
				{"gamma", 0},
			}
			memRefs := make(map[core.Port]ServerRef)
			netRefs := make(map[core.Port]ServerRef)
			for _, sc := range script {
				memBefore, netBefore := memT.Passes(), netT.Passes()
				r1, err := memT.Register(sc.port, sc.server)
				if err != nil {
					t.Fatal(err)
				}
				r2, err := netT.Register(sc.port, sc.server)
				if err != nil {
					t.Fatal(err)
				}
				memRefs[sc.port], netRefs[sc.port] = r1, r2
				if mc, nc := memT.Passes()-memBefore, netT.Passes()-netBefore; mc != nc {
					t.Fatalf("register %q: mem charged %d passes, net %d", sc.port, mc, nc)
				}
			}

			checkLocates := func(stage string) {
				t.Helper()
				for c := 0; c < n; c += 3 {
					client := graph.NodeID(c)
					for _, sc := range script {
						memBefore, netBefore := memT.Passes(), netT.Passes()
						e1, err1 := memT.Locate(client, sc.port)
						e2, err2 := netT.Locate(client, sc.port)
						if (err1 == nil) != (err2 == nil) {
							t.Fatalf("%s: locate %q from %d: mem err=%v net err=%v",
								stage, sc.port, client, err1, err2)
						}
						if err1 == nil && (e1.Addr != e2.Addr || e1.ServerID != e2.ServerID) {
							t.Fatalf("%s: locate %q from %d: mem %+v != net %+v",
								stage, sc.port, client, e1, e2)
						}
						if mc, nc := memT.Passes()-memBefore, netT.Passes()-netBefore; mc != nc {
							t.Fatalf("%s: locate %q from %d: mem charged %d passes, net %d",
								stage, sc.port, client, mc, nc)
						}
					}
				}
			}
			checkLocates("steady")

			to := graph.NodeID(n / 2)
			memBefore, netBefore := memT.Passes(), netT.Passes()
			if err := memRefs["alpha"].Migrate(to); err != nil {
				t.Fatal(err)
			}
			if err := netRefs["alpha"].Migrate(to); err != nil {
				t.Fatal(err)
			}
			if mc, nc := memT.Passes()-memBefore, netT.Passes()-netBefore; mc != nc {
				t.Fatalf("migrate: mem charged %d passes, net %d", mc, nc)
			}
			checkLocates("post-migrate")

			if err := memRefs["beta"].Deregister(); err != nil {
				t.Fatal(err)
			}
			if err := netRefs["beta"].Deregister(); err != nil {
				t.Fatal(err)
			}
			if _, err := netT.Locate(1, "beta"); !errors.Is(err, core.ErrNotFound) {
				t.Fatalf("net locate after deregister: %v; want ErrNotFound", err)
			}
			checkLocates("post-deregister")
		})
	}
}

// TestNetTransportEquivalenceProbe pins the probe path: identical
// outcomes and the exact 2×Dist (answered) / 1×Dist (crashed address)
// charges on both backends, including after migration and crash.
func TestNetTransportEquivalenceProbe(t *testing.T) {
	if testing.Short() {
		t.Skip("process cluster: skipped in -short")
	}
	tc := equivalenceCases(t)[1] // grid-manhattan: nontrivial distances
	memT, netT := netEqCase(t, tc, 3)
	n := tc.g.N()
	server := graph.NodeID(n / 3)
	memRef, err := memT.Register("alpha", server)
	if err != nil {
		t.Fatal(err)
	}
	netRef, err := netT.Register("alpha", server)
	if err != nil {
		t.Fatal(err)
	}
	client := graph.NodeID(1)
	memE, err := memT.Locate(client, "alpha")
	if err != nil {
		t.Fatal(err)
	}
	netE, err := netT.Locate(client, "alpha")
	if err != nil {
		t.Fatal(err)
	}
	routing, err := graph.NewRouting(tc.g)
	if err != nil {
		t.Fatal(err)
	}
	for c := 0; c < n; c += 4 {
		prober := graph.NodeID(c)
		memBefore, netBefore := memT.Passes(), netT.Passes()
		me, merr := memT.Probe(prober, memE)
		ne, nerr := netT.Probe(prober, netE)
		if merr != nil || nerr != nil {
			t.Fatalf("probe from %d: mem err=%v net err=%v", c, merr, nerr)
		}
		if me.Addr != ne.Addr || me.ServerID != ne.ServerID {
			t.Fatalf("probe from %d: mem %+v != net %+v", c, me, ne)
		}
		want := int64(2 * routing.Dist(prober, server))
		if mc := memT.Passes() - memBefore; mc != want {
			t.Fatalf("probe from %d: mem charged %d, want %d", c, mc, want)
		}
		if nc := netT.Passes() - netBefore; nc != want {
			t.Fatalf("probe from %d: net charged %d, want %d", c, nc, want)
		}
	}

	// Stale probes after migration: negative answer, same 2×Dist charge.
	to := graph.NodeID(n - 1)
	if err := memRef.Migrate(to); err != nil {
		t.Fatal(err)
	}
	if err := netRef.Migrate(to); err != nil {
		t.Fatal(err)
	}
	memBefore, netBefore := memT.Passes(), netT.Passes()
	_, merr := memT.Probe(client, memE)
	_, nerr := netT.Probe(client, netE)
	if !errors.Is(merr, core.ErrNotFound) || !errors.Is(nerr, core.ErrNotFound) {
		t.Fatalf("stale probe: mem err=%v net err=%v; want ErrNotFound", merr, nerr)
	}
	want := int64(2 * routing.Dist(client, server))
	if mc, nc := memT.Passes()-memBefore, netT.Passes()-netBefore; mc != want || nc != want {
		t.Fatalf("stale probe: mem charged %d, net %d, want %d", mc, nc, want)
	}

	// A crashed address swallows the request: 1×Dist on both.
	if err := memT.Crash(to); err != nil {
		t.Fatal(err)
	}
	if err := netT.Crash(to); err != nil {
		t.Fatal(err)
	}
	// Cached postings at live rendezvous nodes still answer with the
	// (now stale) address — detecting the crash is the probe's job.
	staleMem, err1 := memT.Locate(client, "alpha")
	staleNet, err2 := netT.Locate(client, "alpha")
	if (err1 == nil) != (err2 == nil) || (err1 == nil && staleMem.Addr != staleNet.Addr) {
		t.Fatalf("post-crash locate: mem %+v/%v net %+v/%v", staleMem, err1, staleNet, err2)
	}
	memE.Addr, netE.Addr = to, to
	memBefore, netBefore = memT.Passes(), netT.Passes()
	_, merr = memT.Probe(client, memE)
	_, nerr = netT.Probe(client, netE)
	if merr == nil || nerr == nil {
		t.Fatalf("crashed probe: mem err=%v net err=%v; want errors", merr, nerr)
	}
	want = int64(routing.Dist(client, to))
	if mc, nc := memT.Passes()-memBefore, netT.Passes()-netBefore; mc != want || nc != want {
		t.Fatalf("crashed probe: mem charged %d, net %d, want %d", mc, nc, want)
	}
}

// TestNetTransportEquivalenceBatch pushes identical PostBatch and
// LocateBatch traffic through both backends: per-request answers and
// total charges must match, as must the batched-vs-sequential totals.
func TestNetTransportEquivalenceBatch(t *testing.T) {
	if testing.Short() {
		t.Skip("process cluster: skipped in -short")
	}
	for _, tc := range equivalenceCases(t) {
		t.Run(tc.name, func(t *testing.T) {
			memT, netT := netEqCase(t, tc, 3)
			n := tc.g.N()
			regs := []Registration{
				{Port: "alpha", Node: graph.NodeID(n / 3)},
				{Port: "beta", Node: graph.NodeID(n - 1)},
			}
			memT.ResetPasses()
			netT.ResetPasses()
			if _, err := memT.PostBatch(regs); err != nil {
				t.Fatal(err)
			}
			if _, err := netT.PostBatch(regs); err != nil {
				t.Fatal(err)
			}
			if memT.Passes() != netT.Passes() {
				t.Fatalf("PostBatch: mem charged %d passes, net %d", memT.Passes(), netT.Passes())
			}

			var reqs []LocateReq
			for c := 0; c < n; c += 5 {
				reqs = append(reqs,
					LocateReq{Client: graph.NodeID(c), Port: "alpha"},
					LocateReq{Client: graph.NodeID(c), Port: "beta"},
					LocateReq{Client: graph.NodeID(c), Port: "nope"})
			}
			memRes := make([]LocateRes, len(reqs))
			netRes := make([]LocateRes, len(reqs))
			memT.ResetPasses()
			netT.ResetPasses()
			memT.LocateBatch(reqs, memRes)
			netT.LocateBatch(reqs, netRes)
			if memT.Passes() != netT.Passes() {
				t.Fatalf("LocateBatch: mem charged %d passes, net %d", memT.Passes(), netT.Passes())
			}
			for i := range reqs {
				if (memRes[i].Err == nil) != (netRes[i].Err == nil) {
					t.Fatalf("req %d (%+v): mem err=%v net err=%v", i, reqs[i], memRes[i].Err, netRes[i].Err)
				}
				if memRes[i].Err == nil &&
					(memRes[i].Entry.Addr != netRes[i].Entry.Addr ||
						memRes[i].Entry.ServerID != netRes[i].Entry.ServerID) {
					t.Fatalf("req %d (%+v): mem %+v != net %+v", i, reqs[i], memRes[i].Entry, netRes[i].Entry)
				}
			}
		})
	}
}

// TestNetTransportCrashEquivalence pins the endpoint crash model: after
// crashing a rendezvous node on both backends, locate answers and
// charges still agree (the crashed node's cache is lost and silent).
func TestNetTransportCrashEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("process cluster: skipped in -short")
	}
	tc := equivalenceCases(t)[0]
	memT, netT := netEqCase(t, tc, 3)
	n := tc.g.N()
	for _, port := range []core.Port{"alpha", "beta"} {
		node := graph.NodeID(int(port[0]) % n)
		if _, err := memT.Register(port, node); err != nil {
			t.Fatal(err)
		}
		if _, err := netT.Register(port, node); err != nil {
			t.Fatal(err)
		}
	}
	victim := graph.NodeID(2)
	if err := memT.Crash(victim); err != nil {
		t.Fatal(err)
	}
	if err := netT.Crash(victim); err != nil {
		t.Fatal(err)
	}
	for c := 0; c < n; c += 2 {
		client := graph.NodeID(c)
		for _, port := range []core.Port{"alpha", "beta"} {
			memBefore, netBefore := memT.Passes(), netT.Passes()
			e1, err1 := memT.Locate(client, port)
			e2, err2 := netT.Locate(client, port)
			if (err1 == nil) != (err2 == nil) {
				t.Fatalf("locate %q from %d after crash: mem err=%v net err=%v", port, client, err1, err2)
			}
			if err1 == nil && e1.Addr != e2.Addr {
				t.Fatalf("locate %q from %d after crash: mem %+v != net %+v", port, client, e1, e2)
			}
			if mc, nc := memT.Passes()-memBefore, netT.Passes()-netBefore; mc != nc {
				t.Fatalf("locate %q from %d after crash: mem charged %d, net %d", port, client, mc, nc)
			}
		}
	}
	// And after restore + re-register, both recover identically.
	if err := memT.Restore(victim); err != nil {
		t.Fatal(err)
	}
	if err := netT.Restore(victim); err != nil {
		t.Fatal(err)
	}
	if _, err := memT.Register("gamma", victim); err != nil {
		t.Fatal(err)
	}
	if _, err := netT.Register("gamma", victim); err != nil {
		t.Fatal(err)
	}
	e1, err1 := memT.Locate(0, "gamma")
	e2, err2 := netT.Locate(0, "gamma")
	if err1 != nil || err2 != nil || e1.Addr != e2.Addr {
		t.Fatalf("post-restore locate: mem %+v/%v net %+v/%v", e1, err1, e2, err2)
	}
}

// TestNetTransportHintedCluster runs the full serving stack (hint
// cache, coalescing, metrics) over the socket transport and checks
// hinted answers equal unhinted ones, with probe traffic visibly
// cheaper than floods.
func TestNetTransportHintedCluster(t *testing.T) {
	if testing.Short() {
		t.Skip("process cluster: skipped in -short")
	}
	tc := equivalenceCases(t)[0]
	addrs, _ := spawnNetCluster(t, tc.g.N(), 3)
	netT, err := NewNetTransport(tc.g, tc.strat, addrs, NetOptions{CallTimeout: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	plainT, err := NewMemTransport(tc.g, tc.strat, 0)
	if err != nil {
		t.Fatal(err)
	}
	c := New(netT, Options{Hints: true})
	defer c.Close()
	n := tc.g.N()
	if _, err := c.Register("alpha", graph.NodeID(n/2)); err != nil {
		t.Fatal(err)
	}
	if _, err := plainT.Register("alpha", graph.NodeID(n/2)); err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 3; round++ {
		for cl := 0; cl < n; cl += 4 {
			hinted, err := c.Locate(graph.NodeID(cl), "alpha")
			if err != nil {
				t.Fatal(err)
			}
			plain, err := plainT.Locate(graph.NodeID(cl), "alpha")
			if err != nil {
				t.Fatal(err)
			}
			if hinted.Addr != plain.Addr || hinted.ServerID != plain.ServerID {
				t.Fatalf("round %d client %d: hinted %+v != plain %+v", round, cl, hinted, plain)
			}
		}
	}
	m := c.Metrics()
	if m.HintHits == 0 {
		t.Fatalf("no hint hits over the net transport: %+v", m)
	}
}

// TestNetTransportKillDash9 is the fault-injection test: kill -9 one
// node process mid-run and verify (a) the hint generations bump so
// cached addresses stop being probed into the void, (b) locates for
// services on surviving processes keep answering, and (c) weighted
// hot-port promotion still converges.
func TestNetTransportKillDash9(t *testing.T) {
	if testing.Short() {
		t.Skip("process cluster: skipped in -short")
	}
	g := topology.Complete(36)
	base := rendezvous.Checkerboard(36)
	hot, err := strategy.PostHeavy(36, strategy.AlphaQuerySize(36, 16))
	if err != nil {
		t.Fatal(err)
	}
	w, err := strategy.NewWeighted(base, hot)
	if err != nil {
		t.Fatal(err)
	}
	addrs, cmds := spawnNetCluster(t, 36, 3)
	netT, err := NewLayoutNetTransport(g, weightedOf(t, w), addrs, NetOptions{CallTimeout: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer netT.Close()

	// Two services: one whose server node lives on the doomed middle
	// process ([12,24)), one on the surviving first process.
	if _, err := netT.Register("doomed", 15); err != nil {
		t.Fatal(err)
	}
	if _, err := netT.Register("alive", 3); err != nil {
		t.Fatal(err)
	}
	if _, err := netT.Locate(0, "doomed"); err != nil {
		t.Fatal(err)
	}
	if _, err := netT.Locate(0, "alive"); err != nil {
		t.Fatal(err)
	}

	genBefore := netT.Gen("alive")
	if err := cmds[1].Process.Signal(syscall.SIGKILL); err != nil {
		t.Fatal(err)
	}
	cmds[1].Wait()

	// Probing into the dead process fails without an answer and bumps
	// every generation on first observation.
	e := core.Entry{Port: "doomed", Addr: 15, ServerID: 1, Time: 1, Active: true}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, err := netT.Probe(0, e); err != nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("probe into killed process kept succeeding")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if netT.Gen("alive") == genBefore {
		t.Fatalf("hint generation did not bump after process death")
	}

	// Checkerboard spreads every port's postings across all three
	// processes, so services with live rendezvous nodes keep resolving.
	if _, err := netT.Locate(0, "alive"); err != nil {
		t.Fatalf("locate alive after kill -9: %v", err)
	}

	// The full serving stack keeps working over the degraded cluster,
	// and weighted promotion still converges: promote "alive" and watch
	// the hot split serve it.
	if err := netT.SetHotPorts([]core.Port{"alive"}); err != nil {
		t.Logf("SetHotPorts over degraded cluster: %v (dead-process reposts are silence)", err)
	}
	hotPorts := netT.HotPorts()
	if len(hotPorts) != 1 || hotPorts[0] != "alive" {
		t.Fatalf("hot classification did not converge: %v", hotPorts)
	}
	before := netT.Passes()
	if _, err := netT.Locate(0, "alive"); err != nil {
		t.Fatalf("hot locate after kill -9: %v", err)
	}
	hotCost := netT.Passes() - before
	if hotCost <= 0 {
		t.Fatalf("hot locate charged %d passes", hotCost)
	}

	// A new registration on surviving processes resolves immediately —
	// the cluster converged rather than wedging on the dead member.
	if _, err := netT.Register("fresh", 30); err != nil {
		t.Fatal(err)
	}
	if _, err := netT.Locate(4, "fresh"); err != nil {
		t.Fatalf("locate fresh service after kill -9: %v", err)
	}
}

// TestNetReplicatedKillEquivalence is the replicated fault-injection
// gate: a 3-process r=2 cluster loses one whole node-shard process to
// kill -9 mid-run, and the socket transport must keep matching the
// in-process fast path — answers and exact pass charges — on the
// failure path, first with the process death fail-silent on the wire
// (mem models it with crash flags), then with the same crash flags
// applied to both. With r=2, every locate from a live client must still
// succeed on both backends.
func TestNetReplicatedKillEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("process cluster: skipped in -short")
	}
	n, procs := 36, 3
	g := topology.Complete(n)
	rp, err := strategy.NewReplicated(rendezvous.Checkerboard(n), 2)
	if err != nil {
		t.Fatal(err)
	}
	addrs, cmds := spawnNetCluster(t, n, procs)
	memT, err := NewLayoutMemTransport(g, fixedOf(t, rp), 0)
	if err != nil {
		t.Fatal(err)
	}
	netT, err := NewLayoutNetTransport(g, fixedOf(t, rp), addrs, NetOptions{CallTimeout: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { netT.Close() })

	ports := map[core.Port]graph.NodeID{"alpha": 7, "beta": 29}
	for port, node := range ports {
		memBefore, netBefore := memT.Passes(), netT.Passes()
		if _, err := memT.Register(port, node); err != nil {
			t.Fatal(err)
		}
		if _, err := netT.Register(port, node); err != nil {
			t.Fatal(err)
		}
		if mc, nc := memT.Passes()-memBefore, netT.Passes()-netBefore; mc != nc {
			t.Fatalf("register %q: mem charged %d (union post), net %d", port, mc, nc)
		}
	}

	// Kill the middle process: nodes [12, 24) go dark.
	lo, hi := PartitionRange(n, procs, 1)
	if err := cmds[1].Process.Signal(syscall.SIGKILL); err != nil {
		t.Fatal(err)
	}
	cmds[1].Wait()
	// Wait until the transport has observed the death (a probe into the
	// dead range fails without an answer).
	probe := core.Entry{Port: "alpha", Addr: graph.NodeID(lo + 3), ServerID: 99, Time: 1, Active: true}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, err := netT.Probe(0, probe); err != nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("probe into killed process kept succeeding")
		}
		time.Sleep(10 * time.Millisecond)
	}

	// Phase A — fail-silent: the wire knows nothing of the crash flags;
	// the dead process's node range is silence. Mem models the same
	// state with crash flags on that range. Answers and charges from
	// every live client must match, and with r=2 every one succeeds.
	for v := lo; v < hi; v++ {
		if err := memT.Crash(graph.NodeID(v)); err != nil {
			t.Fatal(err)
		}
	}
	memT.ResetPasses()
	netT.ResetPasses()
	sweep := func(stage string, skipDead bool) {
		t.Helper()
		for c := 0; c < n; c++ {
			client := graph.NodeID(c)
			if skipDead && c >= lo && c < hi {
				continue
			}
			for port := range ports {
				memBefore, netBefore := memT.Passes(), netT.Passes()
				e1, err1 := memT.Locate(client, port)
				e2, err2 := netT.Locate(client, port)
				if (err1 == nil) != (err2 == nil) {
					t.Fatalf("%s: locate %q from %d: mem err=%v net err=%v", stage, port, client, err1, err2)
				}
				if err1 == nil && (e1.Addr != e2.Addr || e1.ServerID != e2.ServerID) {
					t.Fatalf("%s: locate %q from %d: mem %+v != net %+v", stage, port, client, e1, e2)
				}
				if err1 != nil && errors.Is(err1, core.ErrNotFound) {
					t.Fatalf("%s: locate %q from %d failed despite r=2: %v", stage, port, client, err1)
				}
				if mc, nc := memT.Passes()-memBefore, netT.Passes()-netBefore; mc != nc {
					t.Fatalf("%s: locate %q from %d: mem charged %d passes, net %d", stage, port, client, mc, nc)
				}
			}
		}
	}
	sweep("fail-silent", true)

	// Phase B — the same crash flags applied to both backends: crashed
	// clients error identically, every live locate still succeeds, and
	// the batched path agrees too.
	for v := lo; v < hi; v++ {
		if err := netT.Crash(graph.NodeID(v)); err != nil {
			t.Fatal(err)
		}
	}
	memT.ResetPasses()
	netT.ResetPasses()
	sweep("crash-flagged", false)

	var reqs []LocateReq
	for c := 0; c < n; c += 2 {
		reqs = append(reqs,
			LocateReq{Client: graph.NodeID(c), Port: "alpha"},
			LocateReq{Client: graph.NodeID(c), Port: "nope"})
	}
	memRes := make([]LocateRes, len(reqs))
	netRes := make([]LocateRes, len(reqs))
	memT.ResetPasses()
	netT.ResetPasses()
	memT.LocateBatch(reqs, memRes)
	netT.LocateBatch(reqs, netRes)
	if memT.Passes() != netT.Passes() {
		t.Fatalf("failure-path LocateBatch: mem charged %d passes, net %d", memT.Passes(), netT.Passes())
	}
	for i := range reqs {
		if (memRes[i].Err == nil) != (netRes[i].Err == nil) {
			t.Fatalf("req %d (%+v): mem err=%v net err=%v", i, reqs[i], memRes[i].Err, netRes[i].Err)
		}
		if memRes[i].Err == nil && memRes[i].Entry.Addr != netRes[i].Entry.Addr {
			t.Fatalf("req %d (%+v): mem %+v != net %+v", i, reqs[i], memRes[i].Entry, netRes[i].Entry)
		}
	}
}

// TestNetReplicatedRepairLoop covers the background re-post repair
// loop: kill -9 a node-shard process, restart a fresh worker on the
// same partition, and watch the repair loop detect the recovery,
// re-register the liveness records and re-post the postings the crash
// destroyed — restoring full replication (and probe service) without
// any client-driven re-registration.
func TestNetReplicatedRepairLoop(t *testing.T) {
	if testing.Short() {
		t.Skip("process cluster: skipped in -short")
	}
	n, procs := 36, 3
	g := topology.Complete(n)
	rp, err := strategy.NewReplicated(rendezvous.Checkerboard(n), 2)
	if err != nil {
		t.Fatal(err)
	}
	addrs, cmds := spawnNetCluster(t, n, procs)
	netT, err := NewLayoutNetTransport(g, fixedOf(t, rp), addrs, NetOptions{
		CallTimeout:    10 * time.Second,
		RepairInterval: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { netT.Close() })

	// A server homed on the middle process: its liveness record and its
	// postings at rendezvous nodes in [12,24) die with the process.
	if _, err := netT.Register("svc", 15); err != nil {
		t.Fatal(err)
	}
	e, err := netT.Locate(0, "svc")
	if err != nil || e.Addr != 15 {
		t.Fatalf("pre-kill locate: %+v, %v", e, err)
	}
	if err := cmds[1].Process.Signal(syscall.SIGKILL); err != nil {
		t.Fatal(err)
	}
	cmds[1].Wait()

	// Locates survive the outage via replica fallthrough.
	if _, err := netT.Locate(0, "svc"); err != nil {
		t.Fatalf("locate during outage: %v", err)
	}

	// Restart a worker on the same partition and address.
	lo, hi := PartitionRange(n, procs, 1)
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	var restarted *exec.Cmd
	deadline := time.Now().Add(10 * time.Second)
	for {
		cmd := exec.Command(exe)
		cmd.Env = append(os.Environ(),
			"MM_NET_NODE=1",
			fmt.Sprintf("MM_NET_N=%d", n),
			fmt.Sprintf("MM_NET_LO=%d", lo),
			fmt.Sprintf("MM_NET_HI=%d", hi),
			"MM_NET_ADDR="+addrs[1],
		)
		cmd.Stderr = os.Stderr
		out, err := cmd.StdoutPipe()
		if err != nil {
			t.Fatal(err)
		}
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		sc := bufio.NewScanner(out)
		if sc.Scan() && strings.HasPrefix(sc.Text(), "ADDR ") {
			go func() {
				for sc.Scan() {
				}
			}()
			restarted = cmd
			break
		}
		cmd.Process.Kill()
		cmd.Wait()
		if time.Now().After(deadline) {
			t.Fatal("could not rebind worker to the old address")
		}
		time.Sleep(100 * time.Millisecond)
	}
	t.Cleanup(func() {
		restarted.Process.Kill()
		restarted.Wait()
	})

	// The repair loop must re-register the liveness record (probes into
	// the recovered range answer positively again) and re-post, so the
	// replica-0 rendezvous in the recovered range serves depth-0 floods
	// again.
	deadline = time.Now().Add(10 * time.Second)
	for {
		if _, err := netT.Probe(0, e); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("repair loop never restored the liveness record")
		}
		time.Sleep(25 * time.Millisecond)
	}
	rv := rendezvous.Intersect(rp.Base().Post(15), rp.Base().Query(2))
	found := false
	for _, v := range rv {
		if int(v) >= lo && int(v) < hi {
			found = true
		}
	}
	if !found {
		t.Fatalf("test geometry broke: rendezvous %v not in recovered range [%d,%d)", rv, lo, hi)
	}
	if e2, err := netT.Locate(2, "svc"); err != nil || e2.Addr != 15 {
		t.Fatalf("post-repair locate: %+v, %v", e2, err)
	}
}

// TestNodeServerDrain covers the graceful-drain path used by mmnode's
// SIGTERM handling: a SIGTERM'd worker finishes serving and exits 0.
func TestNodeServerDrain(t *testing.T) {
	if testing.Short() {
		t.Skip("process cluster: skipped in -short")
	}
	g := topology.Complete(12)
	addrs, cmds := spawnNetCluster(t, 12, 2)
	netT, err := NewNetTransport(g, rendezvous.Checkerboard(12), addrs, NetOptions{CallTimeout: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer netT.Close()
	if _, err := netT.Register("svc", 1); err != nil {
		t.Fatal(err)
	}
	if err := cmds[0].Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if err := cmds[0].Wait(); err != nil {
		t.Fatalf("SIGTERM'd worker exited non-zero: %v", err)
	}
}

// TestNetTransportWeightedEquivalence pins the weighted mode across
// the process boundary: promotion, hot locates, demotion and the
// sticky union-posting rule must give identical answers and identical
// pass charges on the weighted mem and net transports.
func TestNetTransportWeightedEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("process cluster: skipped in -short")
	}
	g := topology.Complete(36)
	base := rendezvous.Checkerboard(36)
	mkWeighted := func() *strategy.Weighted {
		hot, err := strategy.PostHeavy(36, strategy.AlphaQuerySize(36, 16))
		if err != nil {
			t.Fatal(err)
		}
		w, err := strategy.NewWeighted(base, hot)
		if err != nil {
			t.Fatal(err)
		}
		return w
	}
	addrs, _ := spawnNetCluster(t, 36, 3)
	memT, err := NewLayoutMemTransport(g, weightedOf(t, mkWeighted()), 0)
	if err != nil {
		t.Fatal(err)
	}
	netT, err := NewLayoutNetTransport(g, weightedOf(t, mkWeighted()), addrs, NetOptions{CallTimeout: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { netT.Close() })

	for _, reg := range []struct {
		port core.Port
		node graph.NodeID
	}{{"hot", 7}, {"cold", 29}} {
		memBefore, netBefore := memT.Passes(), netT.Passes()
		if _, err := memT.Register(reg.port, reg.node); err != nil {
			t.Fatal(err)
		}
		if _, err := netT.Register(reg.port, reg.node); err != nil {
			t.Fatal(err)
		}
		if mc, nc := memT.Passes()-memBefore, netT.Passes()-netBefore; mc != nc {
			t.Fatalf("register %q: mem charged %d, net %d", reg.port, mc, nc)
		}
	}

	checkStage := func(stage string) {
		t.Helper()
		for c := 0; c < 36; c += 5 {
			for _, port := range []core.Port{"hot", "cold"} {
				memBefore, netBefore := memT.Passes(), netT.Passes()
				e1, err1 := memT.Locate(graph.NodeID(c), port)
				e2, err2 := netT.Locate(graph.NodeID(c), port)
				if (err1 == nil) != (err2 == nil) || (err1 == nil && e1.Addr != e2.Addr) {
					t.Fatalf("%s: locate %q from %d: mem %+v/%v net %+v/%v", stage, port, c, e1, err1, e2, err2)
				}
				if mc, nc := memT.Passes()-memBefore, netT.Passes()-netBefore; mc != nc {
					t.Fatalf("%s: locate %q from %d: mem charged %d, net %d", stage, port, c, mc, nc)
				}
			}
		}
	}
	checkStage("cold")

	// Promote "hot" on both: union reposts then hot-split queries, at
	// identical charges.
	memBefore, netBefore := memT.Passes(), netT.Passes()
	if err := memT.SetHotPorts([]core.Port{"hot"}); err != nil {
		t.Fatal(err)
	}
	if err := netT.SetHotPorts([]core.Port{"hot"}); err != nil {
		t.Fatal(err)
	}
	if mc, nc := memT.Passes()-memBefore, netT.Passes()-netBefore; mc != nc {
		t.Fatalf("promotion: mem charged %d, net %d", mc, nc)
	}
	checkStage("promoted")

	// Demote: union ⊇ base keeps the port resolvable immediately.
	if err := memT.SetHotPorts(nil); err != nil {
		t.Fatal(err)
	}
	if err := netT.SetHotPorts(nil); err != nil {
		t.Fatal(err)
	}
	checkStage("demoted")
}
