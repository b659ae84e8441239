package cluster

import (
	"bufio"
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
	addrs, cmds := make([]string, procs), make([]*exec.Cmd, procs)
	for i := range procs {
		lo, hi := PartitionRange(n, procs, i)
		if cmds[i], addrs[i] = spawnWorker(t, n, lo, hi, ""); addrs[i] == "" {
			t.Fatalf("worker %d printed no ADDR line", i)
		}
	}
	return addrs, cmds
}

// spawnWorker starts a node-server worker for nodes [lo, hi) of n on
// listen ("" picks a free loopback port) and returns it with the address
// it printed, "" when it printed none. It is killed at test cleanup.
func spawnWorker(t *testing.T, n, lo, hi int, listen string) (*exec.Cmd, string) {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(exe)
	cmd.Env = append(os.Environ(), "MM_NET_NODE=1", fmt.Sprintf("MM_NET_N=%d", n),
		fmt.Sprintf("MM_NET_LO=%d", lo), fmt.Sprintf("MM_NET_HI=%d", hi), "MM_NET_ADDR="+listen)
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
	sc.Scan()
	addr, ok := strings.CutPrefix(sc.Text(), "ADDR ")
	if !ok {
		return cmd, ""
	}
	go func() { // drain any further output so the child never blocks
		for sc.Scan() {
		}
	}()
	return cmd, addr
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
	g, lay, err := buildWorld([]string{"complete", "36", "weighted"})
	if err != nil {
		t.Fatal(err)
	}
	addrs, cmds := spawnNetCluster(t, 36, 3)
	netT, err := NewLayoutNetTransport(g, lay, addrs, NetOptions{CallTimeout: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer netT.Close()

	// Two services, both homed on the doomed middle process: it hosts
	// wire slots [12,24), query columns 2 and 3, so nodes 15 and 3. A
	// locate reads rows, not liveness records, so "alive" keeps
	// resolving from the surviving processes; "doomed" is probed.
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

	// Probing into the dead process fails without an answer and bumps
	// every generation on first observation.
	genBefore := netT.Gen("alive")
	killShard(t, netT, cmds[1], core.Entry{Port: "doomed", Addr: 15, ServerID: 1, Time: 1, Active: true})
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
	g, lay := topology.Complete(n), fixedOf(t, mkReplicated(t, n, 2))
	addrs, cmds := spawnNetCluster(t, n, procs)
	memT := must(NewLayoutMemTransport(g, lay, 0))
	netT, err := NewLayoutNetTransport(g, lay, addrs, NetOptions{CallTimeout: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	r := runHistory(t, "world complete 36 r=2\nregister alpha 7\nregister beta 29", frontColumn("mem", memT, "", false), frontColumn("net", netT, "", true))

	lo, hi := PartitionRange(n, procs, 1)
	killShard(t, netT, cmds[1], core.Entry{Port: "alpha", Addr: graph.NodeID(lo + 3), ServerID: 99, Time: 1, Active: true})
	crash := func(tr Transport) {
		for v := lo; v < hi; v++ {
			if err := tr.Crash(graph.NodeID(v)); err != nil {
				t.Fatal(err)
			}
		}
	}
	crash(memT) // Phase A: the dead range is silence on the wire, crash flags on mem.
	r.more(fmt.Sprintf("locate 0-%d,%d-%d alpha,beta", lo-1, hi, n-1))
	everyFound(t, r)
	crash(netT) // Phase B: the same crash flags on both.
	r.more("locate 0-35 alpha,beta")
	everyFound(t, r)
	r.more("locate-batch 0-35/2 alpha,nope")
}

// everyFound fails t when a locate of r's last step missed.
func everyFound(t *testing.T, r *runner) {
	t.Helper()
	for i, c := range r.last[0] {
		if c.out == "not-found" {
			t.Fatalf("%s: call %d missed", r.at, i)
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
	rp := must(strategy.NewReplicated(rendezvous.Checkerboard(n), 2))
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
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(100 * time.Millisecond) {
		if _, addr := spawnWorker(t, n, lo, hi, addrs[1]); addr != "" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("could not rebind worker to the old address")
		}
	}

	// The repair loop must re-register the liveness record (probes into
	// the recovered range answer positively again) and re-post, so the
	// replica-0 rendezvous in the recovered range serves depth-0 floods
	// again.
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(25 * time.Millisecond) {
		if _, err := netT.Probe(0, e); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("repair loop never restored the liveness record")
		}
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
