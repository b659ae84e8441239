package cluster

import (
	"errors"
	"fmt"
	"os/exec"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"matchmake/internal/core"
	"matchmake/internal/graph"
	"matchmake/internal/rendezvous"
	"matchmake/internal/sim"
	"matchmake/internal/topology"
)

// killShard kill -9s the node process cmd and waits until tr has
// observed its death: a probe into its range fails without an answer.
func killShard(t *testing.T, tr Transport, cmd *exec.Cmd, probe core.Entry) {
	t.Helper()
	if err := cmd.Process.Signal(syscall.SIGKILL); err != nil {
		t.Fatal(err)
	}
	cmd.Wait()
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(10 * time.Millisecond) {
		if _, err := tr.Probe(0, probe); err != nil {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("probe into killed process kept succeeding")
		}
	}
}

// TestNetCoalescedEquivalence pins the wire coalescers' contract: a
// concurrent workload through them returns exactly the answers and
// charges exactly the passes of the same workload uncoalesced — mid-
// resize against the model and the fast path, and over real processes
// with a kill -9'd node shard under r = 2 fallthrough, bare and behind a
// hinted cluster (probes and floods both coalesced) through migrate
// churn.
func TestNetCoalescedEquivalence(t *testing.T) {
	const n, procs = 24, 3
	// Homes sit in all three shard ranges and inside the mid-resize
	// epoch-1 membership. A round locates every (client, port) pair once,
	// one goroutine per port, so the coalescers share frames between them.
	const regs = "register alpha 2\nregister beta 13\nregister gamma 17\n"
	const round = "locate 0-23 alpha\n& locate 0-23 beta\n& locate 0-23 gamma\n& locate 0-23 nope\n"
	t.Run("mid-resize", func(t *testing.T) {
		runHistory(t, "world complete 24 active=18\ncolumns model mem net\n"+regs+"resize 2 24 1\n"+strings.Repeat(round, 3))
	})
	// pair builds a coalesced and an uncoalesced column over two spawned
	// r = 2 clusters, registers the servers and kills both middle shards.
	pair := func(t *testing.T, mods, before string, dead core.Entry) (*runner, *column) {
		if testing.Short() {
			t.Skip("spawns real processes")
		}
		var cols []*column
		var cmds [][]*exec.Cmd
		for _, off := range []bool{false, true} {
			addrs, c := spawnNetCluster(t, n, procs)
			tr, err := NewLayoutNetTransport(topology.Complete(n), fixedOf(t, mkReplicated(t, n, 2)), addrs,
				NetOptions{CallTimeout: 10 * time.Second, DisableCoalescing: off})
			if err != nil {
				t.Fatal(err)
			}
			cols, cmds = append(cols, frontColumn(fmt.Sprintf("net(uncoalesced=%v)", off), tr, mods, true)), append(cmds, c)
		}
		r := runHistory(t, "world complete 24 r=2\n"+regs+before, cols...)
		for i, c := range cols {
			killShard(t, c.tr, cmds[i][1], dead)
		}
		return r, cols[0]
	}
	t.Run("killed-shard", func(t *testing.T) {
		lo, _ := PartitionRange(n, procs, 1)
		r, _ := pair(t, "", "", core.Entry{Port: "alpha", Addr: graph.NodeID(lo + 1), ServerID: 99, Time: 1, Active: true})
		r.more(strings.Repeat(round, 6))
	})
	t.Run("hinted-churn", func(t *testing.T) {
		// Probes at beta's home fall into the dead process (one-way
		// charge), the fallback floods fall through to replica 1.
		r, coal := pair(t, "hints", round+round+"migrate alpha 5\n"+round+round, core.Entry{Port: "beta", Addr: 13, ServerID: 99, Time: 1, Active: true})
		r.more(round + round + round + "migrate gamma 20\n" + round)
		if m := coal.cl.Metrics(); m.HintHits == 0 || m.HintProbeFails == 0 || m.ReplicaFallthroughs == 0 {
			t.Errorf("workload missed a path it is here for: %+v", m)
		}
		if nt := coal.tr.(*NetTransport); nt.coal.shared.Load() == 0 || nt.wire.coal.shared.Load() == 0 {
			t.Errorf("coalesced run shared %d floods and %d probe flushes: nothing was compared", nt.coal.shared.Load(), nt.wire.coal.shared.Load())
		}
	})
}

// TestProbeFrames pins what one opProbe frame means, on batches built by
// hand so the grouping is not left to timing: probes leave as one frame
// per owning process and are answered record by record — an address its
// process holds crashed is silent (and charged one way) while its
// frame-mates answer — and a frame to a dead process is silence for
// every probe in it, reported upward once.
func TestProbeFrames(t *testing.T) {
	const n, procs = 24, 3
	addrs, srv := loopbackServers(t, n, procs)
	netT, err := NewNetTransport(topology.Complete(n), rendezvous.Checkerboard(n), addrs, NetOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer netT.Close()
	var downs atomic.Int32
	netT.SetEventSink(func(ev Event) {
		if ev.Type == EvProcDown {
			downs.Add(1)
		}
	})
	// Servers are named by wire slot: shard 0 hosts [0,8), shard 1 [8,16).
	node, ids := func(s int) graph.NodeID { return netT.wire.node[s] }, map[int]uint64{}
	for _, s := range []int{3, 9, 10, 11} {
		ref, err := netT.Register("svc", node(s))
		if err != nil {
			t.Fatal(err)
		}
		ids[s] = ref.(*server).id
	}
	probes := func(at ...int) []*coalOp {
		batch := make([]*coalOp, len(at))
		for i, s := range at {
			batch[i] = &coalOp{node: node(s), port: "svc", id: ids[s]}
		}
		return batch
	}
	frames := func(i int) int64 { return srv[i].OpCounts()["probe"] }
	answers := func(batch []*coalOp) (out []probeAnswer) {
		for _, op := range batch {
			out = append(out, op.ans)
		}
		return out
	}

	// The wire's own crash mark, behind the coordinator's back: what a
	// reading transport sees of a crash another instance recorded.
	netT.wire.crash(node(10))
	batch := probes(9, 10, 11, 3)
	batch[2].id = 12345 // nobody's id: a negative answer
	f0, f1 := frames(0), frames(1)
	netT.wire.flushProbes(batch)
	if got, want := fmt.Sprint(answers(batch)), fmt.Sprint([]probeAnswer{probeHit, probeSilent, probeMiss, probeHit}); got != want {
		t.Fatalf("mixed frame answered %s, want %s", got, want)
	}
	if d0, d1 := frames(0)-f0, frames(1)-f1; d0 != 1 || d1 != 1 {
		t.Fatalf("4 probes over two shards took %d+%d probe frames, want 1+1", d0, d1)
	}
	before := netT.Passes()
	_, err = netT.Probe(0, core.Entry{Port: "svc", Addr: node(10), ServerID: ids[10]})
	if d := netT.Passes() - before; !errors.Is(err, sim.ErrCrashed) || d != 1 {
		t.Fatalf("probe at a crashed address: err=%v, %d passes; want ErrCrashed and the one-way charge 1", err, d)
	}

	srv[1].Close()
	batch = probes(9, 11, 9, 3)
	netT.wire.flushProbes(batch)
	if got, want := fmt.Sprint(answers(batch)), fmt.Sprint([]probeAnswer{probeSilent, probeSilent, probeSilent, probeHit}); got != want {
		t.Fatalf("frame to a dead process answered %s, want %s", got, want)
	}
	netT.wire.flushProbes(probes(9, 11))
	if d := downs.Load(); d != 1 {
		t.Fatalf("dead process reported down %d times, want once", d)
	}
}

// coalNodes is the size of coalFixture's cluster.
const coalNodes = 64

// coalFixture is a cluster over the two node shards at addrs with every
// server homed on shard 0 (wire slots 0–7), so probes that share a flush
// share a frame.
func coalFixture(t *testing.T, addrs []string, hints bool) (*Cluster, *NetTransport, []core.Port) {
	t.Helper()
	const n = coalNodes
	netT, err := NewNetTransport(topology.Complete(n), rendezvous.Checkerboard(n), addrs, NetOptions{})
	if err != nil {
		t.Fatal(err)
	}
	c := New(netT, Options{Hints: hints})
	t.Cleanup(func() { c.Close() })
	ports := make([]core.Port, 8)
	for i := range ports {
		ports[i] = core.Port(fmt.Sprintf("svc%d", i))
		if _, err := c.Register(ports[i], netT.wire.node[i]); err != nil {
			t.Fatal(err)
		}
	}
	return c, netT, ports
}

// closedLoop runs callers closed-loop callers for rounds locates each,
// caller k as client k cycling the ports.
func closedLoop(t *testing.T, c *Cluster, ports []core.Port, callers, rounds int) {
	t.Helper()
	var wg sync.WaitGroup
	for k := 0; k < callers; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				if _, err := c.Locate(graph.NodeID(32+k), ports[i%len(ports)]); err != nil {
					t.Error(err)
					return
				}
			}
		}(k)
	}
	wg.Wait()
}

// TestCoalescerFillsBatches pins what the leader's yield buys. Two
// closed-loop callers on two processors are released by one flush
// microseconds apart; a leader that sealed at once would take a batch
// of one every other turn (pair, single, pair, single — 2 of 3 locates
// coalesced), one that lets the runnable caller enqueue first pairs them
// nearly every time. Hint probes ride the same machine, so two callers'
// probes share frames. A strictly sequential caller is never held back:
// it flushes alone on its first turn.
//
// The two shares depend on how the machine schedules the two callers,
// so each is the best of three attempts, every attempt logged: a loaded
// machine can stretch the callers apart once, while a leader that does
// not yield is held to 0.667 in every attempt and still fails. The
// floods go to two spawned node processes, as the benchmark's do: node
// servers inside the test process share the callers' two processors,
// and there the share depends on how many of them a flood wakes (≈ 0.98
// while every flood reached both, ≈ 0.89 once the query-local placement
// sent a caller's flood to one), where over processes it reads ≈ 0.98
// either way.
func TestCoalescerFillsBatches(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	const rounds = 4000
	// The race detector's slowdown stretches the callers apart (floods
	// 0.86–0.89 measured): the bar there only has to clear the 0.667 a
	// leader that never yields cannot exceed.
	wantShare := 0.85
	if raceDetector {
		wantShare = 0.75
	}

	t.Run("floods", func(t *testing.T) {
		addrs, _ := spawnNetCluster(t, coalNodes, 2)
		c, netT, ports := coalFixture(t, addrs, false)
		var share float64
		for attempt := 1; attempt <= 3 && share < wantShare; attempt++ {
			before, _ := netT.CoalesceStats()
			closedLoop(t, c, ports, 2, rounds)
			co, _ := netT.CoalesceStats()
			share = float64(co-before) / (2 * rounds)
			t.Logf("attempt %d: %.3f of two callers' locates shared a flood (bar %.2f)", attempt, share, wantShare)
		}
		if share < wantShare {
			t.Fatalf("in three attempts at most %.3f of two callers' locates shared a flood, want >= %.2f (0.667 without the yield)", share, wantShare)
		}
	})

	t.Run("probes", func(t *testing.T) {
		addrs, srv := loopbackServers(t, coalNodes, 2)
		c, netT, ports := coalFixture(t, addrs, true)
		closedLoop(t, c, ports, 2, len(ports)) // fill both callers' hints
		perLocate := 1.0
		for attempt := 1; attempt <= 3 && perLocate > 0.85; attempt++ {
			before, hits := srv[0].OpCounts()["probe"], c.Metrics().HintHits
			closedLoop(t, c, ports, 2, rounds)
			perLocate = float64(srv[0].OpCounts()["probe"]-before) / (2 * rounds)
			if got := c.Metrics().HintHits - hits; got < 2*rounds {
				t.Fatalf("%d hint hits in %d hinted locates", got, 2*rounds)
			}
			t.Logf("attempt %d: %.3f probe frames per hinted locate", attempt, perLocate)
		}
		if perLocate > 0.85 {
			t.Fatalf("in three attempts at least %.3f probe frames per hinted locate, want <= 0.85 (1 uncoalesced)", perLocate)
		}
		if co := netT.wire.coal.coalesced.Load(); co == 0 {
			t.Fatal("probe coalescer never shared a frame")
		}
	})

	t.Run("sequential", func(t *testing.T) {
		addrs, srv := loopbackServers(t, coalNodes, 2)
		c, netT, ports := coalFixture(t, addrs, true)
		closedLoop(t, c, ports, 1, 2*len(ports)) // a round of floods, a round of probes
		if co, fl := netT.CoalesceStats(); co != 0 || fl != 0 {
			t.Fatalf("a sequential caller coalesced %d locates into %d floods", co, fl)
		}
		if co := netT.wire.coal.coalesced.Load(); co != 0 {
			t.Fatalf("a sequential caller coalesced %d probes", co)
		}
		if got := srv[0].OpCounts()["probe"]; got != int64(len(ports)) {
			t.Fatalf("%d probe frames for %d sequential probes", got, len(ports))
		}
	})
}

// TestCoalescedZeroAllocs pins the coalesced read paths — a flood and a
// probe that share their flush with a second caller's — at zero heap
// allocations per locate, both callers' counted. The shards are real
// processes, so only the coordinator side is. Under the race detector
// sync.Pool drops a quarter of all Puts on purpose, so a pooled coalOp,
// batch or frame buffer is allocated again — 13 and 4 objects per locate
// measured — and the bar there is a ceiling just above that: still low
// enough to see a pool that stopped being used.
func TestCoalescedZeroAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns real processes")
	}
	for _, hints := range []bool{false, true} {
		t.Run(fmt.Sprintf("hints=%v", hints), func(t *testing.T) {
			ceiling := 0.0
			if raceDetector {
				ceiling = map[bool]float64{false: 16, true: 6}[hints]
			}
			addrs, _ := spawnNetCluster(t, coalNodes, 2)
			c, netT, ports := coalFixture(t, addrs, hints)
			closedLoop(t, c, ports, 2, 4*len(ports)) // fill hints, warm every pool
			stop, done := make(chan struct{}), make(chan struct{})
			go func() {
				defer close(done)
				for i := 0; ; i++ {
					select {
					case <-stop:
						return
					default:
						c.Locate(33, ports[i%len(ports)])
					}
				}
			}()
			i := 0
			allocs := testing.AllocsPerRun(2000, func() {
				i++
				if _, err := c.Locate(32, ports[i%len(ports)]); err != nil {
					t.Fatal(err)
				}
			})
			close(stop)
			<-done
			shared := netT.coal.coalesced.Load()
			if hints {
				shared = netT.wire.coal.coalesced.Load()
			}
			if shared == 0 {
				t.Fatal("no call shared a flush: the coalesced path was not measured")
			}
			if allocs > ceiling {
				t.Fatalf("coalesced locate allocates %.1f objects/op, want at most %.0f", allocs, ceiling)
			}
		})
	}
}
