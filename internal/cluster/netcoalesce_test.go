package cluster

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"matchmake/internal/core"
	"matchmake/internal/graph"
	"matchmake/internal/rendezvous"
	"matchmake/internal/sim"
	"matchmake/internal/strategy"
	"matchmake/internal/topology"
)

// locStep is one scheduled locate of a concurrent coalescing workload.
type locStep struct {
	client graph.NodeID
	port   core.Port
}

// coalSchedule builds a deterministic mixed workload: every client
// cycles the registered ports plus a never-registered one, so the
// schedule exercises hits, replica fallthrough and not-found paths.
func coalSchedule(n, rounds int, ports []core.Port) []locStep {
	var sched []locStep
	for r := 0; r < rounds; r++ {
		for c := 0; c < n; c++ {
			p := ports[(c+r)%len(ports)]
			sched = append(sched, locStep{client: graph.NodeID(c), port: p})
		}
	}
	return sched
}

// runCoalWorkload replays sched against tr with 8 concurrent workers
// (enough overlap for the coalescer to form real batches) and returns
// per-step answers plus the total pass charge of the run.
func runCoalWorkload(t *testing.T, tr Transport, sched []locStep) ([]core.Entry, []string, int64) {
	t.Helper()
	entries := make([]core.Entry, len(sched))
	errs := make([]string, len(sched))
	tr.ResetPasses()
	const workers = 8
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(sched); i += workers {
				e, err := tr.Locate(sched[i].client, sched[i].port)
				entries[i] = e
				if err != nil {
					errs[i] = err.Error()
				}
			}
		}(w)
	}
	wg.Wait()
	return entries, errs, tr.Passes()
}

// compareCoalRuns pins a coalesced run to its uncoalesced reference:
// identical per-step answers (entry identity and error text) and the
// exact same total pass charge.
func compareCoalRuns(t *testing.T, stage string, sched []locStep,
	refE []core.Entry, refErr []string, refPasses int64,
	gotE []core.Entry, gotErr []string, gotPasses int64) {
	t.Helper()
	for i := range sched {
		if refErr[i] != gotErr[i] {
			t.Fatalf("%s: step %d (client %d port %q): uncoalesced err=%q coalesced err=%q",
				stage, i, sched[i].client, sched[i].port, refErr[i], gotErr[i])
		}
		if refE[i].Addr != gotE[i].Addr || refE[i].ServerID != gotE[i].ServerID || refE[i].Active != gotE[i].Active {
			t.Fatalf("%s: step %d (client %d port %q): uncoalesced %+v != coalesced %+v",
				stage, i, sched[i].client, sched[i].port, refE[i], gotE[i])
		}
	}
	if refPasses != gotPasses {
		t.Fatalf("%s: uncoalesced charged %d passes, coalesced %d (must be exact)", stage, refPasses, gotPasses)
	}
}

// TestNetCoalescedEquivalence pins the wire coalescers' contract: a
// concurrent workload through them returns exactly the answers and
// charges exactly the passes of the same workload with coalescing
// disabled — including a kill -9'd node shard under r=2 fallthrough, a
// mid-resize dual-epoch elastic cluster, and a hinted cluster (probes
// and floods both coalesced) through migrate churn and a kill -9.
func TestNetCoalescedEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns real processes")
	}
	const n, procs = 24, 3
	g := topology.Complete(n)
	ports := []core.Port{"alpha", "beta", "gamma", "nope"}
	// Server homes sit in all three shard ranges and inside the
	// mid-resize test's epoch-1 membership (active 18).
	servers := map[core.Port]graph.NodeID{"alpha": 2, "beta": 13, "gamma": 17}

	// newKilledRepl boots an r=2 replicated cluster with its middle
	// shard kill -9'd and quiesced, so replica-0 floods into the dead
	// range must fall through to replica 1.
	newKilledRepl := func(t *testing.T, opts NetOptions) *NetTransport {
		t.Helper()
		rp, err := strategy.NewReplicated(rendezvous.Checkerboard(n), 2)
		if err != nil {
			t.Fatal(err)
		}
		addrs, cmds := spawnNetCluster(t, n, procs)
		netT, err := NewLayoutNetTransport(g, fixedOf(t, rp), addrs, opts)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { netT.Close() })
		for _, port := range ports[:3] {
			if _, err := netT.Register(port, servers[port]); err != nil {
				t.Fatal(err)
			}
		}
		lo, _ := PartitionRange(n, procs, 1)
		if err := cmds[1].Process.Signal(syscall.SIGKILL); err != nil {
			t.Fatal(err)
		}
		cmds[1].Wait()
		probe := core.Entry{Port: "alpha", Addr: graph.NodeID(lo + 1), ServerID: 99, Time: 1, Active: true}
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
		return netT
	}

	t.Run("killed-shard", func(t *testing.T) {
		sched := coalSchedule(n, 6, ports)
		ref := newKilledRepl(t, NetOptions{CallTimeout: 10 * time.Second, DisableCoalescing: true})
		refE, refErr, refPasses := runCoalWorkload(t, ref, sched)

		coal := newKilledRepl(t, NetOptions{CallTimeout: 10 * time.Second})
		gotE, gotErr, gotPasses := runCoalWorkload(t, coal, sched)
		compareCoalRuns(t, "killed-shard", sched, refE, refErr, refPasses, gotE, gotErr, gotPasses)
	})

	t.Run("mid-resize", func(t *testing.T) {
		// An elastic cluster frozen mid-transition: epoch 1 (18 active)
		// resized toward epoch 2 (24 active) with FinishResize withheld,
		// so every locate runs the dual-epoch query union.
		newDual := func(t *testing.T, opts NetOptions) *NetTransport {
			t.Helper()
			ep1 := mkEpoch(t, 1, n, 18, 1)
			addrs, _ := spawnNetCluster(t, n, procs)
			netT, err := NewLayoutNetTransport(g, elasticOf(ep1), addrs, opts)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { netT.Close() })
			for _, port := range ports[:3] {
				if _, err := netT.Register(port, servers[port]); err != nil {
					t.Fatal(err)
				}
			}
			if _, err := netT.Resize(mkEpoch(t, 2, n, 24, 1)); err != nil {
				t.Fatal(err)
			}
			return netT
		}
		sched := coalSchedule(n, 6, ports)
		ref := newDual(t, NetOptions{CallTimeout: 10 * time.Second, DisableCoalescing: true})
		refE, refErr, refPasses := runCoalWorkload(t, ref, sched)
		coal := newDual(t, NetOptions{CallTimeout: 10 * time.Second})
		gotE, gotErr, gotPasses := runCoalWorkload(t, coal, sched)
		compareCoalRuns(t, "mid-resize", sched, refE, refErr, refPasses, gotE, gotErr, gotPasses)
	})

	t.Run("hinted-churn", func(t *testing.T) {
		// The full serving stack with hints on, r=2: every round locates
		// each (client, port) pair once from 8 workers, so a pair's hint
		// state — and with it the round's total charge — depends only on
		// the rounds before it, never on which calls shared a frame.
		// Between rounds a server migrates (its hints go stale), then the
		// middle shard is kill -9'd under the cached addresses: probes at
		// beta's home fall into the dead process (one-way charge), the
		// fallback floods fall through to replica 1.
		run := func(t *testing.T, opts NetOptions) (netT *NetTransport, trace []string, passes []int64, m MetricsSnapshot) {
			t.Helper()
			rp, err := strategy.NewReplicated(rendezvous.Checkerboard(n), 2)
			if err != nil {
				t.Fatal(err)
			}
			addrs, cmds := spawnNetCluster(t, n, procs)
			if netT, err = NewLayoutNetTransport(g, fixedOf(t, rp), addrs, opts); err != nil {
				t.Fatal(err)
			}
			c := New(netT, Options{Hints: true})
			t.Cleanup(func() { c.Close() })
			refs := map[core.Port]ServerRef{}
			for _, port := range ports[:3] {
				if refs[port], err = c.Register(port, servers[port]); err != nil {
					t.Fatal(err)
				}
			}
			round := func() {
				sched := coalSchedule(n, len(ports), ports)
				out := make([]string, len(sched))
				before := netT.Passes()
				const workers = 8
				var wg sync.WaitGroup
				for w := 0; w < workers; w++ {
					wg.Add(1)
					go func(w int) {
						defer wg.Done()
						for i := w; i < len(sched); i += workers {
							e, err := c.Locate(sched[i].client, sched[i].port)
							out[i] = fmt.Sprintf("%d %s: %d#%d %v", sched[i].client, sched[i].port, e.Addr, e.ServerID, err)
						}
					}(w)
				}
				wg.Wait()
				trace = append(trace, out...)
				passes = append(passes, netT.Passes()-before)
			}
			round() // floods; fills every hint
			round() // probes
			if err := refs["alpha"].Migrate(5); err != nil {
				t.Fatal(err)
			}
			round() // alpha re-floods, the rest probe
			round() // probes
			if err := cmds[1].Process.Signal(syscall.SIGKILL); err != nil {
				t.Fatal(err)
			}
			cmds[1].Wait()
			dead := core.Entry{Port: "beta", Addr: servers["beta"], ServerID: 99, Time: 1, Active: true}
			for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(10 * time.Millisecond) {
				if _, err := netT.Probe(0, dead); err != nil {
					break
				}
				if time.Now().After(deadline) {
					t.Fatal("probe into killed process kept succeeding")
				}
			}
			round() // every generation bumped: floods, replica-0 misses fall through
			round() // probes; beta's fall into the dead process, then re-flood
			round() // beta's hints are dead: floods; the rest probe
			if err := refs["gamma"].Migrate(20); err != nil {
				t.Fatal(err)
			}
			round()
			return netT, trace, passes, c.Metrics()
		}
		_, refTrace, refPasses, refM := run(t, NetOptions{CallTimeout: 10 * time.Second, DisableCoalescing: true})
		coal, gotTrace, gotPasses, gotM := run(t, NetOptions{CallTimeout: 10 * time.Second})
		for i := range refTrace {
			if refTrace[i] != gotTrace[i] {
				t.Fatalf("call %d: uncoalesced %q, coalesced %q", i, refTrace[i], gotTrace[i])
			}
		}
		for r := range refPasses {
			if refPasses[r] != gotPasses[r] {
				t.Errorf("round %d: uncoalesced charged %d passes, coalesced %d (must be exact)", r, refPasses[r], gotPasses[r])
			}
		}
		if refM.HintHits != gotM.HintHits || refM.HintProbeFails != gotM.HintProbeFails || refM.HintStale != gotM.HintStale {
			t.Errorf("hint path diverged: uncoalesced %d hits %d probe fails %d stale, coalesced %d/%d/%d",
				refM.HintHits, refM.HintProbeFails, refM.HintStale, gotM.HintHits, gotM.HintProbeFails, gotM.HintStale)
		}
		if refM.HintHits == 0 || refM.HintProbeFails == 0 || refM.ReplicaFallthroughs == 0 {
			t.Errorf("workload missed a path it is here for: %d hint hits, %d probe fails, %d fallthroughs",
				refM.HintHits, refM.HintProbeFails, refM.ReplicaFallthroughs)
		}
		if fl, pr := coal.coal.shared.Load(), coal.wire.coal.shared.Load(); fl == 0 || pr == 0 {
			t.Errorf("coalesced run shared %d floods and %d probe flushes: nothing was compared", fl, pr)
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
	ids := map[graph.NodeID]uint64{}
	for _, home := range []graph.NodeID{3, 9, 10, 11} { // shard 0: [0,8), shard 1: [8,16)
		ref, err := netT.Register("svc", home)
		if err != nil {
			t.Fatal(err)
		}
		ids[home] = ref.(*server).id
	}
	probes := func(at ...graph.NodeID) []*coalOp {
		batch := make([]*coalOp, len(at))
		for i, a := range at {
			batch[i] = &coalOp{node: a, port: "svc", id: ids[a]}
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
	netT.wire.crash(10)
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
	_, err = netT.Probe(0, core.Entry{Port: "svc", Addr: 10, ServerID: ids[10]})
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
// server homed on shard 0, so probes that share a flush share a frame.
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
		if _, err := c.Register(ports[i], graph.NodeID(i)); err != nil {
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
// not yield is held to 0.667 in every attempt and still fails.
func TestCoalescerFillsBatches(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	const rounds = 4000
	// The race detector's slowdown of the in-process shards stretches
	// the callers apart (0.83–0.91 measured): the bar there only has to
	// clear the 0.667 a leader that never yields cannot exceed.
	wantShare := 0.85
	if raceDetector {
		wantShare = 0.75
	}

	t.Run("floods", func(t *testing.T) {
		c, netT, ports := coalFixture(t, loopbackNodes(t, coalNodes, 2), false)
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
