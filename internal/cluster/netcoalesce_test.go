package cluster

import (
	"sync"
	"syscall"
	"testing"
	"time"

	"matchmake/internal/core"
	"matchmake/internal/graph"
	"matchmake/internal/rendezvous"
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

// TestNetCoalescedEquivalence pins the wire coalescer's contract: a
// concurrent workload through the coalescer returns exactly the
// answers and charges exactly the passes of the same workload with
// coalescing disabled — including a kill -9'd node shard under r=2
// fallthrough, a CoalesceWindow>0 configuration, and a mid-resize
// dual-epoch elastic cluster.
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

		for _, v := range []struct {
			name   string
			window time.Duration
		}{{"window=0", 0}, {"window=300us", 300 * time.Microsecond}} {
			t.Run(v.name, func(t *testing.T) {
				coal := newKilledRepl(t, NetOptions{CallTimeout: 10 * time.Second, CoalesceWindow: v.window})
				gotE, gotErr, gotPasses := runCoalWorkload(t, coal, sched)
				compareCoalRuns(t, v.name, sched, refE, refErr, refPasses, gotE, gotErr, gotPasses)
				if co, fl := coal.CoalesceStats(); v.window > 0 && fl == 0 {
					// With a window the promoted leader always waits for
					// the queue to fill, so shared floods are guaranteed.
					t.Fatalf("coalescer never shared a flood (coalesced=%d floods=%d)", co, fl)
				}
			})
		}
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
}
