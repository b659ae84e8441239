package cluster

import (
	"testing"
	"time"

	"matchmake/internal/core"
	"matchmake/internal/graph"
	"matchmake/internal/rendezvous"
	"matchmake/internal/strategy"
	"matchmake/internal/topology"
)

// TestNetCorruptionChaos is the satellite chaos gate on the socket
// backend: waves of deterministic adversarial corruption hit a live
// replicated (r = 2) 3-process loopback cluster and the in-process fast
// path with identical plans, anti-entropy reconciles both to quiescence
// within the documented round bound at identical repair charges, and
// after every wave a full locate sweep has zero failures with net=mem
// answer and charge agreement. A final reconcile round returning zero on
// both transports is the divergence gate.
func TestNetCorruptionChaos(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns real processes")
	}
	const n = 60
	g := topology.Complete(n)
	rp, err := strategy.NewReplicated(rendezvous.Checkerboard(n), 2)
	if err != nil {
		t.Fatal(err)
	}
	addrs, _ := spawnNetCluster(t, n, 3)
	memT, err := NewLayoutMemTransport(g, fixedOf(t, rp), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer memT.Close()
	netT, err := NewLayoutNetTransport(g, fixedOf(t, rp), addrs, NetOptions{CallTimeout: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { netT.Close() })

	regs := []Registration{
		{Port: "alpha", Node: 7},
		{Port: "beta", Node: 29},
		{Port: "gamma", Node: 51},
	}
	if _, err := memT.PostBatch(regs); err != nil {
		t.Fatal(err)
	}
	if _, err := netT.PostBatch(regs); err != nil {
		t.Fatal(err)
	}

	sweep := func(stage string) {
		t.Helper()
		failed := 0
		for c := 0; c < n; c += 4 {
			client := graph.NodeID(c)
			for _, r := range regs {
				memBefore, netBefore := memT.Passes(), netT.Passes()
				e1, err1 := memT.Locate(client, r.Port)
				e2, err2 := netT.Locate(client, r.Port)
				if err1 != nil || err2 != nil {
					failed++
					t.Errorf("%s: locate %q from %d: mem err=%v net err=%v", stage, r.Port, client, err1, err2)
					continue
				}
				if e1.Addr != e2.Addr || e1.ServerID != e2.ServerID || e1.Addr != r.Node {
					t.Fatalf("%s: locate %q from %d: mem %+v net %+v want addr %d",
						stage, r.Port, client, e1, e2, r.Node)
				}
				if mc, nc := memT.Passes()-memBefore, netT.Passes()-netBefore; mc != nc {
					t.Fatalf("%s: locate %q from %d: mem charged %d passes, net %d", stage, r.Port, client, mc, nc)
				}
			}
		}
		if failed != 0 {
			t.Fatalf("%s: %d failed locates, want 0", stage, failed)
		}
	}
	sweep("pre-chaos")

	const waves = 3
	for wave := 0; wave < waves; wave++ {
		opts := CorruptOptions{Seed: int64(100 + wave), Count: 25}
		memBefore, netBefore := memT.Passes(), netT.Passes()
		mi, err := memT.Corrupt(opts)
		if err != nil {
			t.Fatal(err)
		}
		ni, err := netT.Corrupt(opts)
		if err != nil {
			t.Fatal(err)
		}
		if mi != ni || mi != opts.Count {
			t.Fatalf("wave %d: mem injected %d, net %d, want %d", wave, mi, ni, opts.Count)
		}
		if memT.Passes() != memBefore || netT.Passes() != netBefore {
			t.Fatalf("wave %d: corruption injection charged passes", wave)
		}

		const maxRounds = 4
		quiescent := false
		for round := 0; round < maxRounds && !quiescent; round++ {
			memBefore, netBefore := memT.Passes(), netT.Passes()
			mr, err := memT.ReconcileRound()
			if err != nil {
				t.Fatal(err)
			}
			nr, err := netT.ReconcileRound()
			if err != nil {
				t.Fatal(err)
			}
			if mr != nr {
				t.Fatalf("wave %d round %d: mem repaired %d, net %d", wave, round, mr, nr)
			}
			if mc, nc := memT.Passes()-memBefore, netT.Passes()-netBefore; mc != nc {
				t.Fatalf("wave %d round %d: mem charged %d passes for repair, net %d", wave, round, mc, nc)
			}
			quiescent = mr == 0
		}
		if !quiescent {
			t.Fatalf("wave %d: no quiescence within %d rounds", wave, maxRounds)
		}
		sweep("post-wave")
	}

	// Divergence gate: a converged cluster reconciles to zero on both
	// backends.
	if r, err := netT.ReconcileRound(); err != nil || r != 0 {
		t.Fatalf("divergence gate: net reconcile repaired %d err=%v, want 0", r, err)
	}
	if r, err := memT.ReconcileRound(); err != nil || r != 0 {
		t.Fatalf("divergence gate: mem reconcile repaired %d err=%v, want 0", r, err)
	}
	ms, ns := memT.ReconcileStats(), netT.ReconcileStats()
	if ms.Injected != ns.Injected || ms.Injected != waves*25 {
		t.Fatalf("injected counters: mem %d net %d, want %d", ms.Injected, ns.Injected, waves*25)
	}
	if ms.Repaired != ns.Repaired {
		t.Fatalf("repaired counters: mem %d net %d", ms.Repaired, ns.Repaired)
	}
}

// TestNetDualEpochRepairConsistent is the regression gate for the
// repairRange epoch race: a repair running mid-resize (dual-epoch
// phase) must re-post against the same set tables it used for its
// in-range check — one postSets load serving both — so its re-posts
// land exactly on the dual-epoch union ground truth. The reconcile
// round is the oracle: it recomputes every node's expected row from the
// live tables, so any posting the repair placed against a different
// epoch's tables (or skipped) would show up as a nonzero repair count.
func TestNetDualEpochRepairConsistent(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns real processes")
	}
	const universe = 48
	g := topology.Complete(universe)
	ep1 := mkEpoch(t, 1, universe, 36, 1)
	addrs, _ := spawnNetCluster(t, universe, 3)
	memT, err := NewLayoutMemTransport(g, elasticOf(ep1), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer memT.Close()
	netT, err := NewLayoutNetTransport(g, elasticOf(ep1), addrs, NetOptions{CallTimeout: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { netT.Close() })

	servers := map[core.Port]graph.NodeID{"alpha": 12, "beta": 35, "gamma": 0}
	for port, node := range servers {
		if _, err := memT.Register(port, node); err != nil {
			t.Fatal(err)
		}
		if _, err := netT.Register(port, node); err != nil {
			t.Fatal(err)
		}
	}
	if r, err := netT.ReconcileRound(); err != nil || r != 0 {
		t.Fatalf("epoch1 reconcile: repaired %d err=%v, want 0", r, err)
	}

	// Enter the dual-epoch phase and stay there: both epoch tables are
	// live, postings must cover the union of both posting sets.
	ep2 := mkEpoch(t, 2, universe, 48, 1)
	if _, err := memT.Resize(ep2); err != nil {
		t.Fatal(err)
	}
	if _, err := netT.Resize(ep2); err != nil {
		t.Fatal(err)
	}
	if r, err := netT.ReconcileRound(); err != nil || r != 0 {
		t.Fatalf("dual-phase reconcile before repair: repaired %d err=%v, want 0", r, err)
	}

	// Run the repair path mid-dual exactly as the repair loop would for a
	// restarted middle process, under the same lifeMu fence.
	ps := netT.wire.procs.Load()
	lo, hi := ps.ranges[1][0], ps.ranges[1][1]
	netT.lifeMu.RLock()
	netT.repairRange(lo, hi)
	netT.lifeMu.RUnlock()

	// The oracle: repair re-posts carried fresh timestamps but must have
	// landed on exactly the dual-epoch union targets; reconciliation
	// against the live tables finds nothing to fix.
	if r, err := netT.ReconcileRound(); err != nil || r != 0 {
		t.Fatalf("dual-phase reconcile after repairRange: repaired %d err=%v, want 0", r, err)
	}

	// Chaos mid-dual: corruption injected during the migration heals
	// against the union ground truth within the round bound.
	if _, err := netT.Corrupt(CorruptOptions{Seed: 5, Count: 10}); err != nil {
		t.Fatal(err)
	}
	healed := false
	for round := 0; round < 4 && !healed; round++ {
		r, err := netT.ReconcileRound()
		if err != nil {
			t.Fatal(err)
		}
		healed = r == 0
	}
	if !healed {
		t.Fatal("dual-phase corruption did not reconcile within 4 rounds")
	}

	// Land the resize; the settled cluster is still converged and still
	// agrees with the in-process transport.
	if err := memT.FinishResize(); err != nil {
		t.Fatal(err)
	}
	if err := netT.FinishResize(); err != nil {
		t.Fatal(err)
	}
	if r, err := netT.ReconcileRound(); err != nil || r != 0 {
		t.Fatalf("epoch2 reconcile: repaired %d err=%v, want 0", r, err)
	}
	for c := 0; c < universe; c += 3 {
		client := graph.NodeID(c)
		for port, node := range servers {
			e1, err1 := memT.Locate(client, port)
			e2, err2 := netT.Locate(client, port)
			if err1 != nil || err2 != nil {
				t.Fatalf("epoch2 locate %q from %d: mem err=%v net err=%v", port, client, err1, err2)
			}
			if e1.Addr != e2.Addr || e1.Addr != node {
				t.Fatalf("epoch2 locate %q from %d: mem %d net %d want %d", port, client, e1.Addr, e2.Addr, node)
			}
		}
	}
}
