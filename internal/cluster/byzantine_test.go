package cluster

import (
	"errors"
	"fmt"
	"slices"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"matchmake/internal/core"
	"matchmake/internal/graph"
	"matchmake/internal/rendezvous"
	"matchmake/internal/topology"
)

// forgeClasses names every forgery class for subtest labels.
var forgeClasses = map[ForgeClass]string{
	ForgeFabricate: "fabricate",
	ForgeStale:     "stale",
	ForgeWrongPort: "wrong-port",
	ForgeSilence:   "silence",
}

// byzRegs is the registration script shared by the Byzantine tests:
// three servers whose home nodes land in three different thirds of a
// 36-node universe, so a 3-process net partition spreads them.
var byzRegs = []Registration{
	{Port: "alpha", Node: 7},
	{Port: "beta", Node: 19},
	{Port: "gamma", Node: 31},
}

// checkHonest asserts a surfaced entry matches registration ground
// truth — the client-side forgery oracle every harness shares.
func checkHonest(t *testing.T, stage string, client graph.NodeID, port core.Port, e core.Entry) {
	t.Helper()
	var home graph.NodeID = -1
	for _, r := range byzRegs {
		if r.Port == port {
			home = r.Node
		}
	}
	if e.Port != port || e.ServerID >= ForgedIDBase || e.Addr != home {
		t.Fatalf("%s: locate %q from %d surfaced a forged answer: %+v (home %d)", stage, port, client, e, home)
	}
}

// TestByzantineArmDeterminism pins the adversary's seeding discipline:
// equal ArmOptions over equal registrations arm identical node sets,
// re-arming replaces the previous plan wholesale, and Disarm clears it.
func TestByzantineArmDeterminism(t *testing.T) {
	n := 36
	rp := mkReplicated(t, n, 3)
	mk := func() *MemTransport {
		tr, err := NewLayoutMemTransport(topology.Complete(n), fixedOf(t, rp), 0)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { tr.Close() })
		if _, err := tr.PostBatch(byzRegs); err != nil {
			t.Fatal(err)
		}
		return tr
	}
	a, b := mk(), mk()
	for _, seed := range []int64{1, 42, 1985} {
		opts := ArmOptions{Seed: seed, Liars: 2}
		na, err := a.Arm(opts)
		if err != nil {
			t.Fatal(err)
		}
		nb, err := b.Arm(opts)
		if err != nil {
			t.Fatal(err)
		}
		if na != nb || na == 0 {
			t.Fatalf("seed %d: armed %d lies on one transport, %d on the other", seed, na, nb)
		}
		la, lb := a.ArmedNodes(), b.ArmedNodes()
		if !slices.Equal(la, lb) || len(la) != 2 {
			t.Fatalf("seed %d: armed nodes %v vs %v, want 2 equal nodes", seed, la, lb)
		}
	}
	if err := a.Disarm(); err != nil {
		t.Fatal(err)
	}
	if nodes := a.ArmedNodes(); len(nodes) != 0 {
		t.Fatalf("armed nodes after Disarm = %v, want none", nodes)
	}
}

// TestByzantineAttackWithoutVoting is the attack demo the defence is
// measured against: with voting off, the replica fallthrough happily
// surfaces forged answers — at r=1 there is no family filter at all,
// and even at r=3 a liar answering for its own family wins whenever
// its family is asked first. The harness only demands the attack
// lands somewhere; the voting tests demand it never does.
func TestByzantineAttackWithoutVoting(t *testing.T) {
	n := 36
	for _, r := range []int{1, 3} {
		t.Run(fmt.Sprintf("r=%d", r), func(t *testing.T) {
			var tr *MemTransport
			var err error
			if r == 1 {
				tr, err = NewMemTransport(topology.Complete(n), rendezvous.Checkerboard(n), 0)
			} else {
				tr, err = NewLayoutMemTransport(topology.Complete(n), fixedOf(t, mkReplicated(t, n, r)), 0)
			}
			if err != nil {
				t.Fatal(err)
			}
			defer tr.Close()
			if _, err := tr.PostBatch(byzRegs); err != nil {
				t.Fatal(err)
			}
			if _, err := tr.Arm(ArmOptions{Seed: 7, Liars: 2, Classes: []ForgeClass{ForgeFabricate}}); err != nil {
				t.Fatal(err)
			}
			c := New(tr, Options{})
			defer c.Close()
			forged := 0
			for cl := 0; cl < n; cl++ {
				for _, reg := range byzRegs {
					e, err := c.Locate(graph.NodeID(cl), reg.Port)
					if err != nil {
						continue
					}
					if e.ServerID >= ForgedIDBase || e.Addr != reg.Node {
						forged++
					}
				}
			}
			if forged == 0 {
				t.Fatalf("r=%d without voting: no forged answer surfaced — the adversary is armed wrong", r)
			}
		})
	}
}

// TestByzantineVoteSimMemEquivalence is the tentpole equivalence gate:
// for every forgery class, the paper-exact simulator and the fast path
// armed with identical deterministic plans return identical voted
// answers — always the honest registration, never the lie — at
// identical pass charges per locate, and finish with identical suspect
// sets. Voting is only believable if the reference model and the
// production path price the adversary the same way.
func TestByzantineVoteSimMemEquivalence(t *testing.T) {
	const n, r = 36, 3
	g := topology.Complete(n)
	rp := mkReplicated(t, n, r)
	for class, name := range forgeClasses {
		t.Run(name, func(t *testing.T) {
			simT, err := NewLayoutSimTransport(g, fixedOf(t, rp), core.Options{})
			if err != nil {
				t.Fatal(err)
			}
			defer simT.Close()
			memT, err := NewLayoutMemTransport(g, fixedOf(t, rp), 0)
			if err != nil {
				t.Fatal(err)
			}
			defer memT.Close()
			if _, err := simT.PostBatch(byzRegs); err != nil {
				t.Fatal(err)
			}
			if _, err := memT.PostBatch(byzRegs); err != nil {
				t.Fatal(err)
			}

			opts := ArmOptions{Seed: 1985, Liars: 1, Classes: []ForgeClass{class}}
			ns, err := simT.Arm(opts)
			if err != nil {
				t.Fatal(err)
			}
			nm, err := memT.Arm(opts)
			if err != nil {
				t.Fatal(err)
			}
			if ns != nm || !slices.Equal(simT.ArmedNodes(), memT.ArmedNodes()) {
				t.Fatalf("arm: sim %d lies on %v, mem %d on %v", ns, simT.ArmedNodes(), nm, memT.ArmedNodes())
			}

			simC := New(simT, Options{VoteQuorum: r})
			defer simC.Close()
			memC := New(memT, Options{VoteQuorum: r})
			defer memC.Close()
			for cl := 0; cl < n; cl++ {
				client := graph.NodeID(cl)
				for _, reg := range byzRegs {
					simBefore, memBefore := simT.Passes(), memT.Passes()
					e1, err1 := simC.Locate(client, reg.Port)
					e2, err2 := memC.Locate(client, reg.Port)
					if err1 != nil || err2 != nil {
						t.Fatalf("class %s: locate %q from %d: sim err=%v mem err=%v", name, reg.Port, client, err1, err2)
					}
					checkHonest(t, "sim", client, reg.Port, e1)
					checkHonest(t, "mem", client, reg.Port, e2)
					if e1.Addr != e2.Addr || e1.ServerID != e2.ServerID {
						t.Fatalf("class %s: locate %q from %d: sim %+v mem %+v", name, reg.Port, client, e1, e2)
					}
					if sc, mc := simT.Passes()-simBefore, memT.Passes()-memBefore; sc != mc {
						t.Fatalf("class %s: locate %q from %d: sim charged %d passes, mem %d", name, reg.Port, client, sc, mc)
					}
				}
			}
			if s, m := simC.SuspectedNodes(), memC.SuspectedNodes(); !slices.Equal(s, m) {
				t.Fatalf("class %s: suspect sets diverge: sim %v mem %v", name, s, m)
			}
			ms, mm := simC.Metrics(), memC.Metrics()
			if ms.VotedLocates != mm.VotedLocates || ms.VoteConflicts != mm.VoteConflicts {
				t.Fatalf("class %s: vote metrics diverge: sim voted=%d conflicts=%d, mem voted=%d conflicts=%d",
					name, ms.VotedLocates, ms.VoteConflicts, mm.VotedLocates, mm.VoteConflicts)
			}
		})
	}
}

// TestByzantineFloodAttribution is the layer under the vote: one flood
// of one family, under every forgery class, returns the same entry from
// the same rendezvous node on the simulator and on the fast path, run
// after run. On the simulator that makes a lie's reply part of the
// locate's own message count: a forged reply sent past the count (through
// the network, not through the query it answers) would race the locate's
// return and surface here as a miss.
func TestByzantineFloodAttribution(t *testing.T) {
	const n, r = 36, 3
	g := topology.Complete(n)
	rp := mkReplicated(t, n, r)
	for class, name := range forgeClasses {
		t.Run(name, func(t *testing.T) {
			opts := ArmOptions{Seed: 1985, Liars: 1, Classes: []ForgeClass{class}}
			type transport interface {
				Transport
				ByzantineTransport
			}
			armed := func(tr transport, err error) transport {
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { tr.Close() })
				if _, err := tr.PostBatch(byzRegs); err != nil {
					t.Fatal(err)
				}
				if _, err := tr.Arm(opts); err != nil {
					t.Fatal(err)
				}
				return tr
			}
			memT := armed(NewLayoutMemTransport(g, fixedOf(t, rp), 0))
			for run := 0; run < 5; run++ {
				simT := armed(NewLayoutSimTransport(g, fixedOf(t, rp), core.Options{}))
				for cl := 0; cl < n; cl++ {
					for _, reg := range byzRegs {
						for k := 0; k < r; k++ {
							e1, from1, err1 := simT.LocateReplicaAt(graph.NodeID(cl), reg.Port, k)
							e2, from2, err2 := memT.LocateReplicaAt(graph.NodeID(cl), reg.Port, k)
							if (err1 == nil) != (err2 == nil) || e1.Addr != e2.Addr || e1.ServerID != e2.ServerID || from1 != from2 {
								t.Fatalf("run %d: family %d flood for %q from %d: sim %+v from %d (%v), mem %+v from %d (%v)",
									run, k, reg.Port, cl, e1, from1, err1, e2, from2, err2)
							}
						}
					}
				}
			}
		})
	}
}

// TestByzantineVoteNetEquivalence extends the equivalence gate to the
// socket transport: the same plans over a live 3-process cluster vote
// to the same answers, charges, and suspect sets as the fast path —
// including through the batch path, which votes per request.
func TestByzantineVoteNetEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns real processes")
	}
	const n, r = 36, 3
	g := topology.Complete(n)
	rp := mkReplicated(t, n, r)
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
	if _, err := memT.PostBatch(byzRegs); err != nil {
		t.Fatal(err)
	}
	if _, err := netT.PostBatch(byzRegs); err != nil {
		t.Fatal(err)
	}
	// One cluster per transport for the whole class sweep — Cluster.Close
	// also closes its transport, and re-Arm replaces the plan wholesale.
	memC := New(memT, Options{VoteQuorum: r})
	defer memC.Close()
	netC := New(netT, Options{VoteQuorum: r})
	defer netC.Close()

	for class, name := range forgeClasses {
		opts := ArmOptions{Seed: 64 + int64(class), Liars: 1, Classes: []ForgeClass{class}}
		nm, err := memT.Arm(opts)
		if err != nil {
			t.Fatal(err)
		}
		nn, err := netT.Arm(opts)
		if err != nil {
			t.Fatal(err)
		}
		if nm != nn || !slices.Equal(memT.ArmedNodes(), netT.ArmedNodes()) {
			t.Fatalf("class %s: mem armed %d on %v, net %d on %v", name, nm, memT.ArmedNodes(), nn, netT.ArmedNodes())
		}

		for cl := 0; cl < n; cl += 2 {
			client := graph.NodeID(cl)
			for _, reg := range byzRegs {
				memBefore, netBefore := memT.Passes(), netT.Passes()
				e1, err1 := memC.Locate(client, reg.Port)
				e2, err2 := netC.Locate(client, reg.Port)
				if err1 != nil || err2 != nil {
					t.Fatalf("class %s: locate %q from %d: mem err=%v net err=%v", name, reg.Port, client, err1, err2)
				}
				checkHonest(t, "mem", client, reg.Port, e1)
				checkHonest(t, "net", client, reg.Port, e2)
				if mc, nc := memT.Passes()-memBefore, netT.Passes()-netBefore; mc != nc {
					t.Fatalf("class %s: locate %q from %d: mem charged %d passes, net %d", name, reg.Port, client, mc, nc)
				}
			}
		}
		// Batch path: one voted locate per request, same answers.
		reqs := make([]LocateReq, 0, len(byzRegs)*3)
		for cl := 1; cl < n; cl += 13 {
			for _, reg := range byzRegs {
				reqs = append(reqs, LocateReq{Client: graph.NodeID(cl), Port: reg.Port})
			}
		}
		memRes := make([]LocateRes, len(reqs))
		netRes := make([]LocateRes, len(reqs))
		if err := memC.LocateBatch(reqs, memRes); err != nil {
			t.Fatal(err)
		}
		if err := netC.LocateBatch(reqs, netRes); err != nil {
			t.Fatal(err)
		}
		for i := range reqs {
			if memRes[i].Err != nil || netRes[i].Err != nil {
				t.Fatalf("class %s: batch slot %d: mem err=%v net err=%v", name, i, memRes[i].Err, netRes[i].Err)
			}
			checkHonest(t, "mem-batch", reqs[i].Client, reqs[i].Port, memRes[i].Entry)
			checkHonest(t, "net-batch", reqs[i].Client, reqs[i].Port, netRes[i].Entry)
		}
		if m, nn := memC.SuspectedNodes(), netC.SuspectedNodes(); !slices.Equal(m, nn) {
			t.Fatalf("class %s: suspect sets diverge after %s: mem %v net %v", name, name, m, nn)
		}
	}
}

// TestByzantineVoteKilledReplica drives voted locates while an honest
// node-shard process is kill -9'd mid-run: abstaining families may cost
// availability (a vote that cannot reach its majority fails closed) but
// must never cost integrity — no forged answer surfaces, before,
// during, or after the crash window.
func TestByzantineVoteKilledReplica(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns real processes")
	}
	const n, r = 36, 3
	rp := mkReplicated(t, n, r)
	addrs, cmds := spawnNetCluster(t, n, 3)
	netT, err := NewLayoutNetTransport(topology.Complete(n), fixedOf(t, rp), addrs, NetOptions{CallTimeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { netT.Close() })
	if _, err := netT.PostBatch(byzRegs); err != nil {
		t.Fatal(err)
	}
	if _, err := netT.Arm(ArmOptions{Seed: 3, Liars: 1, Classes: []ForgeClass{ForgeFabricate}}); err != nil {
		t.Fatal(err)
	}
	c := New(netT, Options{VoteQuorum: r})
	defer c.Close()

	// Loader goroutine voting continuously while the victim dies.
	var (
		stop     atomic.Bool
		forged   atomic.Int64
		loaderOK = make(chan error, 1)
	)
	go func() {
		defer close(loaderOK)
		for i := 0; !stop.Load(); i++ {
			client := graph.NodeID(i % n)
			reg := byzRegs[i%len(byzRegs)]
			e, err := c.Locate(client, reg.Port)
			if err != nil {
				if errors.Is(err, core.ErrNotFound) {
					continue // fail-closed vote during the crash window
				}
				loaderOK <- fmt.Errorf("locate %q from %d: %v", reg.Port, client, err)
				return
			}
			if e.Port != reg.Port || e.ServerID >= ForgedIDBase || e.Addr != reg.Node {
				forged.Add(1)
			}
		}
	}()

	time.Sleep(50 * time.Millisecond)
	victim := cmds[1]
	if err := victim.Process.Signal(syscall.SIGKILL); err != nil {
		t.Fatal(err)
	}
	victim.Wait()
	time.Sleep(200 * time.Millisecond)
	stop.Store(true)
	if err := <-loaderOK; err != nil {
		t.Fatal(err)
	}
	if f := forged.Load(); f != 0 {
		t.Fatalf("%d forged answers surfaced across the crash window, want 0", f)
	}

	// With one process (and one family's answerers) gone for a third of
	// the pairs, votes still settle 2-of-3 wherever the liar is not the
	// surviving minority; a deterministic sweep must stay honest and
	// mostly available.
	ok, failed := 0, 0
	for cl := 0; cl < n; cl++ {
		for _, reg := range byzRegs {
			e, err := c.Locate(graph.NodeID(cl), reg.Port)
			if err != nil {
				if !errors.Is(err, core.ErrNotFound) {
					t.Fatalf("locate %q from %d: unexpected error class %v", reg.Port, cl, err)
				}
				failed++
				continue
			}
			checkHonest(t, "post-kill", graph.NodeID(cl), reg.Port, e)
			ok++
		}
	}
	if ok == 0 {
		t.Fatal("no voted locate succeeded after a single process kill")
	}
	t.Logf("post-kill sweep: %d honest answers, %d fail-closed votes", ok, failed)
}

// TestByzantineQuarantineLifecycle pins the rehabilitation story: a
// liar outvoted at quorum lands in the suspect set; a successful
// reconciliation round clears the quarantine (the node's stored state
// re-verified against registration ground truth); a still-armed liar is
// re-quarantined by the next vote it loses, while a disarmed one stays
// rehabilitated for good.
func TestByzantineQuarantineLifecycle(t *testing.T) {
	const n, r = 36, 3
	tr, err := NewLayoutMemTransport(topology.Complete(n), fixedOf(t, mkReplicated(t, n, r)), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	if _, err := tr.PostBatch(byzRegs); err != nil {
		t.Fatal(err)
	}
	if _, err := tr.Arm(ArmOptions{Seed: 11, Liars: 1, Classes: []ForgeClass{ForgeFabricate}}); err != nil {
		t.Fatal(err)
	}
	liar := tr.ArmedNodes()[0]
	c := New(tr, Options{VoteQuorum: r})
	defer c.Close()

	sweep := func(stage string) {
		t.Helper()
		for cl := 0; cl < n; cl++ {
			for _, reg := range byzRegs {
				e, err := c.Locate(graph.NodeID(cl), reg.Port)
				if err != nil {
					t.Fatalf("%s: locate %q from %d: %v", stage, reg.Port, cl, err)
				}
				checkHonest(t, stage, graph.NodeID(cl), reg.Port, e)
			}
		}
	}

	sweep("armed")
	if s := c.SuspectedNodes(); !slices.Contains(s, liar) {
		t.Fatalf("armed liar %d not in suspect set %v after a full sweep", liar, s)
	}
	if m := c.Metrics(); m.SuspectedNodes == 0 || m.VoteConflicts == 0 {
		t.Fatalf("metrics missed the attack: %+v", m)
	}

	// Rehabilitation: the liar's stored state is healthy (it lies in
	// answers, not at rest), so reconciliation vouches for it and the
	// quarantine lifts.
	if _, err := c.ReconcileRound(); err != nil {
		t.Fatal(err)
	}
	if s := c.SuspectedNodes(); len(s) != 0 {
		t.Fatalf("suspect set %v after reconcile, want empty", s)
	}

	// Still armed: the next sweep re-quarantines it.
	sweep("re-armed")
	if s := c.SuspectedNodes(); !slices.Contains(s, liar) {
		t.Fatalf("persistent liar %d not re-quarantined: %v", liar, s)
	}

	// Disarmed and reconciled: rehabilitated for good.
	if err := tr.Disarm(); err != nil {
		t.Fatal(err)
	}
	if _, err := c.ReconcileRound(); err != nil {
		t.Fatal(err)
	}
	sweep("disarmed")
	if s := c.SuspectedNodes(); len(s) != 0 {
		t.Fatalf("suspect set %v after disarm+reconcile+sweep, want empty", s)
	}
	if m := c.Metrics(); m.VoteQuorum != r {
		t.Fatalf("metrics quorum = %d, want %d", m.VoteQuorum, r)
	}
}

// TestByzantineVoteQuorumClamp checks the quorum clamps to the
// replication factor and that voting stays out of the way on
// non-Byzantine or unreplicated transports.
func TestByzantineVoteQuorumClamp(t *testing.T) {
	const n = 36
	tr, err := NewLayoutMemTransport(topology.Complete(n), fixedOf(t, mkReplicated(t, n, 2)), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	if _, err := tr.PostBatch(byzRegs); err != nil {
		t.Fatal(err)
	}
	c := New(tr, Options{VoteQuorum: 99})
	defer c.Close()
	if _, err := c.Locate(3, "alpha"); err != nil {
		t.Fatal(err)
	}
	if m := c.Metrics(); m.VoteQuorum != 2 || m.VotedLocates != 1 {
		t.Fatalf("quorum %d voted %d, want clamp to 2 with 1 voted locate", m.VoteQuorum, m.VotedLocates)
	}

	// Unreplicated: VoteQuorum is inert, locates run the plain path.
	plain, err := NewMemTransport(topology.Complete(n), rendezvous.Checkerboard(n), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer plain.Close()
	if _, err := plain.PostBatch(byzRegs); err != nil {
		t.Fatal(err)
	}
	pc := New(plain, Options{VoteQuorum: 3})
	defer pc.Close()
	if _, err := pc.Locate(3, "alpha"); err != nil {
		t.Fatal(err)
	}
	if m := pc.Metrics(); m.VoteQuorum != 0 || m.VotedLocates != 0 {
		t.Fatalf("unreplicated transport voted: %+v", m)
	}
}
