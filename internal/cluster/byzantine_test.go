package cluster

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"matchmake/internal/core"
	"matchmake/internal/graph"
	"matchmake/internal/rendezvous"
	"matchmake/internal/topology"
)

// byzRegs is the registration script shared by the Byzantine tests:
// three servers whose home nodes land in three different thirds of a
// 36-node universe, so a 3-process net partition spreads them.
var byzRegs = []Registration{
	{Port: "alpha", Node: 7},
	{Port: "beta", Node: 19},
	{Port: "gamma", Node: 31},
}

// TestByzantineArmDeterminism pins the adversary's seeding discipline:
// equal ArmOptions over equal registrations arm the nodes the model
// plans, on two transports alike; re-arming replaces the plan wholesale,
// and Disarm clears it.
func TestByzantineArmDeterminism(t *testing.T) {
	runHistory(t, byzHistory+"columns model mem mem\narm 1 2\narm 42 2\narm 1985 2\ndisarm")
}

// TestByzantineAttackWithoutVoting is the attack demo the defence is
// measured against: with voting off, the replica fallthrough surfaces
// forged answers — at r=1 there is no family filter at all, and even at
// r=3 a liar answering for its own family wins whenever its family is
// asked first.
func TestByzantineAttackWithoutVoting(t *testing.T) {
	for _, r := range []int{1, 3} {
		t.Run(fmt.Sprintf("r=%d", r), func(t *testing.T) {
			h := runHistory(t, fmt.Sprintf("world complete 36 r=%d\ncolumns model mem+cluster\npost-batch alpha@7 beta@19 gamma@31\narm 7 2 fabricate\nlocate 0-35 alpha,beta,gamma", r))
			if h.tally.forged == 0 {
				t.Fatal("no forged answer surfaced: the adversary is armed wrong")
			}
		})
	}
}

// TestByzantineVoteKilledReplica drives voted locates while an honest
// node-shard process is kill -9'd mid-run: abstaining families may cost
// availability (a vote that cannot reach its majority fails closed) but
// must never cost integrity — no forged answer surfaces, before, during,
// or after the crash window.
func TestByzantineVoteKilledReplica(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns real processes")
	}
	const n = 36
	addrs, cmds := spawnNetCluster(t, n, 3)
	netT, err := NewLayoutNetTransport(topology.Complete(n), fixedOf(t, mkReplicated(t, n, 3)), addrs, NetOptions{CallTimeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	col := frontColumn("net+vote", netT, "vote", true)
	r := runHistory(t, byzHistory+"arm 3 1 fabricate", col)

	// Loader goroutine voting continuously while the victim dies.
	var (
		stop     atomic.Bool
		forged   atomic.Int64
		loaderOK = make(chan error, 1)
	)
	go func() {
		defer close(loaderOK)
		for i := 0; !stop.Load(); i++ {
			client, reg := graph.NodeID(i%n), byzRegs[i%len(byzRegs)]
			e, err := col.cl.Locate(client, reg.Port)
			if err != nil && !errors.Is(err, core.ErrNotFound) { // fail-closed votes are fine
				loaderOK <- fmt.Errorf("locate %q from %d: %v", reg.Port, client, err)
				return
			}
			if err == nil && (e.Port != reg.Port || e.ServerID >= ForgedIDBase || e.Addr != reg.Node) {
				forged.Add(1)
			}
		}
	}()
	time.Sleep(50 * time.Millisecond)
	if err := cmds[1].Process.Signal(syscall.SIGKILL); err != nil {
		t.Fatal(err)
	}
	cmds[1].Wait()
	time.Sleep(200 * time.Millisecond)
	stop.Store(true)
	if err := <-loaderOK; err != nil {
		t.Fatal(err)
	}
	if f := forged.Load(); f != 0 {
		t.Fatalf("%d forged answers surfaced across the crash window, want 0", f)
	}
	// With one family's answerers gone for a third of the pairs, votes
	// still settle 2-of-3 wherever the liar is not the surviving minority:
	// the runner's sweep believes no lie and fails closed, never otherwise.
	r.more("locate 0-35 alpha,beta,gamma")
	ok := 0
	for _, c := range r.last[0] {
		if ok += strings.Count(c.out, "#"); c.out != "not-found" && !strings.Contains(c.out, "#") {
			t.Fatalf("voted locate: %s, want an answer or a closed failure", c.out)
		}
	}
	if ok == 0 {
		t.Fatal("no voted locate succeeded after a single process kill")
	}
}

// TestByzantineQuarantineLifecycle pins the rehabilitation story: a
// liar outvoted at quorum lands in the suspect set; a reconciliation
// round clears the quarantine (the node's stored state re-verified
// against registration ground truth); a still-armed liar is
// re-quarantined by the next vote it loses, while a disarmed one stays
// rehabilitated for good. No vote fails or believes the lie throughout.
func TestByzantineQuarantineLifecycle(t *testing.T) {
	const sweep = "locate 0-35 alpha,beta,gamma\n"
	r := runHistory(t, byzHistory+"columns model mem+vote\narm 11 1 fabricate\n"+sweep)
	c, liar := r.cols[1].cl, r.cols[1].tr.ArmedNodes()[0]
	suspected := func(stage string, want bool) {
		t.Helper()
		if s := c.SuspectedNodes(); slices.Contains(s, liar) != want || !want && len(s) != 0 {
			t.Fatalf("%s: suspect set %v, liar %d", stage, s, liar)
		}
	}
	suspected("armed", true)
	if m := c.Metrics(); m.SuspectedNodes == 0 || m.VoteConflicts == 0 || m.VoteQuorum != 3 {
		t.Fatalf("metrics missed the attack: %+v", m)
	}
	r.more("reconcile")
	suspected("reconciled", false)
	r.more(sweep)
	suspected("re-armed", true)
	r.more("disarm\nreconcile\n" + sweep)
	suspected("disarmed", false)
	if r.tally.closed != 0 {
		t.Fatalf("%d voted locates failed closed", r.tally.closed)
	}
}

// TestByzantineVoteQuorumClamp checks the quorum clamps to the
// replication factor and that voting stays out of the way on
// non-Byzantine or unreplicated transports.
func TestByzantineVoteQuorumClamp(t *testing.T) {
	const n = 36
	tr := must(NewLayoutMemTransport(topology.Complete(n), fixedOf(t, mkReplicated(t, n, 2)), 0))
	defer tr.Close()
	must(tr.PostBatch(byzRegs))
	c := New(tr, Options{VoteQuorum: 99})
	defer c.Close()
	if _, err := c.Locate(3, "alpha"); err != nil {
		t.Fatal(err)
	}
	if m := c.Metrics(); m.VoteQuorum != 2 || m.VotedLocates != 1 {
		t.Fatalf("quorum %d voted %d, want clamp to 2 with 1 voted locate", m.VoteQuorum, m.VotedLocates)
	}

	// Unreplicated: VoteQuorum is inert, locates run the plain path.
	plain := must(NewMemTransport(topology.Complete(n), rendezvous.Checkerboard(n), 0))
	defer plain.Close()
	must(plain.PostBatch(byzRegs))
	pc := New(plain, Options{VoteQuorum: 3})
	defer pc.Close()
	if _, err := pc.Locate(3, "alpha"); err != nil {
		t.Fatal(err)
	}
	if m := pc.Metrics(); m.VoteQuorum != 0 || m.VotedLocates != 0 {
		t.Fatalf("unreplicated transport voted: %+v", m)
	}
}
