package cluster

import (
	"errors"
	"net"
	"strings"
	"syscall"
	"testing"
	"time"

	"matchmake/internal/core"
	"matchmake/internal/graph"
	"matchmake/internal/netwire"
	"matchmake/internal/rendezvous"
	"matchmake/internal/strategy"
	"matchmake/internal/topology"
)

// TestNetElasticResizeEquivalence drives an epoch transition over a
// real 3-process loopback cluster side by side with the elastic
// in-process transport: identical answers and identical pass charges
// before, during and after the dual-epoch migration, and a migration
// counter equal on both sides to the remap's minimal-movement
// prediction.
func TestNetElasticResizeEquivalence(t *testing.T) {
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
	netT, err := NewLayoutNetTransport(g, elasticOf(ep1), addrs, NetOptions{CallTimeout: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { netT.Close() })

	servers := map[core.Port]graph.NodeID{"alpha": 12, "beta": 35, "gamma": 0}
	var homes []graph.NodeID
	for port, node := range servers {
		if _, err := memT.Register(port, node); err != nil {
			t.Fatal(err)
		}
		if _, err := netT.Register(port, node); err != nil {
			t.Fatal(err)
		}
		homes = append(homes, node)
	}
	checkMemNet := func(stage string, clients int) {
		t.Helper()
		for c := 0; c < clients; c += 3 {
			client := graph.NodeID(c)
			for port := range servers {
				memBefore, netBefore := memT.Passes(), netT.Passes()
				e1, err1 := memT.Locate(client, port)
				e2, err2 := netT.Locate(client, port)
				if (err1 == nil) != (err2 == nil) {
					t.Fatalf("%s: locate %q from %d: mem err=%v net err=%v", stage, port, client, err1, err2)
				}
				if err1 == nil && (e1.Addr != e2.Addr || e1.ServerID != e2.ServerID) {
					t.Fatalf("%s: locate %q from %d: mem %+v != net %+v", stage, port, client, e1, e2)
				}
				if mc, nc := memT.Passes()-memBefore, netT.Passes()-netBefore; mc != nc {
					t.Fatalf("%s: locate %q from %d: mem charged %d passes, net %d", stage, port, client, mc, nc)
				}
			}
		}
	}
	checkMemNet("epoch1", 36)

	ep2 := mkEpoch(t, 2, universe, 48, 1)
	rm, err := strategy.NewRemap(ep1, ep2)
	if err != nil {
		t.Fatal(err)
	}
	want := rm.MovedPosts(homes)
	memBefore, netBefore := memT.Passes(), netT.Passes()
	memMoved, err := memT.Resize(ep2)
	if err != nil {
		t.Fatal(err)
	}
	netMoved, err := netT.Resize(ep2)
	if err != nil {
		t.Fatal(err)
	}
	if memMoved != want || netMoved != want {
		t.Fatalf("moved postings: mem %d, net %d, remap predicts %d", memMoved, netMoved, want)
	}
	if mc, nc := memT.Passes()-memBefore, netT.Passes()-netBefore; mc != nc {
		t.Fatalf("resize migration: mem charged %d passes, net %d", mc, nc)
	}
	checkMemNet("dual", 48)
	if err := memT.FinishResize(); err != nil {
		t.Fatal(err)
	}
	if err := netT.FinishResize(); err != nil {
		t.Fatal(err)
	}
	checkMemNet("epoch2", 48)
}

// TestNetRescale353 is the live 3→5→3 process resize: a replicated
// (r = 2) socket transport re-partitions the same node space across 5
// fresh processes and back to 3, with a kill -9 of one donor before
// the second transfer — the dead donor's ranges are rebuilt from the
// registration mirror (repairRange), so every locate keeps succeeding
// and keeps agreeing with the in-process transport.
func TestNetRescale353(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns real processes")
	}
	const n = 60
	g := topology.Complete(n)
	rp, err := strategy.NewReplicated(rendezvous.Checkerboard(n), 2)
	if err != nil {
		t.Fatal(err)
	}
	addrs3, _ := spawnNetCluster(t, n, 3)
	memT, err := NewLayoutMemTransport(g, fixedOf(t, rp), 0)
	if err != nil {
		t.Fatal(err)
	}
	netT, err := NewLayoutNetTransport(g, fixedOf(t, rp), addrs3, NetOptions{CallTimeout: 10 * time.Second})
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
	checkAnswers := func(stage string) {
		t.Helper()
		for c := 0; c < n; c += 4 {
			client := graph.NodeID(c)
			for _, r := range regs {
				e1, err1 := memT.Locate(client, r.Port)
				e2, err2 := netT.Locate(client, r.Port)
				if err1 != nil || err2 != nil {
					t.Fatalf("%s: locate %q from %d: mem err=%v net err=%v", stage, r.Port, client, err1, err2)
				}
				if e1.Addr != e2.Addr || e1.ServerID != e2.ServerID {
					t.Fatalf("%s: locate %q from %d: mem %+v != net %+v", stage, r.Port, client, e1, e2)
				}
			}
		}
	}
	checkAnswers("3-procs")
	if got := netT.Procs(); got != 3 {
		t.Fatalf("Procs() = %d, want 3", got)
	}

	// Grow the process set: 3 → 5, clean handoff.
	addrs5, cmds5 := spawnNetCluster(t, n, 5)
	if err := netT.Rescale(addrs5); err != nil {
		t.Fatal(err)
	}
	if got := netT.Procs(); got != 5 {
		t.Fatalf("Procs() after rescale = %d, want 5", got)
	}
	checkAnswers("5-procs")

	// Shrink back 5 → 3 with one donor killed -9 mid-migration: its
	// partition data is gone, the transfer of those chunks fails, and
	// the repair path (registration mirror re-posts) plus the r = 2
	// fallthrough keep every locate succeeding.
	addrs3b, _ := spawnNetCluster(t, n, 3)
	victim := cmds5[2]
	if err := victim.Process.Signal(syscall.SIGKILL); err != nil {
		t.Fatal(err)
	}
	victim.Wait()
	if err := netT.Rescale(addrs3b); err != nil {
		t.Fatal(err)
	}
	if got := netT.Procs(); got != 3 {
		t.Fatalf("Procs() after second rescale = %d, want 3", got)
	}
	checkAnswers("3-procs-after-kill")

	// Lifecycle still works against the rescaled cluster.
	ref, err := netT.Register("delta", 13)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := netT.Locate(2, "delta"); err != nil {
		t.Fatal(err)
	}
	if err := ref.Deregister(); err != nil {
		t.Fatal(err)
	}
}

// TestTransferChunkErrors pins what a failed partition replay reports:
// a receiver that answers a replay frame with a refusal is named with
// its status and wraps nothing — no call failed — while a receiver that
// cannot be reached wraps the transport error.
func TestTransferChunkErrors(t *testing.T) {
	const n = 8
	donor, err := NewNetTransport(topology.Complete(n), rendezvous.Checkerboard(n), loopbackNodes(t, n, 1), NetOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer donor.Close()
	if _, err := donor.Register("svc", 2); err != nil { // postings and a liveness record
		t.Fatal(err)
	}
	if err := donor.Crash(5); err != nil { // and a crash mark
		t.Fatal(err)
	}
	old := donor.wire.procs.Load()

	// stub is a receiver that refuses one opcode and accepts the rest.
	stub := func(refuse byte) *procSet {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		s := netwire.NewServer(ln, func(op byte, _, resp []byte) (byte, []byte) {
			if op == refuse {
				return stBadRequest, resp
			}
			return stOK, resp
		})
		go s.Serve()
		t.Cleanup(func() { s.Close() })
		nps := newProcSet([]string{ln.Addr().String()}, n, NetOptions{}, nil)
		t.Cleanup(nps.close)
		return nps
	}
	for _, tc := range []struct {
		refuse byte
		what   string
	}{{opPost, "postings"}, {opRegister, "liveness"}, {opCrash, "crash marks"}} {
		err := transferChunk(old, 0, stub(tc.refuse), 0, 0, n)
		if err == nil {
			t.Fatalf("refused %s: transfer succeeded", tc.what)
		}
		if msg := err.Error(); !strings.Contains(msg, "replay "+tc.what) || !strings.Contains(msg, "status 3") || strings.Contains(msg, "%!") {
			t.Errorf("refused %s: error %q does not name the stage and status", tc.what, msg)
		}
		if errors.Unwrap(err) != nil {
			t.Errorf("refused %s: error wraps %v, but no call failed", tc.what, errors.Unwrap(err))
		}
	}
	if err := transferChunk(old, 0, stub(0), 0, 0, n); err != nil {
		t.Fatalf("accepting receiver: %v", err)
	}

	gone := stub(0)
	gone.close()
	err = transferChunk(old, 0, gone, 0, 0, n)
	if !errors.Is(err, netwire.ErrClientClosed) || !strings.Contains(err.Error(), "replay postings") {
		t.Errorf("unreachable receiver: error %v, want the replay stage wrapping %v", err, netwire.ErrClientClosed)
	}
}
