package cluster

import (
	"errors"
	"net"
	"strings"
	"syscall"
	"testing"
	"time"

	"matchmake/internal/netwire"
	"matchmake/internal/rendezvous"
	"matchmake/internal/topology"
)

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
	g, lay := topology.Complete(n), fixedOf(t, mkReplicated(t, n, 2))
	addrs3, _ := spawnNetCluster(t, n, 3)
	memT := must(NewLayoutMemTransport(g, lay, 0))
	netT, err := NewLayoutNetTransport(g, lay, addrs3, NetOptions{CallTimeout: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	const sweep = "locate 0-59/4 alpha,beta,gamma"
	r := runHistory(t, "world complete 60 r=2\npost-batch alpha@7 beta@29 gamma@51\n"+sweep,
		frontColumn("mem", memT, "", false), frontColumn("net", netT, "", true))
	everyFound(t, r)

	// Grow the process set 3 → 5, then shrink back 5 → 3 with one donor
	// killed -9 mid-migration: its partition data is gone, the transfer of
	// those chunks fails, and the repair path plus the r = 2 fallthrough
	// keep every locate succeeding.
	addrs5, cmds5 := spawnNetCluster(t, n, 5)
	if err := netT.Rescale(addrs5); err != nil || netT.Procs() != 5 {
		t.Fatalf("rescale to 5: %v, %d processes", err, netT.Procs())
	}
	r.more(sweep)
	everyFound(t, r)
	addrs3b, _ := spawnNetCluster(t, n, 3)
	if err := cmds5[2].Process.Signal(syscall.SIGKILL); err != nil {
		t.Fatal(err)
	}
	cmds5[2].Wait()
	if err := netT.Rescale(addrs3b); err != nil || netT.Procs() != 3 {
		t.Fatalf("rescale back to 3: %v, %d processes", err, netT.Procs())
	}
	r.more(sweep + "\nregister delta 13\nlocate 2 delta\nderegister delta")
	everyFound(t, r)
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
