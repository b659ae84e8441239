package gate

import (
	"errors"
	"fmt"
	"net"
	"runtime"
	"strings"
	"testing"

	"matchmake/internal/cluster"
	"matchmake/internal/core"
	"matchmake/internal/graph"
	"matchmake/internal/netwire"
	"matchmake/internal/rendezvous"
	"matchmake/internal/sim"
	"matchmake/internal/topology"
)

// loopbackNet serves an n-node cluster from procs in-process NodeServers
// on ephemeral loopback ports and dials a NetTransport over them.
func loopbackNet(t *testing.T, n, procs int) (*cluster.NetTransport, []*cluster.NodeServer) {
	t.Helper()
	addrs, servers := make([]string, procs), make([]*cluster.NodeServer, procs)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lo, hi := cluster.PartitionRange(n, procs, i)
		s, err := cluster.NewNodeServer(n, lo, hi, ln)
		if err != nil {
			t.Fatal(err)
		}
		go s.Serve()
		t.Cleanup(func() { s.Close() })
		addrs[i], servers[i] = ln.Addr().String(), s
	}
	tr, err := cluster.NewNetTransport(topology.Complete(n), rendezvous.Checkerboard(n), addrs, cluster.NetOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return tr, servers
}

// bringUpRegs is the benchmark's bring-up: 64 servers, one per port,
// port i at node (47i+5) mod 64.
func bringUpRegs() []cluster.Registration {
	regs := make([]cluster.Registration, 64)
	for i := range regs {
		regs[i] = cluster.Registration{Port: core.Port(fmt.Sprintf("svc-%02d", i)), Node: graph.NodeID((47*i + 5) % 64)}
	}
	return regs
}

// writeFrames is the request frames the shards served for writes.
func writeFrames(servers []*cluster.NodeServer) (register, post int64) {
	for _, s := range servers {
		ops := s.OpCounts()
		register, post = register+ops["register"], post+ops["post"]
	}
	return register, post
}

// TestBringUpFrameBudget pins what a bulk write costs in frames: a
// PostBatch of 64 servers over 2 node processes is one opRegister and one
// opPost request frame per process — 4 frames, where one round trip per
// server made it 66 — and through the gateway it is one GopPostBatch
// frame pair on the edge (64 before) over the same 4 behind it. They are
// counts, so they must repeat exactly: every round is a fresh system.
func TestBringUpFrameBudget(t *testing.T) {
	regs := bringUpRegs()
	for round := 0; round < 3; round++ {
		tr, servers := loopbackNet(t, 64, 2)
		before := tr.WireStats()
		if _, err := tr.PostBatch(regs); err != nil {
			t.Fatal(err)
		}
		wire := tr.WireStats().Sub(before)
		register, post := writeFrames(servers)
		if register != 2 || post != 2 || wire.FramesSent != 4 || wire.FramesRecv != 4 {
			t.Errorf("round %d direct: %d opRegister + %d opPost frames served, %d sent / %d received; want 2 + 2, 4 / 4",
				round, register, post, wire.FramesSent, wire.FramesRecv)
		}
		tr.Close()

		tr, servers = loopbackNet(t, 64, 2)
		tg := newTestGateway(t, tr, DevTenant("tok"))
		gt, err := DialTransport(tg.wire, "tok", 2)
		if err != nil {
			t.Fatal(err)
		}
		edge0 := gt.WireStats()
		refs, err := gt.PostBatch(regs)
		if err != nil {
			t.Fatal(err)
		}
		edge := gt.WireStats().Sub(edge0)
		register, post = writeFrames(servers)
		if edge.FramesSent != 1 || edge.FramesRecv != 1 || register != 2 || post != 2 {
			t.Errorf("round %d gate: %d sent / %d received on the edge, %d opRegister + %d opPost behind it; want 1 / 1, 2 + 2",
				round, edge.FramesSent, edge.FramesRecv, register, post)
		}
		// The ids that came back are live handles.
		if e, err := gt.Locate(9, regs[63].Port); err != nil || e.Addr != regs[63].Node {
			t.Errorf("round %d: locate through the gate = %+v, %v", round, e, err)
		}
		if err := refs[63].Deregister(); err != nil {
			t.Errorf("round %d: deregister by batch id: %v", round, err)
		}
		if _, err := gt.Locate(9, regs[63].Port); !errors.Is(err, core.ErrNotFound) {
			t.Errorf("round %d: locate after deregister: %v, want not found", round, err)
		}
		gt.Close()
	}
}

// TestPostBatchRefusedLeavesNothing is the edge's all-or-nothing
// contract: a batch whose k-th home is crashed, and one whose k-th port
// is invalid, are refused whole — no gateway registration (the serial
// path left the first k live with no handle to deregister them), no
// posting, no tenant or cluster counter moved — and the same batch,
// repaired, then registers.
func TestPostBatchRefusedLeavesNothing(t *testing.T) {
	const n, k = 16, 5
	for _, backing := range []string{"mem", "net"} {
		t.Run(backing, func(t *testing.T) {
			var tr cluster.Transport = memTransport(t, n)
			if backing == "net" {
				tr, _ = loopbackNet(t, n, 2)
			}
			tg := newTestGateway(t, tr, DevTenant("tok"))
			gt, err := DialTransport(tg.wire, "tok", 2)
			if err != nil {
				t.Fatal(err)
			}
			defer gt.Close()
			good := make([]cluster.Registration, 8)
			for i := range good {
				good[i] = cluster.Registration{Port: core.Port(fmt.Sprintf("p%d", i)), Node: graph.NodeID(2*i + 1)}
			}
			nothingLeft := func(what string) {
				t.Helper()
				tg.gw.regMu.Lock()
				held := len(tg.gw.regs)
				tg.gw.regMu.Unlock()
				if held != 0 {
					t.Errorf("%s: the gateway holds %d registrations of the refused batch", what, held)
				}
				for _, r := range good {
					if _, err := gt.Locate(0, r.Port); !errors.Is(err, core.ErrNotFound) {
						t.Errorf("%s: locate %q = %v, want not found", what, r.Port, err)
					}
				}
				if got := tg.gw.tenants["dev"].m.registers.Load(); got != 0 {
					t.Errorf("%s: tenant registers counter = %d, want 0", what, got)
				}
				if got := tg.c.Metrics().Posts; got != 0 {
					t.Errorf("%s: cluster posts = %d, want 0", what, got)
				}
			}

			if err := tg.c.Transport().Crash(good[k].Node); err != nil {
				t.Fatal(err)
			}
			if refs, err := gt.PostBatch(good); err == nil || refs != nil || !strings.Contains(err.Error(), sim.ErrCrashed.Error()) {
				t.Fatalf("crashed home: PostBatch = %v, %v; want no refs and a crashed-node error", refs, err)
			}
			nothingLeft("crashed home")
			if err := tg.c.Transport().Restore(good[k].Node); err != nil {
				t.Fatal(err)
			}

			bad := append([]cluster.Registration(nil), good...)
			bad[k].Port = core.Port(strings.Repeat("x", 257))
			if refs, err := gt.PostBatch(bad); err == nil || refs != nil {
				t.Fatalf("invalid port: PostBatch = %v, %v; want no refs and an error", refs, err)
			}
			nothingLeft("invalid port")

			refs, err := gt.PostBatch(good)
			if err != nil || len(refs) != len(good) {
				t.Fatalf("repaired batch: %d refs, %v", len(refs), err)
			}
			for i, r := range good {
				if e, err := gt.Locate(0, r.Port); err != nil || e.Addr != r.Node {
					t.Errorf("locate %q = %+v, %v; want addr %d", r.Port, e, err, r.Node)
				}
				if refs[i].Port() != r.Port || refs[i].Node() != r.Node {
					t.Errorf("ref %d = %s@%d, want %s@%d", i, refs[i].Port(), refs[i].Node(), r.Port, r.Node)
				}
			}
		})
	}
}

// TestPeerCountsSizeNothing holds the edge's two decoders that read an
// element count off the wire to the bytes that came with it: a
// locate-batch naming a million ports it does not carry is refused before
// anything is sized by the claim, and an events reply from a corrupt
// gateway claiming 2^62 events is a named error, not a makeslice panic.
func TestPeerCountsSizeNothing(t *testing.T) {
	gw := newTestGateway(t, memTransport(t, 16), DevTenant("tok")).gw
	body := netwire.AppendUvarint(netwire.AppendString(nil, "tok"), 7) // client
	body = netwire.AppendString(netwire.AppendUvarint(body, 1<<20), "printer")
	handler := gw.WireHandler()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	st, msg := handler(GopLocateBatch, body, nil)
	runtime.ReadMemStats(&after)
	if st != GsBadRequest {
		t.Errorf("locate-batch claiming 2^20 ports over one: status %d %q, want GsBadRequest", st, msg)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
		t.Errorf("refusing a %d-byte locate-batch allocated %d bytes: the claimed count sized something", len(body), grew)
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	corrupt := netwire.NewServer(ln, func(op byte, _, resp []byte) (byte, []byte) {
		if op == GopEvents {
			return GsOK, netwire.AppendUvarint(netwire.AppendUvarint(resp, 9), 1<<62) // seq, count
		}
		return handler(op, netwire.AppendString(nil, "tok"), resp) // an honest hello
	})
	go corrupt.Serve()
	defer corrupt.Close()
	gt, err := DialTransport(ln.Addr().String(), "tok", 1)
	if err != nil {
		t.Fatal(err)
	}
	defer gt.Close()
	if evs, _, err := gt.Events(0, 0); err == nil || !strings.Contains(err.Error(), "bad events response") {
		t.Errorf("events reply claiming 2^62 events: %d events, err %v; want the bad-response error", len(evs), err)
	}
}
