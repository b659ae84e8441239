package core

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"testing"

	"matchmake/internal/graph"
	"matchmake/internal/rendezvous"
	"matchmake/internal/sim"
	"matchmake/internal/strategy"
	"matchmake/internal/topology"
)

// TestModelRandomOperationSequences is a model-based test: it drives the
// engine with random register / migrate / deregister / locate sequences
// and checks every locate against a trivial in-memory oracle of which
// server is live where. This is the paper's whole correctness contract:
// a surviving client must find the current address of a surviving
// server, and must not find departed ones.
func TestModelRandomOperationSequences(t *testing.T) {
	const (
		n     = 36
		steps = 120
		ports = 4
	)
	seeds := []uint64{1, 2, 3}
	for _, seed := range seeds {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			gr, err := topology.NewGrid(6, 6)
			if err != nil {
				t.Fatalf("NewGrid: %v", err)
			}
			net, err := sim.New(gr.G)
			if err != nil {
				t.Fatalf("sim.New: %v", err)
			}
			defer net.Close()
			sys, err := NewSystem(net, strategy.Manhattan(gr), Options{})
			if err != nil {
				t.Fatalf("NewSystem: %v", err)
			}

			rng := rand.New(rand.NewPCG(seed, seed*977))
			type state struct {
				srv  *Server
				node graph.NodeID
			}
			oracle := make(map[Port]*state)

			for step := 0; step < steps; step++ {
				port := Port(fmt.Sprintf("p%d", rng.IntN(ports)))
				cur := oracle[port]
				switch op := rng.IntN(10); {
				case op < 3: // register (if not live)
					if cur != nil {
						continue
					}
					node := graph.NodeID(rng.IntN(n))
					srv, err := sys.RegisterServer(port, node)
					if err != nil {
						t.Fatalf("step %d register: %v", step, err)
					}
					oracle[port] = &state{srv: srv, node: node}
				case op < 5: // migrate
					if cur == nil {
						continue
					}
					to := graph.NodeID(rng.IntN(n))
					if err := cur.srv.Migrate(to); err != nil {
						t.Fatalf("step %d migrate: %v", step, err)
					}
					cur.node = to
				case op < 6: // deregister
					if cur == nil {
						continue
					}
					if err := cur.srv.Deregister(); err != nil {
						t.Fatalf("step %d deregister: %v", step, err)
					}
					delete(oracle, port)
				default: // locate from a random client
					client := graph.NodeID(rng.IntN(n))
					res, err := sys.Locate(client, port)
					if cur == nil {
						if err == nil {
							t.Fatalf("step %d: located deregistered %q at %d", step, port, res.Addr)
						}
						if !errors.Is(err, ErrNotFound) {
							t.Fatalf("step %d: unexpected error %v", step, err)
						}
						continue
					}
					if err != nil {
						t.Fatalf("step %d: locate %q: %v (oracle says node %d)", step, port, err, cur.node)
					}
					if res.Addr != cur.node {
						t.Fatalf("step %d: locate %q = %d, oracle %d", step, port, res.Addr, cur.node)
					}
				}
			}
		})
	}
}

func TestLocateAllFindsEveryInstance(t *testing.T) {
	sys := newCompleteSystem(t, 25, rendezvous.Checkerboard(25))
	nodes := []graph.NodeID{2, 11, 19}
	for _, node := range nodes {
		if _, err := sys.RegisterServer("svc", node); err != nil {
			t.Fatalf("RegisterServer at %d: %v", node, err)
		}
	}
	entries, err := sys.LocateAll(7, "svc")
	if err != nil {
		t.Fatalf("LocateAll: %v", err)
	}
	// All three instances post to row blocks; the client column crosses
	// every row block, so all three must be visible.
	if len(entries) != 3 {
		t.Fatalf("found %d instances, want 3: %+v", len(entries), entries)
	}
	found := make(map[graph.NodeID]bool)
	for _, e := range entries {
		found[e.Addr] = true
	}
	for _, node := range nodes {
		if !found[node] {
			t.Fatalf("instance at %d missing from %v", node, entries)
		}
	}
}

func TestLocateAllNotFound(t *testing.T) {
	sys := newCompleteSystem(t, 16, rendezvous.Checkerboard(16))
	if _, err := sys.LocateAll(3, "ghost"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("err = %v, want ErrNotFound", err)
	}
	if _, err := sys.LocateAll(99, "x"); !errors.Is(err, graph.ErrNodeRange) {
		t.Fatalf("err = %v, want ErrNodeRange", err)
	}
}

func TestLocateNearestPrefersClosest(t *testing.T) {
	// On a line, two instances at the ends; clients pick their own side.
	g, err := topology.Line(9)
	if err != nil {
		t.Fatalf("Line: %v", err)
	}
	net, err := sim.New(g)
	if err != nil {
		t.Fatalf("sim.New: %v", err)
	}
	t.Cleanup(net.Close)
	// Sweep posts everywhere, so every node sees both instances.
	sys, err := NewSystem(net, rendezvous.Sweep(9), Options{})
	if err != nil {
		t.Fatalf("NewSystem: %v", err)
	}
	if _, err := sys.RegisterServer("svc", 0); err != nil {
		t.Fatalf("RegisterServer: %v", err)
	}
	if _, err := sys.RegisterServer("svc", 8); err != nil {
		t.Fatalf("RegisterServer: %v", err)
	}
	res, err := sys.LocateNearest(1, "svc")
	if err != nil {
		t.Fatalf("LocateNearest: %v", err)
	}
	if res.Addr != 0 {
		t.Fatalf("client 1 nearest = %d, want 0", res.Addr)
	}
	res, err = sys.LocateNearest(7, "svc")
	if err != nil {
		t.Fatalf("LocateNearest: %v", err)
	}
	if res.Addr != 8 {
		t.Fatalf("client 7 nearest = %d, want 8", res.Addr)
	}
}

func TestPollRendezvous(t *testing.T) {
	sys, gr := newGridSystem(t, 3, 3)
	srv, err := sys.RegisterServer("svc", gr.At(1, 1))
	if err != nil {
		t.Fatalf("RegisterServer: %v", err)
	}
	live, total := srv.PollRendezvous()
	if live != 3 || total != 3 {
		t.Fatalf("poll = %d/%d, want 3/3", live, total)
	}
	// A rendezvous reboot loses the entry.
	sys.ClearCache(gr.At(1, 0))
	live, total = srv.PollRendezvous()
	if live != 2 || total != 3 {
		t.Fatalf("poll after reboot = %d/%d, want 2/3", live, total)
	}
	// A crashed rendezvous counts as not live.
	if err := sys.Network().Crash(gr.At(1, 2)); err != nil {
		t.Fatalf("Crash: %v", err)
	}
	live, _ = srv.PollRendezvous()
	if live != 1 {
		t.Fatalf("poll after crash = %d, want 1", live)
	}
}

func TestMaintainRendezvousReposts(t *testing.T) {
	sys, gr := newGridSystem(t, 3, 3)
	srv, err := sys.RegisterServer("svc", gr.At(0, 0))
	if err != nil {
		t.Fatalf("RegisterServer: %v", err)
	}
	// Healthy: no repost needed.
	reposted, err := srv.MaintainRendezvous(3)
	if err != nil || reposted {
		t.Fatalf("healthy maintain = %v,%v, want false,nil", reposted, err)
	}
	// Two rendezvous reboots drop below threshold; maintain self-heals.
	sys.ClearCache(gr.At(0, 1))
	sys.ClearCache(gr.At(0, 2))
	reposted, err = srv.MaintainRendezvous(3)
	if err != nil || !reposted {
		t.Fatalf("maintain = %v,%v, want true,nil", reposted, err)
	}
	live, _ := srv.PollRendezvous()
	if live != 3 {
		t.Fatalf("live after maintain = %d, want 3", live)
	}
	// Deregistered servers cannot be maintained.
	if err := srv.Deregister(); err != nil {
		t.Fatalf("Deregister: %v", err)
	}
	if _, err := srv.MaintainRendezvous(1); !errors.Is(err, ErrServerGone) {
		t.Fatalf("err = %v, want ErrServerGone", err)
	}
}

func TestMigrateFromCrashedHost(t *testing.T) {
	// The old host dies; the tombstone cannot be posted from it, but the
	// fresh posting's newer timestamp must still win wherever both are
	// seen, so migration succeeds.
	sys, gr := newGridSystem(t, 4, 4)
	srv, err := sys.RegisterServer("svc", gr.At(0, 0))
	if err != nil {
		t.Fatalf("RegisterServer: %v", err)
	}
	if err := sys.Network().Crash(gr.At(0, 0)); err != nil {
		t.Fatalf("Crash: %v", err)
	}
	if err := srv.Migrate(gr.At(3, 3)); err != nil {
		t.Fatalf("Migrate from crashed host: %v", err)
	}
	res, err := sys.Locate(gr.At(1, 1), "svc")
	if err != nil {
		t.Fatalf("Locate: %v", err)
	}
	if res.Addr != gr.At(3, 3) {
		t.Fatalf("Addr = %d, want %d", res.Addr, gr.At(3, 3))
	}
}

func TestLocateSurvivesCrashAfterRoutingRebuild(t *testing.T) {
	// §2.4 end to end: the rendezvous node is alive but the static route
	// to it crosses a crashed node; after the routing tables reconverge
	// on the surviving subnetwork, the locate succeeds via a detour.
	sys, gr := newGridSystem(t, 3, 3)
	net := sys.Network()
	if _, err := sys.RegisterServer("svc", gr.At(0, 2)); err != nil {
		t.Fatalf("RegisterServer: %v", err)
	}
	// Client at (2,0) floods column 0: {(0,0),(1,0),(2,0)}; rendezvous is
	// the crossing (0,0). Crash (1,0), the hop between client and
	// rendezvous.
	if err := net.Crash(gr.At(1, 0)); err != nil {
		t.Fatalf("Crash: %v", err)
	}
	if _, err := sys.Locate(gr.At(2, 0), "svc"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("stale-route locate err = %v, want ErrNotFound", err)
	}
	if err := net.RebuildRouting(); err != nil {
		t.Fatalf("RebuildRouting: %v", err)
	}
	res, err := sys.Locate(gr.At(2, 0), "svc")
	if err != nil {
		t.Fatalf("Locate after rebuild: %v", err)
	}
	if res.Addr != gr.At(0, 2) {
		t.Fatalf("Addr = %d, want %d", res.Addr, gr.At(0, 2))
	}
}

func TestPollAfterDeregister(t *testing.T) {
	sys, gr := newGridSystem(t, 3, 3)
	srv, err := sys.RegisterServer("svc", gr.At(0, 0))
	if err != nil {
		t.Fatalf("RegisterServer: %v", err)
	}
	if err := srv.Deregister(); err != nil {
		t.Fatalf("Deregister: %v", err)
	}
	if live, total := srv.PollRendezvous(); live != 0 || total != 0 {
		t.Fatalf("poll after deregister = %d/%d, want 0/0", live, total)
	}
}
