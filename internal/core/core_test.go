package core

import (
	"errors"
	"testing"

	"matchmake/internal/graph"
	"matchmake/internal/rendezvous"
	"matchmake/internal/sim"
	"matchmake/internal/strategy"
	"matchmake/internal/topology"
)

func newGridSystem(t *testing.T, rows, cols int) (*System, *topology.Grid) {
	t.Helper()
	gr, err := topology.NewGrid(rows, cols)
	if err != nil {
		t.Fatalf("NewGrid: %v", err)
	}
	net, err := sim.New(gr.G)
	if err != nil {
		t.Fatalf("sim.New: %v", err)
	}
	t.Cleanup(net.Close)
	sys, err := NewSystem(net, strategy.Manhattan(gr), Options{})
	if err != nil {
		t.Fatalf("NewSystem: %v", err)
	}
	return sys, gr
}

func newCompleteSystem(t *testing.T, n int, strat rendezvous.Strategy) *System {
	t.Helper()
	net, err := sim.New(topology.Complete(n))
	if err != nil {
		t.Fatalf("sim.New: %v", err)
	}
	t.Cleanup(net.Close)
	sys, err := NewSystem(net, strat, Options{})
	if err != nil {
		t.Fatalf("NewSystem: %v", err)
	}
	return sys
}

func TestRegisterAndLocateOnGrid(t *testing.T) {
	sys, gr := newGridSystem(t, 4, 4)
	serverNode := gr.At(1, 2)
	srv, err := sys.RegisterServer("printer", serverNode)
	if err != nil {
		t.Fatalf("RegisterServer: %v", err)
	}
	clientNode := gr.At(3, 0)
	res, err := sys.Locate(clientNode, "printer")
	if err != nil {
		t.Fatalf("Locate: %v", err)
	}
	if res.Addr != serverNode {
		t.Fatalf("Addr = %d, want %d", res.Addr, serverNode)
	}
	if srv.Node() != serverNode {
		t.Fatalf("Node = %d, want %d", srv.Node(), serverNode)
	}
	// The query addressed the client's column (4 nodes).
	if res.QueriesSent != 4 {
		t.Fatalf("QueriesSent = %d, want 4", res.QueriesSent)
	}
	// Exactly one rendezvous (row∩column crossing) replies.
	if res.Replies != 1 {
		t.Fatalf("Replies = %d, want 1", res.Replies)
	}
}

func TestLocateNotFound(t *testing.T) {
	sys, gr := newGridSystem(t, 3, 3)
	_, err := sys.Locate(gr.At(0, 0), "missing")
	if !errors.Is(err, ErrNotFound) {
		t.Fatalf("err = %v, want ErrNotFound", err)
	}
}

func TestLocateInvalidClient(t *testing.T) {
	sys, _ := newGridSystem(t, 3, 3)
	if _, err := sys.Locate(99, "x"); !errors.Is(err, graph.ErrNodeRange) {
		t.Fatalf("err = %v, want ErrNodeRange", err)
	}
}

func TestRegisterInvalidNode(t *testing.T) {
	sys, _ := newGridSystem(t, 3, 3)
	if _, err := sys.RegisterServer("x", 99); !errors.Is(err, graph.ErrNodeRange) {
		t.Fatalf("err = %v, want ErrNodeRange", err)
	}
}

func TestNewSystemSizeMismatch(t *testing.T) {
	net, err := sim.New(topology.Complete(4))
	if err != nil {
		t.Fatalf("sim.New: %v", err)
	}
	defer net.Close()
	if _, err := NewSystem(net, rendezvous.Checkerboard(9), Options{}); err == nil {
		t.Fatal("size mismatch should fail")
	}
}

func TestCacheSizesAfterPosting(t *testing.T) {
	sys, gr := newGridSystem(t, 3, 3)
	if _, err := sys.RegisterServer("db", gr.At(1, 1)); err != nil {
		t.Fatalf("RegisterServer: %v", err)
	}
	// Manhattan posts along row 1: nodes (1,0),(1,1),(1,2) hold the entry.
	for c := 0; c < 3; c++ {
		if got := sys.CacheSize(gr.At(1, c)); got != 1 {
			t.Fatalf("cache at (1,%d) = %d, want 1", c, got)
		}
	}
	for _, v := range []graph.NodeID{gr.At(0, 0), gr.At(2, 2)} {
		if got := sys.CacheSize(v); got != 0 {
			t.Fatalf("cache at %d = %d, want 0", v, got)
		}
	}
	sizes := sys.CacheSizes()
	total := 0
	for _, s := range sizes {
		total += s
	}
	if total != 3 {
		t.Fatalf("total cached entries = %d, want 3", total)
	}
}

func TestDeregisterTombstones(t *testing.T) {
	sys, gr := newGridSystem(t, 3, 3)
	srv, err := sys.RegisterServer("cat", gr.At(0, 0))
	if err != nil {
		t.Fatalf("RegisterServer: %v", err)
	}
	if err := srv.Deregister(); err != nil {
		t.Fatalf("Deregister: %v", err)
	}
	if _, err := sys.Locate(gr.At(2, 2), "cat"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("err = %v, want ErrNotFound after deregister", err)
	}
	// Tombstoned entries no longer count as cached services.
	if got := sys.CacheSize(gr.At(0, 0)); got != 0 {
		t.Fatalf("cache = %d, want 0 after tombstone", got)
	}
	// Double deregister fails.
	if err := srv.Deregister(); !errors.Is(err, ErrServerGone) {
		t.Fatalf("err = %v, want ErrServerGone", err)
	}
	if err := srv.Repost(); !errors.Is(err, ErrServerGone) {
		t.Fatalf("Repost err = %v, want ErrServerGone", err)
	}
}

func TestMigrateSupersedesStaleAddress(t *testing.T) {
	sys, gr := newGridSystem(t, 4, 4)
	srv, err := sys.RegisterServer("fileserver", gr.At(0, 0))
	if err != nil {
		t.Fatalf("RegisterServer: %v", err)
	}
	newHome := gr.At(3, 3)
	if err := srv.Migrate(newHome); err != nil {
		t.Fatalf("Migrate: %v", err)
	}
	if srv.Node() != newHome {
		t.Fatalf("Node = %d, want %d", srv.Node(), newHome)
	}
	// A client whose column crosses both the old and the new row would
	// see both entries; the fresh one must win.
	for c := 0; c < 4; c++ {
		res, err := sys.Locate(gr.At(1, c), "fileserver")
		if err != nil {
			t.Fatalf("Locate from column %d: %v", c, err)
		}
		if res.Addr != newHome {
			t.Fatalf("Addr = %d, want %d (fresh address)", res.Addr, newHome)
		}
	}
}

// TestStalePostingsNeverWin: with a migrated server's stale postings
// still live at its old rendezvous nodes (the old host was down, so no
// tombstone went out), every locate sees both generations and answers
// with the new address — the freshest of all the replies, not of the
// ones that beat a clock — and Replies is exactly the number of queried
// nodes that hold an entry.
func TestStalePostingsNeverWin(t *testing.T) {
	sys, gr := newGridSystem(t, 4, 4)
	oldHome, newHome := gr.At(0, 0), gr.At(3, 3)
	srv, err := sys.RegisterServer("fileserver", oldHome)
	if err != nil {
		t.Fatalf("RegisterServer: %v", err)
	}
	if err := sys.Network().Crash(oldHome); err != nil {
		t.Fatal(err)
	}
	if err := srv.Migrate(newHome); err != nil {
		t.Fatalf("Migrate: %v", err)
	}
	if err := sys.Network().Restore(oldHome); err != nil {
		t.Fatal(err)
	}
	holders := func(client graph.NodeID) (n int) {
		for _, v := range sys.Strategy().Query(client) {
			for _, e := range sys.CacheEntries(v) {
				if e.Port == "fileserver" && e.Active {
					n++
				}
			}
		}
		return n
	}
	for i := 0; i < 1000; i++ {
		client := graph.NodeID(i % 16)
		res, err := sys.Locate(client, "fileserver")
		if err != nil {
			t.Fatalf("locate %d from %d: %v", i, client, err)
		}
		if res.Addr != newHome {
			t.Fatalf("locate %d from %d: Addr = %d, want the new address %d", i, client, res.Addr, newHome)
		}
		if want := holders(client); res.Replies != want || want != 2 {
			t.Fatalf("locate %d from %d: Replies = %d, %d queried nodes hold an entry (want 2: one stale, one fresh)", i, client, res.Replies, want)
		}
	}
}

func TestMigrateToInvalidNode(t *testing.T) {
	sys, gr := newGridSystem(t, 3, 3)
	srv, err := sys.RegisterServer("x", gr.At(0, 0))
	if err != nil {
		t.Fatalf("RegisterServer: %v", err)
	}
	if err := srv.Migrate(99); !errors.Is(err, graph.ErrNodeRange) {
		t.Fatalf("err = %v, want ErrNodeRange", err)
	}
}

func TestMultipleServersSamePort(t *testing.T) {
	// Two equivalent server processes for one service: a client finds one
	// of them; deregistering one leaves the other locatable.
	sys := newCompleteSystem(t, 16, rendezvous.Checkerboard(16))
	srvA, err := sys.RegisterServer("svc", 1)
	if err != nil {
		t.Fatalf("RegisterServer A: %v", err)
	}
	srvB, err := sys.RegisterServer("svc", 9)
	if err != nil {
		t.Fatalf("RegisterServer B: %v", err)
	}
	res, err := sys.Locate(5, "svc")
	if err != nil {
		t.Fatalf("Locate: %v", err)
	}
	if res.Addr != 1 && res.Addr != 9 {
		t.Fatalf("Addr = %d, want 1 or 9", res.Addr)
	}
	if err := srvB.Deregister(); err != nil {
		t.Fatalf("Deregister B: %v", err)
	}
	res, err = sys.Locate(5, "svc")
	if err != nil {
		t.Fatalf("Locate after B gone: %v", err)
	}
	if res.Addr != srvA.Node() {
		t.Fatalf("Addr = %d, want %d", res.Addr, srvA.Node())
	}
}

func TestCrashedRendezvousNodeBlocksUnlessRedundant(t *testing.T) {
	sys, gr := newGridSystem(t, 3, 3)
	if _, err := sys.RegisterServer("svc", gr.At(0, 0)); err != nil {
		t.Fatalf("RegisterServer: %v", err)
	}
	// Client at (2,1): rendezvous is the crossing (0,1). Crash it.
	if err := sys.Network().Crash(gr.At(0, 1)); err != nil {
		t.Fatalf("Crash: %v", err)
	}
	if _, err := sys.Locate(gr.At(2, 1), "svc"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("err = %v, want ErrNotFound (single rendezvous crashed)", err)
	}
	// A different client whose crossing survives still succeeds: client at
	// (2,2) meets the server's row at (0,2)... but the multicast up
	// column 2 does not pass the crashed (0,1).
	res, err := sys.Locate(gr.At(2, 2), "svc")
	if err != nil {
		t.Fatalf("Locate: %v", err)
	}
	if res.Addr != gr.At(0, 0) {
		t.Fatalf("Addr = %d, want %d", res.Addr, gr.At(0, 0))
	}
}

func TestRecoveryByRepost(t *testing.T) {
	sys, gr := newGridSystem(t, 3, 3)
	srv, err := sys.RegisterServer("svc", gr.At(1, 1))
	if err != nil {
		t.Fatalf("RegisterServer: %v", err)
	}
	// The rendezvous node reboots and loses its cache.
	sys.ClearCache(gr.At(1, 0))
	sys.ClearCache(gr.At(1, 1))
	sys.ClearCache(gr.At(1, 2))
	if _, err := sys.Locate(gr.At(0, 0), "svc"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("err = %v, want ErrNotFound after cache loss", err)
	}
	if err := srv.Repost(); err != nil {
		t.Fatalf("Repost: %v", err)
	}
	if _, err := sys.Locate(gr.At(0, 0), "svc"); err != nil {
		t.Fatalf("Locate after repost: %v", err)
	}
}

func TestLogicalCounters(t *testing.T) {
	sys, gr := newGridSystem(t, 3, 3)
	if _, err := sys.RegisterServer("svc", gr.At(0, 0)); err != nil {
		t.Fatalf("RegisterServer: %v", err)
	}
	if _, err := sys.Locate(gr.At(2, 2), "svc"); err != nil {
		t.Fatalf("Locate: %v", err)
	}
	posts, queries, replies := sys.Counters()
	if posts != 3 || queries != 3 || replies != 1 {
		t.Fatalf("counters = %d,%d,%d, want 3,3,1", posts, queries, replies)
	}
	sys.ResetCounters()
	posts, queries, replies = sys.Counters()
	if posts != 0 || queries != 0 || replies != 0 {
		t.Fatal("counters not reset")
	}
}

func TestGridLocateHopCost(t *testing.T) {
	// On a p×q grid one full register+locate costs about (q−1) post hops
	// + (p−1) query hops + reply distance: O(p+q), the §3.1 claim.
	sys, gr := newGridSystem(t, 5, 5)
	net := sys.Network()
	net.ResetCounters()
	if _, err := sys.RegisterServer("svc", gr.At(2, 2)); err != nil {
		t.Fatalf("RegisterServer: %v", err)
	}
	postHops := net.Hops()
	if postHops != 4 {
		t.Fatalf("post hops = %d, want q-1 = 4", postHops)
	}
	net.ResetCounters()
	if _, err := sys.Locate(gr.At(4, 0), "svc"); err != nil {
		t.Fatalf("Locate: %v", err)
	}
	// Query floods column 0 (p−1 = 4 hops); the reply returns from the
	// crossing (2,0) to the client (2 hops).
	if got := net.Hops(); got != 6 {
		t.Fatalf("locate hops = %d, want 6", got)
	}
}

func TestCacheCapacityEviction(t *testing.T) {
	// Capacity 2 caches discard the stalest posting, so the earliest
	// server vanishes from the central rendezvous.
	strat := rendezvous.Central(8, 0)
	net, err := sim.New(topology.Complete(8))
	if err != nil {
		t.Fatalf("sim.New: %v", err)
	}
	t.Cleanup(net.Close)
	sys, err := NewSystem(net, strat, Options{CacheCapacity: 2})
	if err != nil {
		t.Fatalf("NewSystem: %v", err)
	}
	for i, port := range []Port{"a", "b", "c"} {
		if _, err := sys.RegisterServer(port, graph.NodeID(i+1)); err != nil {
			t.Fatalf("RegisterServer %q: %v", port, err)
		}
	}
	if _, err := sys.Locate(5, "a"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("err = %v, want ErrNotFound (evicted)", err)
	}
	for _, port := range []Port{"b", "c"} {
		if _, err := sys.Locate(5, port); err != nil {
			t.Fatalf("Locate %q: %v", port, err)
		}
	}
}

func TestLocateOnDecompositionStrategy(t *testing.T) {
	// End-to-end over the generic §3 method on a random connected graph.
	g, err := topology.RandomConnected(36, 20, 5)
	if err != nil {
		t.Fatalf("RandomConnected: %v", err)
	}
	d, err := strategy.NewDecomposition(g)
	if err != nil {
		t.Fatalf("NewDecomposition: %v", err)
	}
	net, err := sim.New(g)
	if err != nil {
		t.Fatalf("sim.New: %v", err)
	}
	t.Cleanup(net.Close)
	sys, err := NewSystem(net, d.Strategy(), Options{})
	if err != nil {
		t.Fatalf("NewSystem: %v", err)
	}
	if _, err := sys.RegisterServer("svc", 7); err != nil {
		t.Fatalf("RegisterServer: %v", err)
	}
	for _, client := range []graph.NodeID{0, 13, 35} {
		res, err := sys.Locate(client, "svc")
		if err != nil {
			t.Fatalf("Locate from %d: %v", client, err)
		}
		if res.Addr != 7 {
			t.Fatalf("Addr = %d, want 7", res.Addr)
		}
	}
}

func TestLocateOnHypercube(t *testing.T) {
	h, err := topology.NewHypercube(4)
	if err != nil {
		t.Fatalf("NewHypercube: %v", err)
	}
	s, err := strategy.HalfCube(h)
	if err != nil {
		t.Fatalf("HalfCube: %v", err)
	}
	net, err := sim.New(h.G)
	if err != nil {
		t.Fatalf("sim.New: %v", err)
	}
	t.Cleanup(net.Close)
	sys, err := NewSystem(net, s, Options{})
	if err != nil {
		t.Fatalf("NewSystem: %v", err)
	}
	if _, err := sys.RegisterServer("svc", 0b1010); err != nil {
		t.Fatalf("RegisterServer: %v", err)
	}
	for client := 0; client < 16; client++ {
		res, err := sys.Locate(graph.NodeID(client), "svc")
		if err != nil {
			t.Fatalf("Locate from %04b: %v", client, err)
		}
		if res.Addr != 0b1010 {
			t.Fatalf("Addr = %d, want 10", res.Addr)
		}
	}
}
