package core_test

// The §1.5 and §2.1 contract of Shotgun Locate, checked on the engine
// that serves it: the coordinator over the simulator
// (cluster.SimTransport), whose every post, read and probe is a real
// hop-by-hop message, and the node caches it writes (cluster.Store).

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"sync"
	"testing"

	"matchmake/internal/cluster"
	"matchmake/internal/core"
	"matchmake/internal/graph"
	"matchmake/internal/rendezvous"
	"matchmake/internal/strategy"
	"matchmake/internal/topology"
)

func newTransport(t *testing.T, g *graph.Graph, strat rendezvous.Strategy) *cluster.SimTransport {
	t.Helper()
	tr, err := cluster.NewSimTransport(g, strat)
	if err != nil {
		t.Fatalf("NewSimTransport: %v", err)
	}
	t.Cleanup(func() { tr.Close() })
	return tr
}

func newGrid(t *testing.T, rows, cols int) (*cluster.SimTransport, *topology.Grid) {
	t.Helper()
	gr, err := topology.NewGrid(rows, cols)
	if err != nil {
		t.Fatalf("NewGrid: %v", err)
	}
	return newTransport(t, gr.G, strategy.Manhattan(gr)), gr
}

func newComplete(t *testing.T, n int, strat rendezvous.Strategy) *cluster.SimTransport {
	t.Helper()
	return newTransport(t, topology.Complete(n), strat)
}

func register(t *testing.T, tr cluster.Transport, port core.Port, node graph.NodeID) cluster.ServerRef {
	t.Helper()
	srv, err := tr.Register(port, node)
	if err != nil {
		t.Fatalf("Register %q at %d: %v", port, node, err)
	}
	return srv
}

// hops runs op and returns the message passes the network carried for
// it, failing unless they equal the coordinator's charge.
func hops(t *testing.T, tr *cluster.SimTransport, op func() error) int64 {
	t.Helper()
	tr.ResetPasses()
	before := tr.Hops()
	if err := op(); err != nil {
		t.Fatal(err)
	}
	h := tr.Hops() - before
	if h != tr.Passes() {
		t.Fatalf("charged %d passes, the network carried %d", tr.Passes(), h)
	}
	return h
}

// holders counts the nodes among vs whose cache answers port.
func holders(tr *cluster.SimTransport, vs []graph.NodeID, port core.Port) (n int) {
	for _, v := range vs {
		if _, ok := tr.Store().Get(v, port); ok {
			n++
		}
	}
	return n
}

// reboot crashes and restores v: the node loses its volatile cache.
func reboot(t *testing.T, tr cluster.Transport, vs ...graph.NodeID) {
	t.Helper()
	for _, v := range vs {
		if err := errors.Join(tr.Crash(v), tr.Restore(v)); err != nil {
			t.Fatal(err)
		}
	}
}

func TestRegisterAndLocateOnGrid(t *testing.T) {
	tr, gr := newGrid(t, 4, 4)
	serverNode, clientNode := gr.At(1, 2), gr.At(3, 0)
	srv := register(t, tr, "printer", serverNode)
	var e core.Entry
	// The query floods the client's column (3 hops) and exactly one
	// rendezvous, the row∩column crossing (1,0), replies (2 hops).
	got := hops(t, tr, func() (err error) { e, err = tr.Locate(clientNode, "printer"); return err })
	if e.Addr != serverNode || srv.Node() != serverNode {
		t.Fatalf("Addr = %d, Node = %d, want %d", e.Addr, srv.Node(), serverNode)
	}
	column := strategy.Manhattan(gr).Query(clientNode)
	if len(column) != 4 || holders(tr, column, "printer") != 1 || got != 5 {
		t.Fatalf("queried %d nodes, %d hold the entry, %d hops; want 4, 1, 5", len(column), holders(tr, column, "printer"), got)
	}
}

func TestLocateNotFound(t *testing.T) {
	tr, gr := newGrid(t, 3, 3)
	if _, err := tr.Locate(gr.At(0, 0), "missing"); !errors.Is(err, core.ErrNotFound) {
		t.Fatalf("err = %v, want ErrNotFound", err)
	}
}

func TestLocateInvalidClient(t *testing.T) {
	tr, _ := newGrid(t, 3, 3)
	if _, err := tr.Locate(99, "x"); !errors.Is(err, graph.ErrNodeRange) {
		t.Fatalf("err = %v, want ErrNodeRange", err)
	}
}

func TestRegisterInvalidNode(t *testing.T) {
	tr, _ := newGrid(t, 3, 3)
	if _, err := tr.Register("x", 99); !errors.Is(err, graph.ErrNodeRange) {
		t.Fatalf("err = %v, want ErrNodeRange", err)
	}
}

func TestNewSystemSizeMismatch(t *testing.T) {
	if tr, err := cluster.NewSimTransport(topology.Complete(4), rendezvous.Checkerboard(9)); err == nil {
		tr.Close()
		t.Fatal("size mismatch should fail")
	}
}

func TestCacheSizesAfterPosting(t *testing.T) {
	tr, gr := newGrid(t, 3, 3)
	register(t, tr, "db", gr.At(1, 1))
	// Manhattan posts along row 1: nodes (1,0),(1,1),(1,2) hold the entry.
	total := 0
	for v := range gr.G.N() {
		r, _ := gr.RowCol(graph.NodeID(v))
		got := tr.Store().NodeSize(graph.NodeID(v))
		if want := map[bool]int{true: 1}[r == 1]; got != want {
			t.Fatalf("cache at %d = %d, want %d", v, got, want)
		}
		total += got
	}
	if total != 3 {
		t.Fatalf("total cached entries = %d, want 3", total)
	}
}

func TestDeregisterTombstones(t *testing.T) {
	tr, gr := newGrid(t, 3, 3)
	srv := register(t, tr, "cat", gr.At(0, 0))
	if err := srv.Deregister(); err != nil {
		t.Fatalf("Deregister: %v", err)
	}
	if _, err := tr.Locate(gr.At(2, 2), "cat"); !errors.Is(err, core.ErrNotFound) {
		t.Fatalf("err = %v, want ErrNotFound after deregister", err)
	}
	// Tombstoned entries no longer count as cached services.
	if got := tr.Store().NodeSize(gr.At(0, 0)); got != 0 {
		t.Fatalf("cache = %d, want 0 after tombstone", got)
	}
	if err := srv.Deregister(); !errors.Is(err, core.ErrServerGone) {
		t.Fatalf("err = %v, want ErrServerGone", err)
	}
	if err := srv.Repost(); !errors.Is(err, core.ErrServerGone) {
		t.Fatalf("Repost err = %v, want ErrServerGone", err)
	}
}

func TestMigrateSupersedesStaleAddress(t *testing.T) {
	tr, gr := newGrid(t, 4, 4)
	srv := register(t, tr, "fileserver", gr.At(0, 0))
	newHome := gr.At(3, 3)
	if err := srv.Migrate(newHome); err != nil {
		t.Fatalf("Migrate: %v", err)
	}
	if srv.Node() != newHome {
		t.Fatalf("Node = %d, want %d", srv.Node(), newHome)
	}
	// Every client column crosses both the old and the new row; the
	// fresh entry must win.
	for c := 0; c < 4; c++ {
		e, err := tr.Locate(gr.At(1, c), "fileserver")
		if err != nil || e.Addr != newHome {
			t.Fatalf("Locate from column %d = %d, %v; want %d", c, e.Addr, err, newHome)
		}
	}
}

// TestStalePostingsNeverWin: with a migrated server's stale postings
// still live at its old rendezvous nodes (the old host was down, so no
// tombstone went out), every locate answers with the new address — the
// freshest of all the replies — and the network carries exactly the
// replies the coordinator charged for.
func TestStalePostingsNeverWin(t *testing.T) {
	tr, gr := newGrid(t, 4, 4)
	oldHome, newHome := gr.At(0, 0), gr.At(3, 3)
	srv := register(t, tr, "fileserver", oldHome)
	if err := tr.Crash(oldHome); err != nil {
		t.Fatal(err)
	}
	if err := srv.Migrate(newHome); err != nil {
		t.Fatalf("Migrate: %v", err)
	}
	if err := tr.Restore(oldHome); err != nil {
		t.Fatal(err)
	}
	strat := strategy.Manhattan(gr)
	for i := 0; i < 1000; i++ {
		client := graph.NodeID(i % 16)
		var e core.Entry
		hops(t, tr, func() (err error) { e, err = tr.Locate(client, "fileserver"); return err })
		if e.Addr != newHome {
			t.Fatalf("locate %d from %d: Addr = %d, want the new address %d", i, client, e.Addr, newHome)
		}
		// The old home's crash cost it its rows; every other crossing
		// of row 0 still holds the stale posting.
		if _, c := gr.RowCol(client); c != 0 && holders(tr, strat.Query(client), "fileserver") != 2 {
			t.Fatalf("locate %d from %d: want one stale and one fresh holder", i, client)
		}
	}
}

func TestMigrateToInvalidNode(t *testing.T) {
	tr, gr := newGrid(t, 3, 3)
	srv := register(t, tr, "x", gr.At(0, 0))
	if err := srv.Migrate(99); !errors.Is(err, graph.ErrNodeRange) {
		t.Fatalf("err = %v, want ErrNodeRange", err)
	}
}

func TestMultipleServersSamePort(t *testing.T) {
	// Two equivalent server processes for one service: a client finds one
	// of them; deregistering one leaves the other locatable.
	tr := newComplete(t, 16, rendezvous.Checkerboard(16))
	srvA := register(t, tr, "svc", 1)
	srvB := register(t, tr, "svc", 9)
	e, err := tr.Locate(5, "svc")
	if err != nil || e.Addr != 1 && e.Addr != 9 {
		t.Fatalf("Locate = %d, %v; want 1 or 9", e.Addr, err)
	}
	if err := srvB.Deregister(); err != nil {
		t.Fatalf("Deregister B: %v", err)
	}
	if e, err = tr.Locate(5, "svc"); err != nil || e.Addr != srvA.Node() {
		t.Fatalf("Locate after B gone = %d, %v; want %d", e.Addr, err, srvA.Node())
	}
}

func TestCrashedRendezvousNodeBlocksUnlessRedundant(t *testing.T) {
	tr, gr := newGrid(t, 3, 3)
	register(t, tr, "svc", gr.At(0, 0))
	// Client at (2,1): rendezvous is the crossing (0,1). Crash it.
	if err := tr.Crash(gr.At(0, 1)); err != nil {
		t.Fatalf("Crash: %v", err)
	}
	if _, err := tr.Locate(gr.At(2, 1), "svc"); !errors.Is(err, core.ErrNotFound) {
		t.Fatalf("err = %v, want ErrNotFound (single rendezvous crashed)", err)
	}
	// A client whose crossing survives still succeeds.
	if e, err := tr.Locate(gr.At(2, 2), "svc"); err != nil || e.Addr != gr.At(0, 0) {
		t.Fatalf("Locate = %d, %v; want %d", e.Addr, err, gr.At(0, 0))
	}
}

func TestRecoveryByRepost(t *testing.T) {
	tr, gr := newGrid(t, 3, 3)
	srv := register(t, tr, "svc", gr.At(1, 1))
	// The rendezvous nodes reboot and lose their caches.
	reboot(t, tr, gr.At(1, 0), gr.At(1, 1), gr.At(1, 2))
	if _, err := tr.Locate(gr.At(0, 0), "svc"); !errors.Is(err, core.ErrNotFound) {
		t.Fatalf("err = %v, want ErrNotFound after cache loss", err)
	}
	if err := srv.Repost(); err != nil {
		t.Fatalf("Repost: %v", err)
	}
	if _, err := tr.Locate(gr.At(0, 0), "svc"); err != nil {
		t.Fatalf("Locate after repost: %v", err)
	}
}

// TestLogicalCounters: the coordinator's charge is the message count of
// each operation — the posting row, the query column and the one reply
// — and ResetPasses zeroes it.
func TestLogicalCounters(t *testing.T) {
	tr, gr := newGrid(t, 3, 3)
	if got := hops(t, tr, func() error { _, err := tr.Register("svc", gr.At(0, 0)); return err }); got != 2 {
		t.Fatalf("post = %d passes, want 2", got)
	}
	if got := hops(t, tr, func() error { _, err := tr.Locate(gr.At(2, 2), "svc"); return err }); got != 4 {
		t.Fatalf("locate = %d passes, want 2 + 2", got)
	}
	if tr.ResetPasses(); tr.Passes() != 0 {
		t.Fatal("passes not reset")
	}
}

func TestGridLocateHopCost(t *testing.T) {
	// On a p×q grid one full register+locate costs (q−1) post hops +
	// (p−1) query hops + reply distance: O(p+q), the §3.1 claim.
	tr, gr := newGrid(t, 5, 5)
	if got := hops(t, tr, func() error { _, err := tr.Register("svc", gr.At(2, 2)); return err }); got != 4 {
		t.Fatalf("post hops = %d, want q-1 = 4", got)
	}
	// Query floods column 0 (p−1 = 4 hops); the reply returns from the
	// crossing (2,0) to the client (2 hops).
	if got := hops(t, tr, func() error { _, err := tr.Locate(gr.At(4, 0), "svc"); return err }); got != 6 {
		t.Fatalf("locate hops = %d, want 6", got)
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
	tr := newTransport(t, g, d.Strategy())
	register(t, tr, "svc", 7)
	for _, client := range []graph.NodeID{0, 13, 35} {
		var e core.Entry
		hops(t, tr, func() (err error) { e, err = tr.Locate(client, "svc"); return err })
		if e.Addr != 7 {
			t.Fatalf("Addr from %d = %d, want 7", client, e.Addr)
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
	tr := newTransport(t, h.G, s)
	register(t, tr, "svc", 0b1010)
	for client := range graph.NodeID(16) {
		var e core.Entry
		hops(t, tr, func() (err error) { e, err = tr.Locate(client, "svc"); return err })
		if e.Addr != 0b1010 {
			t.Fatalf("Addr from %04b = %d, want 10", client, e.Addr)
		}
	}
}

// The §2.1 cache rules on one node's rows: timestamp supersession and
// per-instance tombstones.

func TestCacheSupersedeOutOfOrder(t *testing.T) {
	s := cluster.NewStore(1, 0)
	// Deliveries can arrive in any order; only timestamps decide.
	s.Put(0, core.Entry{Port: "p", Addr: 2, ServerID: 1, Time: 9, Active: true})
	s.Put(0, core.Entry{Port: "p", Addr: 1, ServerID: 1, Time: 5, Active: true})
	if e, ok := s.Get(0, "p"); !ok || e.Addr != 2 || e.Time != 9 {
		t.Fatalf("get = %+v, %v; want addr 2 at time 9", e, ok)
	}
	// A stale tombstone must not kill a fresher live posting…
	s.Put(0, core.Entry{Port: "p", Addr: 1, ServerID: 1, Time: 7})
	if e, ok := s.Get(0, "p"); !ok || e.Addr != 2 {
		t.Fatalf("stale tombstone won: %+v, %v", e, ok)
	}
	// …but a fresher tombstone must.
	s.Put(0, core.Entry{Port: "p", Addr: 2, ServerID: 1, Time: 10})
	if e, ok := s.Get(0, "p"); ok {
		t.Fatalf("fresher tombstone ignored: %+v", e)
	}
	// Tombstoned instances do not count as cached services.
	if n := s.NodeSize(0); n != 0 {
		t.Fatalf("size = %d; want 0", n)
	}
}

func TestCacheTombstonePerInstance(t *testing.T) {
	s := cluster.NewStore(1, 0)
	s.Put(0, core.Entry{Port: "p", Addr: 1, ServerID: 1, Time: 1, Active: true})
	s.Put(0, core.Entry{Port: "p", Addr: 5, ServerID: 2, Time: 2, Active: true})
	// Killing instance 1 must leave instance 2 visible.
	s.Put(0, core.Entry{Port: "p", Addr: 1, ServerID: 1, Time: 3})
	if e, ok := s.Get(0, "p"); !ok || e.ServerID != 2 {
		t.Fatalf("get = %+v, %v; want instance 2", e, ok)
	}
	if all := s.GetAll(0, "p"); len(all) != 1 || all[0].ServerID != 2 {
		t.Fatalf("getAll = %v; want only instance 2", all)
	}
}

// TestCacheConcurrentPutTombstone hammers one node's rows with racing
// posts and tombstones for the same instance and checks the timestamp
// rule decided every port.
func TestCacheConcurrentPutTombstone(t *testing.T) {
	s := cluster.NewStore(1, 0)
	const ports, writers, rounds = 8, 8, 400
	var wg sync.WaitGroup
	for w := range writers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 1; r <= rounds; r++ {
				p := core.Port(fmt.Sprintf("p%d", r%ports))
				// Even writers post, odd writers tombstone; timestamps
				// interleave across writers.
				s.Put(0, core.Entry{Port: p, Addr: graph.NodeID(w), ServerID: 7, Time: uint64(r*writers + w), Active: w%2 == 0})
				s.Get(0, p)
				s.GetAll(0, p)
				s.NodeSize(0)
			}
		}()
	}
	wg.Wait()
	// Per port, the winning timestamp is written by w = writers-1, which
	// is odd: the tombstone wins, so every port must be invisible.
	for i := range ports {
		p := core.Port(fmt.Sprintf("p%d", i))
		if e, ok := s.Get(0, p); ok {
			t.Fatalf("port %s: freshest write was a tombstone, got %+v", p, e)
		}
	}
}

// TestSystemConcurrentPostDeregisterLocate drives the engine with
// concurrent registrations, deregistrations and locates over the
// simulated network, for the race detector.
func TestSystemConcurrentPostDeregisterLocate(t *testing.T) {
	const n = 36
	tr := newComplete(t, n, rendezvous.Checkerboard(n))
	register(t, tr, "stable", 7)
	var wg sync.WaitGroup
	for w := range 4 {
		wg.Add(2)
		go func() { // a churner: register and deregister throwaway services
			defer wg.Done()
			port := core.Port(fmt.Sprintf("churn-%d", w))
			for i := range 30 {
				srv, err := tr.Register(port, graph.NodeID((w*9+i)%n))
				if err == nil {
					err = srv.Deregister()
				}
				if err != nil {
					t.Errorf("churn: %v", err)
					return
				}
			}
		}()
		go func() { // a locator: the stable service must never be lost
			defer wg.Done()
			for i := range 30 {
				if e, err := tr.Locate(graph.NodeID((w*5+i)%n), "stable"); err != nil || e.Addr != 7 {
					t.Errorf("locate stable = %d, %v; want 7", e.Addr, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	for w := range 4 {
		if _, err := tr.Locate(0, core.Port(fmt.Sprintf("churn-%d", w))); err == nil {
			t.Fatalf("churned port churn-%d still resolves", w)
		}
	}
}

// TestModelRandomOperationSequences drives the engine with random
// register / migrate / deregister / locate sequences and checks every
// locate against an oracle of which server is live where: a surviving
// client must find the current address of a surviving server, and must
// not find departed ones.
func TestModelRandomOperationSequences(t *testing.T) {
	for _, seed := range []uint64{1, 2, 3} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			const n, steps, ports = 36, 120, 4
			tr, _ := newGrid(t, 6, 6)
			rng := rand.New(rand.NewPCG(seed, seed*977))
			oracle := make(map[core.Port]cluster.ServerRef)
			for step := 0; step < steps; step++ {
				port := core.Port(fmt.Sprintf("p%d", rng.IntN(ports)))
				cur := oracle[port]
				var err error
				switch op := rng.IntN(10); {
				case op < 3 && cur == nil:
					oracle[port], err = tr.Register(port, graph.NodeID(rng.IntN(n)))
				case op >= 3 && op < 5 && cur != nil:
					err = cur.Migrate(graph.NodeID(rng.IntN(n)))
				case op == 5 && cur != nil:
					err = cur.Deregister()
					delete(oracle, port)
				case op >= 6:
					client := graph.NodeID(rng.IntN(n))
					e, lerr := tr.Locate(client, port)
					switch {
					case cur == nil && !errors.Is(lerr, core.ErrNotFound):
						t.Fatalf("step %d: locate departed %q = %d, %v", step, port, e.Addr, lerr)
					case cur != nil && (lerr != nil || e.Addr != cur.Node()):
						t.Fatalf("step %d: locate %q = %d, %v; oracle %d", step, port, e.Addr, lerr, cur.Node())
					}
				}
				if err != nil {
					t.Fatalf("step %d: %v", step, err)
				}
			}
		})
	}
}

func TestLocateAllFindsEveryInstance(t *testing.T) {
	tr := newComplete(t, 25, rendezvous.Checkerboard(25))
	nodes := []graph.NodeID{2, 11, 19}
	for _, node := range nodes {
		register(t, tr, "svc", node)
	}
	entries, err := tr.LocateAll(7, "svc")
	if err != nil {
		t.Fatalf("LocateAll: %v", err)
	}
	// The client column crosses every row block, so all three instances
	// must be visible.
	found := make(map[graph.NodeID]bool)
	for _, e := range entries {
		found[e.Addr] = true
	}
	if len(entries) != 3 || !found[2] || !found[11] || !found[19] {
		t.Fatalf("found %+v, want the instances at %v", entries, nodes)
	}
}

func TestLocateAllNotFound(t *testing.T) {
	tr := newComplete(t, 16, rendezvous.Checkerboard(16))
	if _, err := tr.LocateAll(3, "ghost"); !errors.Is(err, core.ErrNotFound) {
		t.Fatalf("err = %v, want ErrNotFound", err)
	}
	if _, err := tr.LocateAll(99, "x"); !errors.Is(err, graph.ErrNodeRange) {
		t.Fatalf("err = %v, want ErrNodeRange", err)
	}
}

// TestLocateNearestPrefersClosest: on a line with instances at both
// ends, locate-all shows every client both, and the nearer is its own
// side (service.Registry.InvokeNearest picks it by routing distance).
func TestLocateNearestPrefersClosest(t *testing.T) {
	g, err := topology.Line(9)
	if err != nil {
		t.Fatalf("Line: %v", err)
	}
	// Sweep posts everywhere, so every node sees both instances.
	tr := newTransport(t, g, rendezvous.Sweep(9))
	register(t, tr, "svc", 0)
	register(t, tr, "svc", 8)
	for client, want := range map[graph.NodeID]graph.NodeID{1: 0, 7: 8} {
		entries, err := tr.LocateAll(client, "svc")
		if err != nil || len(entries) != 2 {
			t.Fatalf("LocateAll from %d = %v, %v; want both instances", client, entries, err)
		}
		nearest := entries[0].Addr
		if d := func(v graph.NodeID) int { return max(int(v-client), int(client-v)) }; d(entries[1].Addr) < d(nearest) {
			nearest = entries[1].Addr
		}
		if nearest != want {
			t.Fatalf("client %d nearest = %d, want %d", client, nearest, want)
		}
	}
}

// The §5 maintenance: a server polls its rendezvous nodes — how many of
// P(home) still hold its live posting — and re-posts when too few do.

func TestPollRendezvous(t *testing.T) {
	tr, gr := newGrid(t, 3, 3)
	register(t, tr, "svc", gr.At(1, 1))
	row := strategy.Manhattan(gr).Post(gr.At(1, 1))
	if live := holders(tr, row, "svc"); live != 3 || len(row) != 3 {
		t.Fatalf("poll = %d/%d, want 3/3", live, len(row))
	}
	// A rendezvous reboot loses the entry.
	reboot(t, tr, gr.At(1, 0))
	if live := holders(tr, row, "svc"); live != 2 {
		t.Fatalf("poll after reboot = %d, want 2", live)
	}
	// A crashed rendezvous counts as not live.
	if err := tr.Crash(gr.At(1, 2)); err != nil {
		t.Fatalf("Crash: %v", err)
	}
	if live := holders(tr, row, "svc"); live != 1 {
		t.Fatalf("poll after crash = %d, want 1", live)
	}
}

func TestMaintainRendezvousReposts(t *testing.T) {
	tr, gr := newGrid(t, 3, 3)
	srv := register(t, tr, "svc", gr.At(0, 0))
	row := strategy.Manhattan(gr).Post(gr.At(0, 0))
	// Two rendezvous reboots drop below threshold; a repost self-heals.
	reboot(t, tr, gr.At(0, 1), gr.At(0, 2))
	if live := holders(tr, row, "svc"); live != 1 {
		t.Fatalf("live after reboots = %d, want 1", live)
	}
	if err := srv.Repost(); err != nil {
		t.Fatalf("Repost: %v", err)
	}
	if live := holders(tr, row, "svc"); live != 3 {
		t.Fatalf("live after repost = %d, want 3", live)
	}
	// Deregistered servers cannot be maintained.
	if err := srv.Deregister(); err != nil {
		t.Fatalf("Deregister: %v", err)
	}
	if err := srv.Repost(); !errors.Is(err, core.ErrServerGone) {
		t.Fatalf("err = %v, want ErrServerGone", err)
	}
}

func TestPollAfterDeregister(t *testing.T) {
	tr, gr := newGrid(t, 3, 3)
	srv := register(t, tr, "svc", gr.At(0, 0))
	if err := srv.Deregister(); err != nil {
		t.Fatalf("Deregister: %v", err)
	}
	if live := holders(tr, strategy.Manhattan(gr).Post(gr.At(0, 0)), "svc"); live != 0 {
		t.Fatalf("poll after deregister = %d, want 0", live)
	}
}

func TestMigrateFromCrashedHost(t *testing.T) {
	// The old host dies; the tombstone cannot be posted from it, but the
	// fresh posting's newer timestamp must still win wherever both are
	// seen, so migration succeeds.
	tr, gr := newGrid(t, 4, 4)
	srv := register(t, tr, "svc", gr.At(0, 0))
	if err := tr.Crash(gr.At(0, 0)); err != nil {
		t.Fatalf("Crash: %v", err)
	}
	if err := srv.Migrate(gr.At(3, 3)); err != nil {
		t.Fatalf("Migrate from crashed host: %v", err)
	}
	if e, err := tr.Locate(gr.At(1, 1), "svc"); err != nil || e.Addr != gr.At(3, 3) {
		t.Fatalf("Locate = %d, %v; want %d", e.Addr, err, gr.At(3, 3))
	}
}

// TestLocateSurvivesCrashAfterRoutingRebuild: a crash is the
// coordinator's endpoint mark — the node stops posting and answering and
// loses its cache — so a live rendezvous node reached through a crashed
// interior node still answers, without waiting for the routing to
// reconverge.
func TestLocateSurvivesCrashAfterRoutingRebuild(t *testing.T) {
	tr, gr := newGrid(t, 3, 3)
	register(t, tr, "svc", gr.At(0, 2))
	// Client at (2,0) floods column 0; the rendezvous is the crossing
	// (0,0). Crash (1,0), the hop between client and rendezvous.
	if err := tr.Crash(gr.At(1, 0)); err != nil {
		t.Fatalf("Crash: %v", err)
	}
	if e, err := tr.Locate(gr.At(2, 0), "svc"); err != nil || e.Addr != gr.At(0, 2) {
		t.Fatalf("Locate = %d, %v; want %d", e.Addr, err, gr.At(0, 2))
	}
}
