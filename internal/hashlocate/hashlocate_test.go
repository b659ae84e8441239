// Plain Hash Locate (§5, P = Q : Π → 2^U) is served by the cluster
// coordinator: a cluster.Layout with Hash set, over strategy.HashSet.
// These tests pin its §5 behaviour beside the neighborhood
// generalization this package implements.
package hashlocate_test

import (
	"errors"
	"fmt"
	"slices"
	"testing"

	"matchmake/internal/cluster"
	"matchmake/internal/core"
	"matchmake/internal/graph"
	"matchmake/internal/rendezvous"
	"matchmake/internal/strategy"
	"matchmake/internal/topology"
)

// newHash serves Hash Locate on the complete n-node network: each port
// hashed onto addrs addresses, tried in attempts rehash attempts.
func newHash(t *testing.T, n, addrs, attempts int) *cluster.SimTransport {
	t.Helper()
	lay, err := cluster.FixedLayout(n, rendezvous.Central(n, 0), attempts)
	if err != nil {
		t.Fatal(err)
	}
	lay.Hash = addrs
	tr, err := cluster.NewLayoutSimTransport(topology.Complete(n), lay)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { tr.Close() })
	return tr
}

func register(t *testing.T, tr *cluster.SimTransport, port core.Port, node graph.NodeID) cluster.ServerRef {
	t.Helper()
	ref, err := tr.Register(port, node)
	if err != nil {
		t.Fatalf("Register %q at %d: %v", port, node, err)
	}
	return ref
}

// outside returns the first node from v on, cyclically, in none of sets.
func outside(n int, v graph.NodeID, sets ...[]graph.NodeID) graph.NodeID {
	v %= graph.NodeID(n)
	for slices.ContainsFunc(sets, func(s []graph.NodeID) bool { return slices.Contains(s, v) }) {
		v = (v + 1) % graph.NodeID(n)
	}
	return v
}

func TestPostAndLocate(t *testing.T) {
	tr := newHash(t, 32, 1, 1)
	register(t, tr, "mail", 7)
	e, err := tr.Locate(21, "mail")
	if err != nil || e.Addr != 7 {
		t.Fatalf("Locate = %+v, %v; want the server at 7", e, err)
	}
}

func TestMatchCostIsTwoMessages(t *testing.T) {
	// §5: "clients and servers need only use one network node each in
	// every match-making" — on a complete network a post is one message
	// and a locate two (query + reply), each carried hop for hop.
	tr := newHash(t, 64, 1, 1)
	rv := strategy.HashSet("db", 0, 1, 64)
	server := outside(64, 3, rv)
	client := outside(64, server+1, rv, []graph.NodeID{server})
	for i, op := range []func() error{
		func() error { _, err := tr.Register("db", server); return err },
		func() error { _, err := tr.Locate(client, "db"); return err },
	} {
		tr.ResetPasses()
		hops := tr.Hops()
		if err := op(); err != nil || tr.Passes() != int64(i+1) || tr.Hops()-hops != tr.Passes() {
			t.Fatalf("op %d: charged %d passes, carried %d hops, %v; want %d", i, tr.Passes(), tr.Hops()-hops, err, i+1)
		}
	}
}

func TestLocateNotFound(t *testing.T) {
	tr := newHash(t, 16, 1, 1)
	if _, err := tr.Locate(3, "ghost"); !errors.Is(err, core.ErrNotFound) {
		t.Fatalf("err = %v, want ErrNotFound", err)
	}
}

func TestUnpost(t *testing.T) {
	tr := newHash(t, 16, 1, 1)
	if err := register(t, tr, "svc", 2).Deregister(); err != nil {
		t.Fatalf("Deregister: %v", err)
	}
	if _, err := tr.Locate(9, "svc"); !errors.Is(err, core.ErrNotFound) {
		t.Fatalf("err = %v, want ErrNotFound after deregistration", err)
	}
}

func TestCrashKillsServiceWithoutReplication(t *testing.T) {
	// The §5 fragility: crash the single rendezvous node and the service
	// is gone from the whole network.
	tr := newHash(t, 32, 1, 1)
	rv := strategy.HashSet("svc", 0, 1, 32)
	register(t, tr, "svc", (rv[0]+1)%32)
	if err := tr.Crash(rv[0]); err != nil {
		t.Fatal(err)
	}
	for client := range graph.NodeID(32) {
		if _, err := tr.Locate(client, "svc"); client != rv[0] && !errors.Is(err, core.ErrNotFound) {
			t.Fatalf("locate from %d: err = %v, want ErrNotFound after the rendezvous crash", client, err)
		}
	}
}

func TestReplicationSurvivesCrash(t *testing.T) {
	// First §5 mitigation: hash onto several addresses. One flood reaches
	// all three; the two live ones answer.
	tr := newHash(t, 32, 3, 1)
	rv := strategy.HashSet("svc", 0, 3, 32)
	server := outside(32, 0, rv)
	client := outside(32, server+1, rv)
	register(t, tr, "svc", server)
	if err := tr.Crash(rv[0]); err != nil {
		t.Fatal(err)
	}
	tr.ResetPasses()
	e, err := tr.Locate(client, "svc")
	if err != nil || e.Addr != server {
		t.Fatalf("Locate = %+v, %v; want the server at %d", e, err, server)
	}
	if got := tr.Passes(); got != 5 {
		t.Fatalf("locate charged %d passes, want 5 (a flood to 3 addresses, 2 replies)", got)
	}
}

func TestRehashRecovery(t *testing.T) {
	// Second §5 mitigation: when the primary rendezvous is down, client
	// and server meet at the backup address of rehash attempt 1. The
	// server posted there when it registered.
	tr := newHash(t, 32, 1, 3)
	primary := strategy.HashSet("svc", 0, 1, 32)
	backup := strategy.HashSet("svc", 1, 1, 32)
	if err := tr.Crash(primary[0]); err != nil {
		t.Fatal(err)
	}
	server := outside(32, primary[0]+1, primary, backup)
	client := outside(32, server+1, primary, backup)
	register(t, tr, "svc", server)
	if _, err := tr.LocateReplica(client, "svc", 0); !errors.Is(err, core.ErrNotFound) {
		t.Fatalf("attempt 0: err = %v, want ErrNotFound at the crashed primary", err)
	}
	if e, err := tr.LocateReplica(client, "svc", 1); err != nil || e.Addr != server {
		t.Fatalf("attempt 1 = %+v, %v; want the server at %d", e, err, server)
	}
	if e, err := tr.Locate(client, "svc"); err != nil || e.Addr != server {
		t.Fatalf("Locate = %+v, %v; want the server at %d", e, err, server)
	}
}

func TestPostAllRendezvousDown(t *testing.T) {
	// A server posts without polling its rendezvous nodes: with every
	// one of them down the post is accepted and charged its one message,
	// which the network drops, and the port stays unlocatable.
	tr := newHash(t, 8, 1, 1)
	rv := strategy.HashSet("svc", 0, 1, 8)
	if err := tr.Crash(rv[0]); err != nil {
		t.Fatal(err)
	}
	tr.ResetPasses()
	hops := tr.Hops()
	register(t, tr, "svc", (rv[0]+1)%8)
	if tr.Passes() != 1 || tr.Hops() != hops {
		t.Fatalf("post charged %d passes and carried %d hops, want 1 and 0", tr.Passes(), tr.Hops()-hops)
	}
	if _, err := tr.Locate((rv[0]+2)%8, "svc"); !errors.Is(err, core.ErrNotFound) {
		t.Fatalf("err = %v, want ErrNotFound", err)
	}
}

func TestLoadDistribution(t *testing.T) {
	// A well-chosen hash spreads many ports over the nodes: no node
	// should hold a large fraction of all entries.
	tr := newHash(t, 64, 1, 1)
	for i := range 256 {
		register(t, tr, core.Port(fmt.Sprintf("port-%d", i)), graph.NodeID(i%64))
	}
	total, maxSize := 0, 0
	for v := range graph.NodeID(64) {
		sz := tr.Store().NodeSize(v)
		total, maxSize = total+sz, max(maxSize, sz)
	}
	if total != 256 || maxSize > 20 {
		t.Fatalf("%d entries, at most %d on a node; want 256 and ≤ 20 (mean 4)", total, maxSize)
	}
}

func TestClearCache(t *testing.T) {
	// A rebooted rendezvous node has lost its entries: a crash drops its
	// cache, and restoring it brings nothing back.
	tr := newHash(t, 16, 1, 1)
	register(t, tr, "svc", 2)
	rv := strategy.HashSet("svc", 0, 1, 16)
	if err := tr.Crash(rv[0]); err != nil {
		t.Fatal(err)
	}
	if err := tr.Restore(rv[0]); err != nil {
		t.Fatal(err)
	}
	if _, err := tr.Locate(9, "svc"); !errors.Is(err, core.ErrNotFound) {
		t.Fatalf("err = %v, want ErrNotFound after the reboot", err)
	}
}

func TestInvalidNodes(t *testing.T) {
	tr := newHash(t, 8, 1, 1)
	if _, err := tr.Register("svc", 99); !errors.Is(err, graph.ErrNodeRange) {
		t.Fatalf("Register err = %v, want ErrNodeRange", err)
	}
	if _, err := tr.Locate(99, "svc"); !errors.Is(err, graph.ErrNodeRange) {
		t.Fatalf("Locate err = %v, want ErrNodeRange", err)
	}
}

func TestRendezvousDeterministic(t *testing.T) {
	// A posting lands exactly at the port's hash sets of every rehash
	// attempt, and nowhere else.
	tr := newHash(t, 32, 4, 2)
	register(t, tr, "some-port", 0)
	want := append(strategy.HashSet("some-port", 0, 4, 32), strategy.HashSet("some-port", 1, 4, 32)...)
	for v := range graph.NodeID(32) {
		if held := tr.Store().NodeSize(v) == 1; held != slices.Contains(want, v) {
			t.Fatalf("node %d holds the posting: %v; the hash sets are %v", v, held, want)
		}
	}
}

func TestHashLayoutRefusals(t *testing.T) {
	// Hash Locate is served at a fixed membership with no weighted
	// overlay, and a port needs at least one address.
	lay, err := cluster.FixedLayout(16, rendezvous.Checkerboard(16), 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, bad := range []cluster.Layout{{Epoch: lay.Epoch, Hash: 1, Elastic: true}, {Epoch: lay.Epoch, Hash: -1}} {
		if _, err := cluster.NewLayoutSimTransport(topology.Complete(16), bad); err == nil {
			t.Errorf("layout %+v was accepted", bad)
		}
	}
}
