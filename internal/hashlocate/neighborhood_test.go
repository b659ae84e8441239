package hashlocate

import (
	"errors"
	"fmt"
	"testing"

	"matchmake/internal/core"
	"matchmake/internal/graph"
	"matchmake/internal/sim"
	"matchmake/internal/topology"
)

func newNeighborhood(t *testing.T, fanouts ...int) (*Neighborhood, *topology.Hierarchy) {
	t.Helper()
	h, err := topology.NewHierarchy(fanouts...)
	if err != nil {
		t.Fatalf("NewHierarchy: %v", err)
	}
	net, err := sim.New(h.G)
	if err != nil {
		t.Fatalf("sim.New: %v", err)
	}
	t.Cleanup(net.Close)
	nb, err := NewNeighborhood(net, h)
	if err != nil {
		t.Fatalf("NewNeighborhood: %v", err)
	}
	return nb, h
}

func TestNeighborhoodLocalResolvesAtLevelOne(t *testing.T) {
	nb, _ := newNeighborhood(t, 4, 4, 4)
	// Server and client in the same level-1 cluster (nodes 0..3).
	if _, err := nb.Post("printer", 1, 3); err != nil {
		t.Fatalf("Post: %v", err)
	}
	res, err := nb.Locate(2, "printer")
	if err != nil {
		t.Fatalf("Locate: %v", err)
	}
	if res.Addr != 1 {
		t.Fatalf("Addr = %d, want 1", res.Addr)
	}
	if res.Level != 1 {
		t.Fatalf("resolved at level %d, want 1 (local)", res.Level)
	}
	if res.Queried != 1 {
		t.Fatalf("queried %d rendezvous, want 1", res.Queried)
	}
}

func TestNeighborhoodClimbsToLCA(t *testing.T) {
	nb, h := newNeighborhood(t, 4, 4, 4)
	// Server at node 0, client at node 63: LCA level 3.
	if _, err := nb.Post("global-db", 0, Scope(h.Levels())); err != nil {
		t.Fatalf("Post: %v", err)
	}
	res, err := nb.Locate(63, "global-db")
	if err != nil {
		t.Fatalf("Locate: %v", err)
	}
	if res.Addr != 0 {
		t.Fatalf("Addr = %d, want 0", res.Addr)
	}
	if res.Level != 3 {
		t.Fatalf("resolved at level %d, want 3", res.Level)
	}
	// A client in the server's own cluster still resolves locally.
	res, err = nb.Locate(2, "global-db")
	if err != nil {
		t.Fatalf("Locate local: %v", err)
	}
	if res.Level != 1 {
		t.Fatalf("local client resolved at level %d, want 1", res.Level)
	}
}

func TestNeighborhoodScopeRestriction(t *testing.T) {
	nb, _ := newNeighborhood(t, 4, 4, 4)
	// "Operating System Service" is local-only: scope 1.
	if _, err := nb.Post("os", 5, 1); err != nil {
		t.Fatalf("Post: %v", err)
	}
	// Same cluster (nodes 4..7): found.
	res, err := nb.Locate(6, "os")
	if err != nil {
		t.Fatalf("Locate in scope: %v", err)
	}
	if res.Addr != 5 {
		t.Fatalf("Addr = %d, want 5", res.Addr)
	}
	// Outside the cluster: the service is invisible, as Amoeba intends.
	if _, err := nb.Locate(40, "os"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("err = %v, want ErrNotFound outside scope", err)
	}
}

func TestNeighborhoodScopeValidation(t *testing.T) {
	nb, h := newNeighborhood(t, 4, 4)
	if _, err := nb.Post("svc", 0, 0); !errors.Is(err, ErrBadScope) {
		t.Fatalf("err = %v, want ErrBadScope", err)
	}
	if _, err := nb.Post("svc", 0, Scope(h.Levels()+1)); !errors.Is(err, ErrBadScope) {
		t.Fatalf("err = %v, want ErrBadScope", err)
	}
	if _, err := nb.Post("svc", 99, 1); !errors.Is(err, graph.ErrNodeRange) {
		t.Fatalf("err = %v, want ErrNodeRange", err)
	}
	if _, err := nb.Locate(99, "svc"); !errors.Is(err, graph.ErrNodeRange) {
		t.Fatalf("err = %v, want ErrNodeRange", err)
	}
}

func TestNeighborhoodSizeMismatch(t *testing.T) {
	h, err := topology.NewHierarchy(2, 2)
	if err != nil {
		t.Fatalf("NewHierarchy: %v", err)
	}
	net, err := sim.New(topology.Complete(7))
	if err != nil {
		t.Fatalf("sim.New: %v", err)
	}
	defer net.Close()
	if _, err := NewNeighborhood(net, h); err == nil {
		t.Fatal("size mismatch should fail")
	}
}

func TestNeighborhoodRendezvousDeterministic(t *testing.T) {
	nb, _ := newNeighborhood(t, 4, 4)
	a, err := nb.RendezvousAt("svc", 5, 2)
	if err != nil {
		t.Fatalf("RendezvousAt: %v", err)
	}
	b, err := nb.RendezvousAt("svc", 9, 2)
	if err != nil {
		t.Fatalf("RendezvousAt: %v", err)
	}
	// Any two hosts in the same top cluster agree on the level-2
	// rendezvous — that shared node is what makes the match.
	if a != b {
		t.Fatalf("rendezvous differ: %d vs %d", a, b)
	}
}

func TestNeighborhoodLoadSpreadsByLevel(t *testing.T) {
	nb, h := newNeighborhood(t, 4, 4, 4)
	// Mostly-local service mix: 3 local services per cluster, a few
	// campus services, one global.
	for base := 0; base < h.N(); base += 4 {
		for k := 0; k < 3; k++ {
			port := corePort(base*10 + k)
			if _, err := nb.Post(port, graph.NodeID(base+k), 1); err != nil {
				t.Fatalf("Post local: %v", err)
			}
		}
	}
	for campus := 0; campus < 4; campus++ {
		if _, err := nb.Post(corePort(9000+campus), graph.NodeID(campus*16), 2); err != nil {
			t.Fatalf("Post campus: %v", err)
		}
	}
	if _, err := nb.Post("global", 0, 3); err != nil {
		t.Fatalf("Post global: %v", err)
	}
	load := nb.CacheLoadByLevel()
	total := 0
	for _, c := range load {
		total += c
	}
	// 48 local + 8 campus (two postings each... one per level) + 3 global.
	if total == 0 {
		t.Fatal("no cached entries")
	}
	// Local entries dominate and are NOT all sitting at the top level.
	if load[h.Levels()] >= total {
		t.Fatalf("all %d entries at the top level; load = %v", total, load)
	}
}

func corePort(i int) core.Port {
	return core.Port(fmt.Sprintf("port-%d", i))
}
