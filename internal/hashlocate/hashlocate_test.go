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

func newSystem(t *testing.T, n int, opts Options) *System {
	t.Helper()
	net, err := sim.New(topology.Complete(n))
	if err != nil {
		t.Fatalf("sim.New: %v", err)
	}
	t.Cleanup(net.Close)
	s, err := New(net, opts)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return s
}

func TestPostAndLocate(t *testing.T) {
	s := newSystem(t, 32, Options{})
	if _, err := s.Post("mail", 7); err != nil {
		t.Fatalf("Post: %v", err)
	}
	res, err := s.Locate(21, "mail")
	if err != nil {
		t.Fatalf("Locate: %v", err)
	}
	if res.Addr != 7 {
		t.Fatalf("Addr = %d, want 7", res.Addr)
	}
	if res.Queried != 1 || res.Rehashes != 0 {
		t.Fatalf("Queried=%d Rehashes=%d, want 1,0", res.Queried, res.Rehashes)
	}
}

func TestMatchCostIsTwoMessages(t *testing.T) {
	// §5: "clients and servers need only use one network node each in
	// every match-making" — on a complete network one locate costs 2
	// hops (query + reply).
	s := newSystem(t, 64, Options{})
	if _, err := s.Post("db", 3); err != nil {
		t.Fatalf("Post: %v", err)
	}
	net := s.Network()
	net.ResetCounters()
	if _, err := s.Locate(40, "db"); err != nil {
		t.Fatalf("Locate: %v", err)
	}
	if got := net.Hops(); got != 2 {
		t.Fatalf("locate hops = %d, want 2", got)
	}
}

func TestLocateNotFound(t *testing.T) {
	s := newSystem(t, 16, Options{})
	if _, err := s.Locate(3, "ghost"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("err = %v, want ErrNotFound", err)
	}
}

func TestUnpost(t *testing.T) {
	s := newSystem(t, 16, Options{})
	if _, err := s.Post("svc", 2); err != nil {
		t.Fatalf("Post: %v", err)
	}
	if err := s.Unpost("svc", 2); err != nil {
		t.Fatalf("Unpost: %v", err)
	}
	if _, err := s.Locate(9, "svc"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("err = %v, want ErrNotFound after unpost", err)
	}
}

func TestCrashKillsServiceWithoutReplication(t *testing.T) {
	// The §5 fragility: crash the single rendezvous node and the service
	// is gone from the whole network.
	s := newSystem(t, 32, Options{})
	rv := s.Rendezvous("svc", 0)
	if len(rv) != 1 {
		t.Fatalf("rendezvous = %v, want 1 node", rv)
	}
	server := (rv[0] + 1) % 32
	client := (rv[0] + 2) % 32
	if _, err := s.Post("svc", server); err != nil {
		t.Fatalf("Post: %v", err)
	}
	if err := s.Network().Crash(rv[0]); err != nil {
		t.Fatalf("Crash: %v", err)
	}
	if _, err := s.Locate(client, "svc"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("err = %v, want ErrNotFound after rendezvous crash", err)
	}
}

func TestReplicationSurvivesCrash(t *testing.T) {
	// First §5 mitigation: hash onto several addresses.
	s := newSystem(t, 32, Options{Replicas: 3})
	rv := s.Rendezvous("svc", 0)
	if len(rv) != 3 {
		t.Fatalf("rendezvous = %v, want 3 nodes", rv)
	}
	server := freeNode(rv, 32)
	client := (server + 1) % 32
	for contains(rv, client) {
		client = (client + 1) % 32
	}
	if _, err := s.Post("svc", server); err != nil {
		t.Fatalf("Post: %v", err)
	}
	if err := s.Network().Crash(rv[0]); err != nil {
		t.Fatalf("Crash: %v", err)
	}
	res, err := s.Locate(client, "svc")
	if err != nil {
		t.Fatalf("Locate: %v", err)
	}
	if res.Addr != server {
		t.Fatalf("Addr = %d, want %d", res.Addr, server)
	}
	if res.Queried != 2 {
		t.Fatalf("Queried = %d, want 2 (first replica dead)", res.Queried)
	}
}

func TestRehashRecovery(t *testing.T) {
	// Second §5 mitigation: when the primary rendezvous is down, server
	// and client rehash onto the same backup address.
	s := newSystem(t, 32, Options{MaxRehash: 2})
	primary := s.Rendezvous("svc", 0)
	if err := s.Network().Crash(primary[0]); err != nil {
		t.Fatalf("Crash: %v", err)
	}
	server := (primary[0] + 1) % 32
	client := (primary[0] + 2) % 32
	if _, err := s.Post("svc", server); err != nil {
		t.Fatalf("Post with rehash: %v", err)
	}
	res, err := s.Locate(client, "svc")
	if err != nil {
		t.Fatalf("Locate with rehash: %v", err)
	}
	if res.Addr != server || res.Rehashes != 1 {
		t.Fatalf("Addr=%d Rehashes=%d, want %d,1", res.Addr, res.Rehashes, server)
	}
}

func TestPostAllRendezvousDown(t *testing.T) {
	s := newSystem(t, 8, Options{})
	rv := s.Rendezvous("svc", 0)
	if err := s.Network().Crash(rv[0]); err != nil {
		t.Fatalf("Crash: %v", err)
	}
	if _, err := s.Post("svc", (rv[0]+1)%8); err == nil {
		t.Fatal("post should fail with all rendezvous nodes down")
	}
}

func TestLoadDistribution(t *testing.T) {
	// A well-chosen hash spreads many ports over the nodes: no node
	// should hold a large fraction of all entries.
	s := newSystem(t, 64, Options{})
	for i := 0; i < 256; i++ {
		port := corePort(i)
		if _, err := s.Post(port, graph.NodeID(i%64)); err != nil {
			t.Fatalf("Post %q: %v", port, err)
		}
	}
	sizes := s.CacheSizes()
	total, maxSize := 0, 0
	for _, sz := range sizes {
		total += sz
		if sz > maxSize {
			maxSize = sz
		}
	}
	if total != 256 {
		t.Fatalf("total entries = %d, want 256", total)
	}
	if maxSize > 20 {
		t.Fatalf("max node load = %d, want ≤ 20 (mean 4)", maxSize)
	}
}

func TestClearCache(t *testing.T) {
	s := newSystem(t, 16, Options{})
	if _, err := s.Post("svc", 2); err != nil {
		t.Fatalf("Post: %v", err)
	}
	rv := s.Rendezvous("svc", 0)
	s.ClearCache(rv[0])
	if _, err := s.Locate(9, "svc"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("err = %v, want ErrNotFound after cache clear", err)
	}
}

func TestInvalidNodes(t *testing.T) {
	s := newSystem(t, 8, Options{})
	if _, err := s.Post("svc", 99); !errors.Is(err, graph.ErrNodeRange) {
		t.Fatalf("Post err = %v, want ErrNodeRange", err)
	}
	if _, err := s.Locate(99, "svc"); !errors.Is(err, graph.ErrNodeRange) {
		t.Fatalf("Locate err = %v, want ErrNodeRange", err)
	}
}

func TestRendezvousDeterministic(t *testing.T) {
	s := newSystem(t, 32, Options{Replicas: 4})
	a := s.Rendezvous("some-port", 1)
	b := s.Rendezvous("some-port", 1)
	if len(a) != 4 || len(b) != 4 {
		t.Fatalf("rendezvous sizes = %d,%d, want 4,4", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("rendezvous must be deterministic")
		}
	}
	// Distinct attempts should (almost always) differ.
	c := s.Rendezvous("some-port", 2)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
		}
	}
	if same {
		t.Fatal("rehash attempt produced identical rendezvous set")
	}
}

func corePort(i int) core.Port {
	return core.Port(fmt.Sprintf("port-%d", i))
}

// freeNode returns a node identifier not in used.
func freeNode(used []graph.NodeID, n int) graph.NodeID {
	for v := 0; v < n; v++ {
		if !contains(used, graph.NodeID(v)) {
			return graph.NodeID(v)
		}
	}
	return 0
}

func contains(s []graph.NodeID, v graph.NodeID) bool {
	for _, x := range s {
		if x == v {
			return true
		}
	}
	return false
}
