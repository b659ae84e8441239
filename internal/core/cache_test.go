package core

import (
	"fmt"
	"sync"
	"testing"

	"matchmake/internal/graph"
	"matchmake/internal/rendezvous"
	"matchmake/internal/sim"
	"matchmake/internal/topology"
)

// White-box tests for the per-node cache's §2.1 semantics — timestamp
// supersession and tombstones — under concurrent posting.

func TestCacheSupersedeOutOfOrder(t *testing.T) {
	c := newCache(0)
	// Deliveries can arrive in any order; only timestamps decide.
	c.put(Entry{Port: "p", Addr: 2, ServerID: 1, Time: 9, Active: true})
	c.put(Entry{Port: "p", Addr: 1, ServerID: 1, Time: 5, Active: true})
	e, ok := c.get("p")
	if !ok || e.Addr != 2 || e.Time != 9 {
		t.Fatalf("get = %+v, %v; want addr 2 at time 9", e, ok)
	}
	// A stale tombstone must not kill a fresher live posting…
	c.put(Entry{Port: "p", Addr: 1, ServerID: 1, Time: 7, Active: false})
	if e, ok := c.get("p"); !ok || e.Addr != 2 {
		t.Fatalf("stale tombstone won: %+v, %v", e, ok)
	}
	// …but a fresher tombstone must.
	c.put(Entry{Port: "p", Addr: 2, ServerID: 1, Time: 10, Active: false})
	if e, ok := c.get("p"); ok {
		t.Fatalf("fresher tombstone ignored: %+v", e)
	}
	// Tombstoned instances do not count as cached services.
	if n := c.size(); n != 0 {
		t.Fatalf("size = %d; want 0", n)
	}
}

func TestCacheTombstonePerInstance(t *testing.T) {
	c := newCache(0)
	c.put(Entry{Port: "p", Addr: 1, ServerID: 1, Time: 1, Active: true})
	c.put(Entry{Port: "p", Addr: 5, ServerID: 2, Time: 2, Active: true})
	// Killing instance 1 must leave instance 2 visible.
	c.put(Entry{Port: "p", Addr: 1, ServerID: 1, Time: 3, Active: false})
	e, ok := c.get("p")
	if !ok || e.ServerID != 2 {
		t.Fatalf("get = %+v, %v; want instance 2", e, ok)
	}
	if all := c.getAll("p"); len(all) != 1 || all[0].ServerID != 2 {
		t.Fatalf("getAll = %v; want only instance 2", all)
	}
}

// TestCacheConcurrentPutTombstone hammers one cache with racing posts
// and tombstones for the same instances and checks the timestamp rule
// decided every port: the entry with the highest timestamp (live or
// tombstone) must be what get reflects.
func TestCacheConcurrentPutTombstone(t *testing.T) {
	c := newCache(0)
	const (
		ports   = 8
		writers = 8
		rounds  = 400
	)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 1; r <= rounds; r++ {
				p := Port(fmt.Sprintf("p%d", r%ports))
				// Even writers post, odd writers tombstone; timestamps
				// interleave across writers.
				ts := uint64(r*writers + w)
				c.put(Entry{
					Port: p, Addr: graph.NodeID(w), ServerID: 7,
					Time: ts, Active: w%2 == 0,
				})
				c.get(p)
				c.getAll(p)
				c.size()
			}
		}(w)
	}
	wg.Wait()
	// Per port, the winning timestamp is rounds*writers + w for the
	// largest w that wrote it; w = writers-1 is odd → tombstone wins,
	// so every port must have converged to invisible.
	for i := 0; i < ports; i++ {
		p := Port(fmt.Sprintf("p%d", i))
		if e, ok := c.get(p); ok {
			t.Fatalf("port %s: freshest write was a tombstone, got %+v", p, e)
		}
	}
}

// TestCacheConcurrentEviction checks the capacity bound holds (and
// nothing corrupts) when many goroutines insert distinct instances into
// a bounded cache.
func TestCacheConcurrentEviction(t *testing.T) {
	const capacity = 16
	c := newCache(capacity)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				c.put(Entry{
					Port: Port(fmt.Sprintf("p%d", w)), Addr: 0,
					ServerID: uint64(w*1000 + i), Time: uint64(w*1000 + i + 1),
					Active: true,
				})
			}
		}(w)
	}
	wg.Wait()
	c.mu.Lock()
	total := c.total
	c.mu.Unlock()
	if total > capacity {
		t.Fatalf("cache holds %d instances; capacity %d", total, capacity)
	}
}

// TestSystemConcurrentPostDeregisterLocate drives the full engine —
// concurrent registrations, deregistrations and locates over a real
// simulated network — to exercise the cache merge paths end to end
// under the race detector.
func TestSystemConcurrentPostDeregisterLocate(t *testing.T) {
	const n = 36
	net, err := sim.New(topology.Complete(n))
	if err != nil {
		t.Fatal(err)
	}
	defer net.Close()
	sys, err := NewSystem(net, rendezvous.Checkerboard(n), Options{})
	if err != nil {
		t.Fatal(err)
	}

	// A stable service that must remain locatable throughout.
	if _, err := sys.RegisterServer("stable", 7); err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	// Churners: register and immediately deregister throwaway services.
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			port := Port(fmt.Sprintf("churn-%d", w))
			for i := 0; i < 30; i++ {
				srv, err := sys.RegisterServer(port, graph.NodeID((w*9+i)%n))
				if err != nil {
					t.Errorf("register: %v", err)
					return
				}
				if err := srv.Deregister(); err != nil {
					t.Errorf("deregister: %v", err)
					return
				}
			}
		}(w)
	}
	// Locators: the stable service must never be lost.
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 30; i++ {
				res, err := sys.Locate(graph.NodeID((w*5+i)%n), "stable")
				if err != nil {
					t.Errorf("locate stable: %v", err)
					return
				}
				if res.Addr != 7 {
					t.Errorf("locate stable = %d; want 7", res.Addr)
					return
				}
			}
		}(w)
	}
	wg.Wait()

	// All churned ports must have converged to tombstones everywhere.
	for w := 0; w < 4; w++ {
		port := Port(fmt.Sprintf("churn-%d", w))
		if _, err := sys.Locate(0, port); err == nil {
			t.Fatalf("churned port %s still resolves", port)
		}
	}
}
