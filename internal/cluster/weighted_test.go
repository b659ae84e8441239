package cluster

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"matchmake/internal/core"
	"matchmake/internal/graph"
	"matchmake/internal/rendezvous"
	"matchmake/internal/strategy"
	"matchmake/internal/topology"
)

func newWeightedTransport(t *testing.T, n int) *MemTransport {
	t.Helper()
	hot, err := strategy.PostHeavy(n, strategy.AlphaQuerySize(n, 16))
	if err != nil {
		t.Fatal(err)
	}
	w, err := strategy.NewWeighted(rendezvous.Checkerboard(n), hot)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := NewLayoutMemTransport(topology.Complete(n), weightedOf(t, w), 0)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// TestWeightedPromotion checks the (M3′) trade end to end: promoting a
// hot port reposts its servers under the union sets, keeps every answer
// identical, and makes its locates strictly cheaper than under the
// balanced base strategy.
func TestWeightedPromotion(t *testing.T) {
	const n = 64
	tr := newWeightedTransport(t, n)
	if _, err := tr.Register("hot", 9); err != nil {
		t.Fatal(err)
	}
	if _, err := tr.Register("cold", 21); err != nil {
		t.Fatal(err)
	}

	costOf := func(port core.Port) int64 {
		var total int64
		for c := 0; c < n; c++ {
			before := tr.Passes()
			e, err := tr.Locate(graph.NodeID(c), port)
			if err != nil {
				t.Fatalf("locate %q from %d: %v", port, c, err)
			}
			wantAddr := graph.NodeID(9)
			if port == "cold" {
				wantAddr = 21
			}
			if e.Addr != wantAddr {
				t.Fatalf("locate %q from %d returned %d, want %d", port, c, e.Addr, wantAddr)
			}
			total += tr.Passes() - before
		}
		return total
	}

	baseHot := costOf("hot")
	baseCold := costOf("cold")
	if err := tr.SetHotPorts([]core.Port{"hot"}); err != nil {
		t.Fatal(err)
	}
	weightedHot := costOf("hot")
	weightedCold := costOf("cold")

	if weightedHot >= baseHot {
		t.Fatalf("hot port cost %d after promotion, %d before; want strictly cheaper", weightedHot, baseHot)
	}
	if weightedCold != baseCold {
		t.Fatalf("cold port cost changed: %d before, %d after", baseCold, weightedCold)
	}
}

// TestWeightedChurnAfterDemotion checks the sticky-union tombstone
// protocol: a port that was hot keeps posting (and tombstoning) the
// union sets after demotion, so no query set can see a stale active
// entry of a deregistered or migrated server.
func TestWeightedChurnAfterDemotion(t *testing.T) {
	const n = 64
	tr := newWeightedTransport(t, n)
	ref, err := tr.Register("svc", 9)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.SetHotPorts([]core.Port{"svc"}); err != nil {
		t.Fatal(err)
	}
	if err := tr.SetHotPorts(nil); err != nil { // demote
		t.Fatal(err)
	}
	if err := ref.Migrate(33); err != nil {
		t.Fatal(err)
	}
	for c := 0; c < n; c += 3 {
		e, err := tr.Locate(graph.NodeID(c), "svc")
		if err != nil {
			t.Fatalf("locate from %d: %v", c, err)
		}
		if e.Addr != 33 {
			t.Fatalf("locate from %d returned stale address %d, want 33", c, e.Addr)
		}
	}
	if err := ref.Deregister(); err != nil {
		t.Fatal(err)
	}
	for c := 0; c < n; c += 3 {
		if _, err := tr.Locate(graph.NodeID(c), "svc"); err == nil {
			t.Fatalf("locate from %d still resolves a deregistered server", c)
		}
	}
}

// TestWeightedRegisterDuringHot checks that a server registered while
// its port is already hot posts the union sets immediately.
func TestWeightedRegisterDuringHot(t *testing.T) {
	const n = 64
	tr := newWeightedTransport(t, n)
	if _, err := tr.Register("svc", 3); err != nil {
		t.Fatal(err)
	}
	if err := tr.SetHotPorts([]core.Port{"svc"}); err != nil {
		t.Fatal(err)
	}
	if _, err := tr.Register("svc", 40); err != nil {
		t.Fatal(err)
	}
	for c := 0; c < n; c += 7 {
		e, err := tr.Locate(graph.NodeID(c), "svc")
		if err != nil {
			t.Fatalf("locate from %d: %v", c, err)
		}
		if e.Addr != 40 {
			t.Fatalf("locate from %d returned %d, want the fresher 40", c, e.Addr)
		}
	}
}

// TestWeightedClusterLoop wires popularity counting and the
// reclassification loop through the Cluster: under a skewed workload
// the hot port is promoted and passes/locate drops.
func TestWeightedClusterLoop(t *testing.T) {
	const n = 64
	tr := newWeightedTransport(t, n)
	c := New(tr, Options{HotPorts: 1, HotRefresh: time.Hour, DisableCoalescing: true})
	defer c.Close()
	names := make([]core.Port, 4)
	for p := range names {
		names[p] = core.Port(fmt.Sprintf("svc-%04d", p))
		if _, err := c.Register(names[p], graph.NodeID(p*11)); err != nil {
			t.Fatal(err)
		}
	}
	c.ResetMetrics()
	// Skewed traffic: svc-0000 dominates.
	for i := 0; i < 200; i++ {
		port := names[0]
		if i%10 == 9 {
			port = names[1+i%3]
		}
		if _, err := c.Locate(graph.NodeID(i%n), port); err != nil {
			t.Fatal(err)
		}
	}
	before := c.Metrics().PassesPerLocate
	if err := c.ReclassifyHot(); err != nil {
		t.Fatal(err)
	}
	hot := tr.HotPorts()
	if len(hot) != 1 || hot[0] != names[0] {
		t.Fatalf("hot ports = %v, want [%s]", hot, names[0])
	}
	c.ResetMetrics()
	for i := 0; i < 200; i++ {
		port := names[0]
		if i%10 == 9 {
			port = names[1+i%3]
		}
		if _, err := c.Locate(graph.NodeID(i%n), port); err != nil {
			t.Fatal(err)
		}
	}
	after := c.Metrics().PassesPerLocate
	if after >= before {
		t.Fatalf("passes/locate %.2f after promotion, %.2f before; want strictly lower", after, before)
	}
}

// TestReclassifyWithoutWeighted checks the failure mode is loud: a
// plain MemTransport has the SetHotPorts method but no weighted
// strategy, so ReclassifyHot must error rather than tick in vain.
func TestReclassifyWithoutWeighted(t *testing.T) {
	tr, err := NewMemTransport(topology.Complete(16), rendezvous.Checkerboard(16), 0)
	if err != nil {
		t.Fatal(err)
	}
	c := New(tr, Options{HotPorts: 1, HotRefresh: time.Hour})
	defer c.Close()
	if err := c.ReclassifyHot(); err == nil {
		t.Fatal("ReclassifyHot on a non-weighted transport should fail")
	}
	if err := tr.SetHotPorts(nil); err == nil {
		t.Fatal("SetHotPorts on a non-weighted transport should fail")
	}
}

// TestWeightedConcurrentReclassify races locates, registrations and
// reclassification so the promotion protocol's locking is exercised
// under the race detector.
func TestWeightedConcurrentReclassify(t *testing.T) {
	const n = 64
	tr := newWeightedTransport(t, n)
	names := make([]core.Port, 6)
	for p := range names {
		names[p] = core.Port(fmt.Sprintf("svc-%04d", p))
		if _, err := tr.Register(names[p], graph.NodeID(p*9)); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 300; i++ {
				if _, err := tr.Locate(graph.NodeID((w+i)%n), names[i%len(names)]); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 20; i++ {
			_ = tr.SetHotPorts([]core.Port{names[i%len(names)]})
		}
		_ = tr.SetHotPorts(nil)
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 20; i++ {
			if _, err := tr.Register(names[i%len(names)], graph.NodeID((i*17)%n)); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()
}
