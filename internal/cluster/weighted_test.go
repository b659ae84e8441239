package cluster

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"matchmake/internal/core"
	"matchmake/internal/graph"
	"matchmake/internal/rendezvous"
	"matchmake/internal/topology"
)

func newWeightedTransport(t *testing.T, n int) *MemTransport {
	t.Helper()
	g, lay, err := buildWorld([]string{"complete", fmt.Sprint(n), "weighted"})
	if err != nil {
		t.Fatal(err)
	}
	tr := must(NewLayoutMemTransport(g, lay, 0))
	return tr
}

// TestWeightedPromotion checks the (M3′) trade end to end: promoting a
// hot port reposts its servers under the union sets, keeps every answer
// the model's, and makes its locates strictly cheaper than under the
// balanced base strategy while the cold port's cost stays put.
func TestWeightedPromotion(t *testing.T) {
	r := runHistory(t, "world complete 64 weighted\ncolumns model mem\nregister hot 9\nregister cold 21")
	cost := func(port string) (sum int64) {
		r.more("locate 0-63 " + port)
		for _, c := range r.last[1] {
			sum += c.cost
		}
		return sum
	}
	baseHot, baseCold := cost("hot"), cost("cold")
	r.more("set-hot-ports hot")
	if hot, cold := cost("hot"), cost("cold"); hot >= baseHot || cold != baseCold {
		t.Fatalf("hot port cost %d after promotion, %d before; cold port %d after, %d before", hot, baseHot, cold, baseCold)
	}
}

// TestWeightedChurnAfterDemotion checks the sticky-union tombstone
// protocol: a port that was hot keeps posting (and tombstoning) the
// union sets after demotion, so no query set can see a stale active
// entry of a migrated or deregistered server.
func TestWeightedChurnAfterDemotion(t *testing.T) {
	runHistory(t, `
world complete 64 weighted
columns model mem
register svc 9
set-hot-ports svc
set-hot-ports
migrate svc 33
locate 0-63/3 svc
deregister svc
locate 0-63/3 svc`)
}

// TestWeightedRegisterDuringHot checks that a server registered while
// its port is already hot posts the union sets immediately.
func TestWeightedRegisterDuringHot(t *testing.T) {
	runHistory(t, "world complete 64 weighted\ncolumns model mem\nregister svc 3\nset-hot-ports svc\nregister svc 40\nlocate 0-63/7 svc")
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
		must(c.Register(names[p], graph.NodeID(p*11)))
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
	tr := must(NewMemTransport(topology.Complete(16), rendezvous.Checkerboard(16), 0))
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
		must(tr.Register(names[p], graph.NodeID(p*9)))
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
