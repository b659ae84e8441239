package cluster

import (
	"fmt"
	"testing"

	"matchmake/internal/core"
	"matchmake/internal/rendezvous"
	"matchmake/internal/topology"
)

func newMemCluster(t *testing.T, n int, opts Options) (*Cluster, *MemTransport) {
	t.Helper()
	tr := must(NewMemTransport(topology.Complete(n), rendezvous.Checkerboard(n), 0))
	c := New(tr, opts)
	t.Cleanup(func() { c.Close() })
	return c, tr
}

// TestHintHitPath checks the fast path end to end: the first locate
// floods and caches, the second is served by a single probe charged
// 2×Dist(client, server) passes.
func TestHintHitPath(t *testing.T) {
	r := runHistory(t, "world grid 6 6\ncolumns model mem+hints\nregister svc 14\nlocate 3 svc\nlocate 3 svc")
	if got, want := r.last[1][0].cost, 2*int64(r.routing.Dist(3, 14)); got != want || r.cols[1].cl.Metrics().HintHits != 1 {
		t.Fatalf("hint hit charged %d passes, want 2×Dist = %d; metrics %+v", got, want, r.cols[1].cl.Metrics())
	}
}

// TestHintInvalidation drives each churn event and checks the hint is
// not served stale: the event bumps the port's generation, and the next
// locate answers exactly what the model and an unhinted transport do.
func TestHintInvalidation(t *testing.T) {
	for name, event := range map[string]string{"migrate": "migrate svc 11", "deregister": "deregister svc", "crash": "crash 3", "register": "register svc 9"} {
		t.Run(name, func(t *testing.T) {
			r := runHistory(t, "world complete 16\ncolumns model mem+hints mem\nregister svc 3\nlocate 7 svc")
			gen := r.cols[1].tr.Gen("svc")
			r.more(event + "\nlocate 7 svc")
			if r.cols[1].tr.Gen("svc") == gen {
				t.Fatalf("%s did not bump the port generation", name)
			}
			if m := r.cols[1].cl.Metrics(); name == "migrate" && m.HintStale == 0 {
				t.Fatalf("expected a stale-hint fallback, metrics: %+v", m)
			}
		})
	}
}

// TestHintCacheDeadSlot unit-tests the fail-fast protocol: a probe miss
// marks the slot dead, a flood that re-resolves to the same instance
// under the same generation keeps it dead, and either a new generation
// or a different winner revives it.
func TestHintCacheDeadSlot(t *testing.T) {
	h := newHintCache(4)
	e := core.Entry{Port: "svc", Addr: 3, ServerID: 7, Time: 1, Active: true}

	h.put(1, "svc", e, 5, nil, 0)
	sl, hv := h.lookup(1, "svc")
	if sl == nil || hv == nil || hv.dead {
		t.Fatalf("expected live hint, got %+v", hv)
	}
	h.markDead(sl, hv)
	if _, hv = h.lookup(1, "svc"); hv == nil || !hv.dead {
		t.Fatalf("expected dead hint, got %+v", hv)
	}
	// Same instance, same generation: stays dead.
	h.put(1, "svc", e, 5, nil, 0)
	if _, hv = h.lookup(1, "svc"); hv == nil || !hv.dead {
		t.Fatalf("same-gen same-server put revived a dead hint: %+v", hv)
	}
	// New generation revives.
	h.put(1, "svc", e, 6, nil, 0)
	if _, hv = h.lookup(1, "svc"); hv == nil || hv.dead {
		t.Fatalf("new-generation put did not revive: %+v", hv)
	}
	// Different winner under the old generation also revives.
	h.markDead(h.lookup(1, "svc"))
	e2 := e
	e2.Addr, e2.ServerID = 9, 8
	h.put(1, "svc", e2, 6, nil, 0)
	if _, hv = h.lookup(1, "svc"); hv == nil || hv.dead || hv.entry.Addr != 9 {
		t.Fatalf("different-winner put did not revive: %+v", hv)
	}
	// Out-of-range clients are ignored gracefully.
	h.put(99, "svc", e, 1, nil, 0)
	if sl, hv := h.lookup(99, "svc"); sl != nil || hv != nil {
		t.Fatal("out-of-range client produced a hint")
	}
}

// TestHintHitZeroAllocs pins the acceptance criterion: the hint-hit
// locate path allocates nothing.
func TestHintHitZeroAllocs(t *testing.T) {
	c, _ := newMemCluster(t, 64, Options{Hints: true})
	must(c.Register("svc", 9))
	if _, err := c.Locate(2, "svc"); err != nil {
		t.Fatal(err) // prime the hint
	}
	allocs := testing.AllocsPerRun(1000, func() {
		if _, err := c.Locate(2, "svc"); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("hint-hit locate allocates %.1f objects/op, want 0", allocs)
	}
}

// TestGenIndexDeterministic pins the property hinted sim = mem = net
// pass totals rest on: the port → slot map is one fixed function, so
// every transport's index invalidates the same hash-collision siblings.
func TestGenIndexDeterministic(t *testing.T) {
	var a, b genIndex
	// Walk ports until two share a slot; both indexes must agree on
	// every port walked.
	owner := map[int]core.Port{}
	var p1, p2, p3 core.Port
	for i := 0; p2 == ""; i++ {
		p := core.Port(fmt.Sprintf("svc-%05d", i))
		if a.idx(p) != b.idx(p) || a.slot(p) != &a.shards[b.idx(p)] {
			t.Fatalf("port %q: slot %d on one index, %d on the other", p, a.idx(p), b.idx(p))
		}
		if first, taken := owner[a.idx(p)]; taken {
			p1, p2 = first, p
		}
		owner[a.idx(p)] = p
	}
	for slot, p := range owner {
		if slot != a.idx(p1) {
			p3 = p
			break
		}
	}
	a.bump(p1)
	if a.gen(p2) != 1 {
		t.Fatalf("%q and %q share slot %d, but bumping one left the other at generation %d", p1, p2, a.idx(p1), a.gen(p2))
	}
	if a.gen(p3) != 0 {
		t.Fatalf("bumping %q moved %q, which is in slot %d, not %d", p1, p3, a.idx(p3), a.idx(p1))
	}
	if b.gen(p1) != 0 {
		t.Fatal("two indexes share state")
	}
}
