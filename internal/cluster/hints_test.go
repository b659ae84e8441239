package cluster

import (
	"errors"
	"fmt"
	"testing"

	"matchmake/internal/core"
	"matchmake/internal/graph"
	"matchmake/internal/rendezvous"
	"matchmake/internal/strategy"
	"matchmake/internal/topology"
)

func newHintedMemCluster(t *testing.T, n int, opts Options) (*Cluster, *MemTransport) {
	t.Helper()
	tr, err := NewMemTransport(topology.Complete(n), rendezvous.Checkerboard(n), 0)
	if err != nil {
		t.Fatal(err)
	}
	c := New(tr, opts)
	t.Cleanup(func() { c.Close() })
	return c, tr
}

// TestHintHitPath checks the fast path end to end: the first locate
// floods and caches, the second is served by a single probe charged
// 2×Dist(client, server) passes.
func TestHintHitPath(t *testing.T) {
	gr, err := topology.NewGrid(6, 6)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := NewMemTransport(gr.G, strategy.Manhattan(gr), 0)
	if err != nil {
		t.Fatal(err)
	}
	c := New(tr, Options{Hints: true})
	defer c.Close()

	server := graph.NodeID(14)
	if _, err := c.Register("svc", server); err != nil {
		t.Fatal(err)
	}
	client := graph.NodeID(3)
	e1, err := c.Locate(client, "svc")
	if err != nil {
		t.Fatal(err)
	}
	before := tr.Passes()
	e2, err := c.Locate(client, "svc")
	if err != nil {
		t.Fatal(err)
	}
	if e2.Addr != e1.Addr || e2.ServerID != e1.ServerID {
		t.Fatalf("hinted answer %+v != flooded answer %+v", e2, e1)
	}
	routing, err := graph.NewRouting(gr.G)
	if err != nil {
		t.Fatal(err)
	}
	want := int64(2 * routing.Dist(client, server))
	if got := tr.Passes() - before; got != want {
		t.Fatalf("hint hit charged %d passes, want 2×Dist = %d", got, want)
	}
	if m := c.Metrics(); m.HintHits != 1 {
		t.Fatalf("HintHits = %d, want 1", m.HintHits)
	}
}

// TestHintInvalidation drives each churn event and checks the hint is
// not served stale: the next locate re-floods (or probes and fails) and
// returns exactly what an unhinted cluster would.
func TestHintInvalidation(t *testing.T) {
	t.Run("migrate", func(t *testing.T) {
		c, tr := newHintedMemCluster(t, 16, Options{Hints: true})
		ref, err := c.Register("svc", 3)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.Locate(7, "svc"); err != nil {
			t.Fatal(err)
		}
		gen := tr.Gen("svc")
		if err := ref.Migrate(11); err != nil {
			t.Fatal(err)
		}
		if tr.Gen("svc") == gen {
			t.Fatal("migrate did not bump the port generation")
		}
		e, err := c.Locate(7, "svc")
		if err != nil {
			t.Fatal(err)
		}
		if e.Addr != 11 {
			t.Fatalf("post-migrate locate returned %d, want 11", e.Addr)
		}
		if m := c.Metrics(); m.HintStale == 0 {
			t.Fatalf("expected a stale-hint fallback, metrics: %+v", m)
		}
	})

	t.Run("deregister", func(t *testing.T) {
		c, _ := newHintedMemCluster(t, 16, Options{Hints: true})
		ref, err := c.Register("svc", 3)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.Locate(7, "svc"); err != nil {
			t.Fatal(err)
		}
		if err := ref.Deregister(); err != nil {
			t.Fatal(err)
		}
		if _, err := c.Locate(7, "svc"); !errors.Is(err, core.ErrNotFound) {
			t.Fatalf("locate after deregister: %v; want ErrNotFound", err)
		}
	})

	t.Run("crash", func(t *testing.T) {
		c, tr := newHintedMemCluster(t, 16, Options{Hints: true})
		if _, err := c.Register("svc", 3); err != nil {
			t.Fatal(err)
		}
		if _, err := c.Locate(7, "svc"); err != nil {
			t.Fatal(err)
		}
		gen := tr.Gen("svc")
		if err := tr.Crash(3); err != nil {
			t.Fatal(err)
		}
		if tr.Gen("svc") == gen {
			t.Fatal("crash did not bump the generation index")
		}
		// The hinted cluster must behave exactly like an unhinted one:
		// the flood may still find surviving postings that point at the
		// crashed node, but the hint itself is not probed blindly.
		hinted, hintedErr := c.Locate(7, "svc")
		unhinted, unhintedErr := tr.Locate(7, "svc")
		if (hintedErr == nil) != (unhintedErr == nil) {
			t.Fatalf("hinted err=%v unhinted err=%v", hintedErr, unhintedErr)
		}
		if hintedErr == nil && (hinted.Addr != unhinted.Addr || hinted.ServerID != unhinted.ServerID) {
			t.Fatalf("hinted %+v != unhinted %+v", hinted, unhinted)
		}
	})

	t.Run("register", func(t *testing.T) {
		// A fresh registration must invalidate hints so hinted and
		// unhinted clusters keep returning the same (freshest) winner.
		c, _ := newHintedMemCluster(t, 16, Options{Hints: true})
		if _, err := c.Register("svc", 3); err != nil {
			t.Fatal(err)
		}
		if _, err := c.Locate(7, "svc"); err != nil {
			t.Fatal(err)
		}
		if _, err := c.Register("svc", 9); err != nil {
			t.Fatal(err)
		}
		e, err := c.Locate(7, "svc")
		if err != nil {
			t.Fatal(err)
		}
		if e.Addr != 9 {
			t.Fatalf("locate after second registration returned %d, want the fresher 9", e.Addr)
		}
	})
}

// TestHintedUnhintedEquivalence runs one deterministic churny workload
// against a hinted and an unhinted cluster over identically prepared
// transports and demands identical answers on every step, with the
// hinted run spending no more passes than the unhinted one (hints only
// ever replace a flood with a cheaper probe; the sanctioned delta).
func TestHintedUnhintedEquivalence(t *testing.T) {
	const n = 36
	build := func(hints bool) (*Cluster, *MemTransport, []ServerRef) {
		tr, err := NewMemTransport(topology.Complete(n), rendezvous.Checkerboard(n), 0)
		if err != nil {
			t.Fatal(err)
		}
		c := New(tr, Options{Hints: hints, DisableCoalescing: true})
		t.Cleanup(func() { c.Close() })
		refs := make([]ServerRef, 4)
		for p := range refs {
			ref, err := c.Register(core.Port(fmt.Sprintf("svc-%d", p)), graph.NodeID(p*7%n))
			if err != nil {
				t.Fatal(err)
			}
			refs[p] = ref
		}
		return c, tr, refs
	}
	hc, htr, hrefs := build(true)
	uc, utr, urefs := build(false)

	step := 0
	check := func(client graph.NodeID, port core.Port) {
		t.Helper()
		step++
		he, herr := hc.Locate(client, port)
		ue, uerr := uc.Locate(client, port)
		if (herr == nil) != (uerr == nil) {
			t.Fatalf("step %d: locate %q from %d: hinted err=%v unhinted err=%v", step, port, client, herr, uerr)
		}
		if herr == nil && (he.Addr != ue.Addr || he.ServerID != ue.ServerID) {
			t.Fatalf("step %d: locate %q from %d: hinted %+v != unhinted %+v", step, port, client, he, ue)
		}
	}

	for round := 0; round < 3; round++ {
		for cl := 0; cl < n; cl += 5 {
			for p := 0; p < 4; p++ {
				check(graph.NodeID(cl), core.Port(fmt.Sprintf("svc-%d", p)))
			}
		}
		// Churn between rounds: migrate one service, deregister and
		// replace another, crash and restore a node.
		to := graph.NodeID((round*11 + 13) % n)
		if err := hrefs[0].Migrate(to); err != nil {
			t.Fatal(err)
		}
		if err := urefs[0].Migrate(to); err != nil {
			t.Fatal(err)
		}
		if round == 1 {
			if err := hrefs[1].Deregister(); err != nil {
				t.Fatal(err)
			}
			if err := urefs[1].Deregister(); err != nil {
				t.Fatal(err)
			}
			var err error
			if hrefs[1], err = hc.Register("svc-1", 20); err != nil {
				t.Fatal(err)
			}
			if urefs[1], err = uc.Register("svc-1", 20); err != nil {
				t.Fatal(err)
			}
			victim := graph.NodeID(30)
			if err := htr.Crash(victim); err != nil {
				t.Fatal(err)
			}
			if err := utr.Crash(victim); err != nil {
				t.Fatal(err)
			}
			if err := htr.Restore(victim); err != nil {
				t.Fatal(err)
			}
			if err := utr.Restore(victim); err != nil {
				t.Fatal(err)
			}
		}
	}
	hm, um := hc.Metrics(), uc.Metrics()
	if hm.HintHits == 0 {
		t.Fatal("hinted run never hit a hint")
	}
	if hm.Passes >= um.Passes {
		t.Fatalf("hinted run spent %d passes, unhinted %d; hints should only cheapen", hm.Passes, um.Passes)
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
	c, _ := newHintedMemCluster(t, 64, Options{Hints: true})
	if _, err := c.Register("svc", 9); err != nil {
		t.Fatal(err)
	}
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
