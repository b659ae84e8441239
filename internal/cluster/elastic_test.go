package cluster

import (
	"errors"
	"testing"

	"matchmake/internal/core"
	"matchmake/internal/graph"
	"matchmake/internal/rendezvous"
	"matchmake/internal/strategy"
	"matchmake/internal/topology"
)

// mkEpoch builds epoch seq over a universe of n nodes with the first
// active of them serving a checkerboard, replicated r-fold.
func mkEpoch(t *testing.T, seq uint64, universe, active, r int) *strategy.Epoch {
	t.Helper()
	ep, err := strategy.NewEpoch(seq, universe, rendezvous.Checkerboard(active), r)
	if err != nil {
		t.Fatal(err)
	}
	return ep
}

// elasticPair builds an elastic sim/mem transport pair over a complete
// universe-node graph serving initial.
func elasticPair(t *testing.T, universe int, initial *strategy.Epoch) (*SimTransport, *MemTransport) {
	t.Helper()
	g := topology.Complete(universe)
	simT, err := NewLayoutSimTransport(g, elasticOf(initial), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { simT.Close() })
	memT, err := NewLayoutMemTransport(g, elasticOf(initial), 0)
	if err != nil {
		t.Fatal(err)
	}
	return simT, memT
}

// checkElasticLocates compares answers and per-operation pass charges
// between the elastic transports for every port from clients stepping
// over [0, clients).
func checkElasticLocates(t *testing.T, stage string, simT *SimTransport, memT *MemTransport, servers map[core.Port]graph.NodeID, clients int) {
	t.Helper()
	for c := 0; c < clients; c += 3 {
		client := graph.NodeID(c)
		for port := range servers {
			simBefore, memBefore := simT.Passes(), memT.Passes()
			e1, err1 := simT.Locate(client, port)
			e2, err2 := memT.Locate(client, port)
			if (err1 == nil) != (err2 == nil) {
				t.Fatalf("%s: locate %q from %d: sim err=%v mem err=%v", stage, port, client, err1, err2)
			}
			if err1 == nil && (e1.Addr != e2.Addr || e1.ServerID != e2.ServerID) {
				t.Fatalf("%s: locate %q from %d: sim %+v != mem %+v", stage, port, client, e1, e2)
			}
			if sc, mc := simT.Passes()-simBefore, memT.Passes()-memBefore; sc != mc {
				t.Fatalf("%s: locate %q from %d: sim charged %d passes, mem %d", stage, port, client, sc, mc)
			}
		}
	}
}

// TestElasticSimMemEquivalence drives a full grow-then-shrink epoch
// cycle through the paper-exact simulator and the fast path and
// demands identical answers and identical pass charges at every step:
// steady state, the migration itself (delta re-posts), the dual-epoch
// phase (locates from old and new members), the retirement (local GC,
// zero charge), and the way back down.
func TestElasticSimMemEquivalence(t *testing.T) {
	const universe = 48
	ep1 := mkEpoch(t, 1, universe, 36, 1)
	simT, memT := elasticPair(t, universe, ep1)

	servers := map[core.Port]graph.NodeID{"alpha": 12, "beta": 35, "gamma": 0}
	for port, node := range servers {
		simBefore, memBefore := simT.Passes(), memT.Passes()
		if _, err := simT.Register(port, node); err != nil {
			t.Fatal(err)
		}
		if _, err := memT.Register(port, node); err != nil {
			t.Fatal(err)
		}
		if sc, mc := simT.Passes()-simBefore, memT.Passes()-memBefore; sc != mc {
			t.Fatalf("register %q: sim charged %d passes, mem %d", port, sc, mc)
		}
	}
	checkElasticLocates(t, "epoch1-steady", simT, memT, servers, 36)

	// Grow: 36 → 48 active nodes under a fresh checkerboard.
	ep2 := mkEpoch(t, 2, universe, 48, 1)
	rm, err := strategy.NewRemap(ep1, ep2)
	if err != nil {
		t.Fatal(err)
	}
	var homes []graph.NodeID
	for _, node := range servers {
		homes = append(homes, node)
	}
	want := rm.MovedPosts(homes)
	simBefore, memBefore := simT.Passes(), memT.Passes()
	simMoved, err := simT.Resize(ep2)
	if err != nil {
		t.Fatal(err)
	}
	memMoved, err := memT.Resize(ep2)
	if err != nil {
		t.Fatal(err)
	}
	if simMoved != want || memMoved != want {
		t.Fatalf("moved postings: sim %d, mem %d, remap predicts %d", simMoved, memMoved, want)
	}
	if want == 0 {
		t.Fatal("grow transition moved nothing; test is vacuous")
	}
	if sc, mc := simT.Passes()-simBefore, memT.Passes()-memBefore; sc != mc {
		t.Fatalf("resize migration: sim charged %d passes, mem %d", sc, mc)
	}
	if !simT.Resizing() || !memT.Resizing() {
		t.Fatal("transports not in the dual-epoch phase after Resize")
	}

	// Dual-epoch phase: old members and brand-new members both locate.
	checkElasticLocates(t, "dual-grow", simT, memT, servers, 48)

	// Lifecycle during the dual phase: a fresh registration on a
	// new-epoch-only node, and a migration — both post under the
	// widened union sets on both transports.
	simBefore, memBefore = simT.Passes(), memT.Passes()
	simRef, err := simT.Register("delta", 40)
	if err != nil {
		t.Fatal(err)
	}
	memRef, err := memT.Register("delta", 40)
	if err != nil {
		t.Fatal(err)
	}
	if sc, mc := simT.Passes()-simBefore, memT.Passes()-memBefore; sc != mc {
		t.Fatalf("dual-phase register: sim charged %d passes, mem %d", sc, mc)
	}
	servers["delta"] = 40
	checkElasticLocates(t, "dual-grow+delta", simT, memT, servers, 48)

	if err := simT.FinishResize(); err != nil {
		t.Fatal(err)
	}
	if err := memT.FinishResize(); err != nil {
		t.Fatal(err)
	}
	if simT.Resizing() || memT.Resizing() {
		t.Fatal("transports still resizing after FinishResize")
	}
	checkElasticLocates(t, "epoch2-steady", simT, memT, servers, 48)

	// Shrink back: every server must first live inside the surviving
	// range; epoch admission enforces it.
	ep3 := mkEpoch(t, 3, universe, 36, 1)
	if _, err := memT.Resize(ep3); err == nil {
		t.Fatal("mem resize accepted a server homed outside the shrunken membership")
	}
	if _, err := simT.Resize(ep3); err == nil {
		t.Fatal("sim resize accepted a server homed outside the shrunken membership")
	}
	simBefore, memBefore = simT.Passes(), memT.Passes()
	if err := simRef.Migrate(20); err != nil {
		t.Fatal(err)
	}
	if err := memRef.Migrate(20); err != nil {
		t.Fatal(err)
	}
	if sc, mc := simT.Passes()-simBefore, memT.Passes()-memBefore; sc != mc {
		t.Fatalf("pre-shrink migrate: sim charged %d passes, mem %d", sc, mc)
	}
	servers["delta"] = 20

	simBefore, memBefore = simT.Passes(), memT.Passes()
	simMoved, err = simT.Resize(ep3)
	if err != nil {
		t.Fatal(err)
	}
	memMoved, err = memT.Resize(ep3)
	if err != nil {
		t.Fatal(err)
	}
	if simMoved != memMoved {
		t.Fatalf("shrink moved postings: sim %d, mem %d", simMoved, memMoved)
	}
	if sc, mc := simT.Passes()-simBefore, memT.Passes()-memBefore; sc != mc {
		t.Fatalf("shrink migration: sim charged %d passes, mem %d", sc, mc)
	}
	// During the shrink's dual phase, clients on the nodes being
	// retired still locate — through the old epoch's fallthrough.
	checkElasticLocates(t, "dual-shrink", simT, memT, servers, 48)
	if simT.DualEpochLocates() == 0 || memT.DualEpochLocates() == 0 {
		t.Fatalf("retiring-epoch floods resolved nothing: sim %d, mem %d — the dual-epoch path never engaged",
			simT.DualEpochLocates(), memT.DualEpochLocates())
	}

	if err := simT.FinishResize(); err != nil {
		t.Fatal(err)
	}
	if err := memT.FinishResize(); err != nil {
		t.Fatal(err)
	}
	checkElasticLocates(t, "epoch3-steady", simT, memT, servers, 36)

	// Epoch GC correctness: a post-shrink deregistration must stop the
	// port resolving — no stale old-epoch posting may resurrect it.
	if err := simRef.Deregister(); err != nil {
		t.Fatal(err)
	}
	if err := memRef.Deregister(); err != nil {
		t.Fatal(err)
	}
	for c := 0; c < 36; c += 5 {
		if _, err := memT.Locate(graph.NodeID(c), "delta"); !errors.Is(err, core.ErrNotFound) {
			t.Fatalf("mem locate of deregistered port from %d: %v; want ErrNotFound", c, err)
		}
		if _, err := simT.Locate(graph.NodeID(c), "delta"); !errors.Is(err, core.ErrNotFound) {
			t.Fatalf("sim locate of deregistered port from %d: %v; want ErrNotFound", c, err)
		}
	}
}

// TestElasticReplicatedResizeEquivalence runs an epoch transition at
// r = 2 with a crashed rendezvous node in the new epoch's first family:
// locates fall through — to the second family, and where necessary to
// the retiring epoch — identically, at identical charges, on both
// transports.
func TestElasticReplicatedResizeEquivalence(t *testing.T) {
	const universe = 48
	ep1 := mkEpoch(t, 1, universe, 36, 2)
	simT, memT := elasticPair(t, universe, ep1)

	servers := map[core.Port]graph.NodeID{"alpha": 7, "beta": 29}
	for port, node := range servers {
		if _, err := simT.Register(port, node); err != nil {
			t.Fatal(err)
		}
		if _, err := memT.Register(port, node); err != nil {
			t.Fatal(err)
		}
	}
	checkElasticLocates(t, "r2-epoch1", simT, memT, servers, 36)

	ep2 := mkEpoch(t, 2, universe, 48, 2)
	if _, err := simT.Resize(ep2); err != nil {
		t.Fatal(err)
	}
	if _, err := memT.Resize(ep2); err != nil {
		t.Fatal(err)
	}

	// Crash one family-0 rendezvous node of the new epoch for alpha as
	// seen from some client — the fallthrough must bridge it on both.
	// The victim must not be a server home (crashing the server is a
	// different failure) nor the client itself.
	client, victim := graph.NodeID(-1), graph.NodeID(-1)
	rep0 := ep2.Replicated().Replica(0)
	for c := 0; c < 48 && victim < 0; c++ {
		for _, v := range rendezvous.Intersect(rep0.Post(servers["alpha"]), rep0.Query(graph.NodeID(c))) {
			if v != servers["alpha"] && v != servers["beta"] && int(v) != c {
				client, victim = graph.NodeID(c), v
				break
			}
		}
	}
	if victim < 0 {
		t.Fatal("no crashable family-0 rendezvous for any client")
	}
	if err := simT.Crash(victim); err != nil {
		t.Fatal(err)
	}
	if err := memT.Crash(victim); err != nil {
		t.Fatal(err)
	}
	simBefore, memBefore := simT.Passes(), memT.Passes()
	e1, err1 := simT.Locate(client, "alpha")
	e2, err2 := memT.Locate(client, "alpha")
	if err1 != nil || err2 != nil {
		t.Fatalf("crashed-rendezvous locate: sim err=%v mem err=%v", err1, err2)
	}
	if e1.Addr != e2.Addr || e1.ServerID != e2.ServerID {
		t.Fatalf("crashed-rendezvous locate: sim %+v != mem %+v", e1, e2)
	}
	if sc, mc := simT.Passes()-simBefore, memT.Passes()-memBefore; sc != mc {
		t.Fatalf("crashed-rendezvous locate: sim charged %d passes, mem %d", sc, mc)
	}
	if err := simT.Restore(victim); err != nil {
		t.Fatal(err)
	}
	if err := memT.Restore(victim); err != nil {
		t.Fatal(err)
	}
	if err := simT.FinishResize(); err != nil {
		t.Fatal(err)
	}
	if err := memT.FinishResize(); err != nil {
		t.Fatal(err)
	}
	checkElasticLocates(t, "r2-epoch2", simT, memT, servers, 48)
}

// TestElasticIdentityResizeMovesNothing pins the minimal-movement
// contract's floor: a transition between identically-shaped epochs
// migrates zero postings and bumps no hint generation.
func TestElasticIdentityResizeMovesNothing(t *testing.T) {
	const universe = 36
	ep1 := mkEpoch(t, 1, universe, 36, 1)
	memT, err := NewLayoutMemTransport(topology.Complete(universe), elasticOf(ep1), 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := memT.Register("svc", 5); err != nil {
		t.Fatal(err)
	}
	gen := memT.Gen("svc")
	moved, err := memT.Resize(mkEpoch(t, 2, universe, 36, 1))
	if err != nil {
		t.Fatal(err)
	}
	if moved != 0 {
		t.Fatalf("identity resize moved %d postings, want 0", moved)
	}
	if got := memT.Gen("svc"); got != gen {
		t.Fatalf("identity resize bumped the port generation %d → %d", gen, got)
	}
	if err := memT.FinishResize(); err != nil {
		t.Fatal(err)
	}
	if _, err := memT.Locate(3, "svc"); err != nil {
		t.Fatalf("locate after identity resize: %v", err)
	}
}

// TestElasticHintedUnhintedAcrossResize drives the same workload
// through a hinted and an unhinted cluster over elastic mem transports
// across a full resize cycle: answers must be identical at every stage,
// and the moved-port generation bump must force hinted locates to
// re-resolve rather than serve a stale epoch's view.
func TestElasticHintedUnhintedAcrossResize(t *testing.T) {
	const universe = 48
	build := func(hints bool) (*Cluster, []ServerRef) {
		ep := mkEpoch(t, 1, universe, 36, 1)
		tr, err := NewLayoutMemTransport(topology.Complete(universe), elasticOf(ep), 0)
		if err != nil {
			t.Fatal(err)
		}
		c := New(tr, Options{Hints: hints, DisableCoalescing: true})
		t.Cleanup(func() { c.Close() })
		refs := make([]ServerRef, 0, 3)
		for i, port := range []core.Port{"a", "b", "c"} {
			ref, err := c.Register(port, graph.NodeID(i*11+2))
			if err != nil {
				t.Fatal(err)
			}
			refs = append(refs, ref)
		}
		return c, refs
	}
	hinted, _ := build(true)
	plain, _ := build(false)

	compare := func(stage string, clients int) {
		t.Helper()
		for c := 0; c < clients; c += 2 {
			for _, port := range []core.Port{"a", "b", "c"} {
				// Locate twice so the second hinted call runs on a warm hint.
				for pass := 0; pass < 2; pass++ {
					e1, err1 := hinted.Locate(graph.NodeID(c), port)
					e2, err2 := plain.Locate(graph.NodeID(c), port)
					if (err1 == nil) != (err2 == nil) {
						t.Fatalf("%s: locate %q from %d pass %d: hinted err=%v plain err=%v", stage, port, c, pass, err1, err2)
					}
					if err1 == nil && (e1.Addr != e2.Addr || e1.ServerID != e2.ServerID) {
						t.Fatalf("%s: locate %q from %d pass %d: hinted %+v != plain %+v", stage, port, c, pass, e1, e2)
					}
				}
			}
		}
	}
	compare("epoch1", 36)
	ep2 := mkEpoch(t, 2, universe, 48, 1)
	if _, err := hinted.Resize(ep2); err != nil {
		t.Fatal(err)
	}
	if _, err := plain.Resize(ep2); err != nil {
		t.Fatal(err)
	}
	compare("dual", 48)
	if err := hinted.FinishResize(); err != nil {
		t.Fatal(err)
	}
	if err := plain.FinishResize(); err != nil {
		t.Fatal(err)
	}
	compare("epoch2", 48)

	m := hinted.Metrics()
	if !m.Elastic || m.Epoch != 2 {
		t.Fatalf("hinted metrics: elastic=%v epoch=%d, want elastic at epoch 2", m.Elastic, m.Epoch)
	}
	if m.MigratedPosts == 0 {
		t.Fatalf("hinted metrics report zero migrated postings across a real resize")
	}
}
