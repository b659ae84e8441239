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

// eqCase is one topology/strategy pair checked for transport agreement.
type eqCase struct {
	name  string
	g     *graph.Graph
	strat rendezvous.Strategy
}

func equivalenceCases(t *testing.T) []eqCase {
	t.Helper()
	gr, err := topology.NewGrid(6, 6)
	if err != nil {
		t.Fatal(err)
	}
	return []eqCase{
		{"complete-checkerboard", topology.Complete(36), rendezvous.Checkerboard(36)},
		{"grid-manhattan", gr.G, strategy.Manhattan(gr)},
	}
}

// TestTransportEquivalence drives the same scripted workload through the
// simulator transport and the in-process fast path and demands identical
// results and identical message-pass accounting: the fast path's
// routing-derived costs must match the simulator's hop counter exactly
// on a healthy network.
func TestTransportEquivalence(t *testing.T) {
	for _, tc := range equivalenceCases(t) {
		t.Run(tc.name, func(t *testing.T) {
			simT, err := NewSimTransport(tc.g, tc.strat, core.Options{})
			if err != nil {
				t.Fatal(err)
			}
			defer simT.Close()
			memT, err := NewMemTransport(tc.g, tc.strat, 0)
			if err != nil {
				t.Fatal(err)
			}

			n := tc.g.N()
			script := []struct {
				port   core.Port
				server graph.NodeID
			}{
				{"alpha", graph.NodeID(n / 3)},
				{"beta", graph.NodeID(n - 1)},
				{"gamma", 0},
			}
			simRefs := make(map[core.Port]ServerRef)
			memRefs := make(map[core.Port]ServerRef)
			for _, sc := range script {
				r1, err := simT.Register(sc.port, sc.server)
				if err != nil {
					t.Fatal(err)
				}
				r2, err := memT.Register(sc.port, sc.server)
				if err != nil {
					t.Fatal(err)
				}
				simRefs[sc.port], memRefs[sc.port] = r1, r2
			}

			checkLocates := func(stage string) {
				t.Helper()
				for c := 0; c < n; c += 3 {
					client := graph.NodeID(c)
					for _, sc := range script {
						simBefore, memBefore := simT.Passes(), memT.Passes()
						e1, err1 := simT.Locate(client, sc.port)
						e2, err2 := memT.Locate(client, sc.port)
						if (err1 == nil) != (err2 == nil) {
							t.Fatalf("%s: locate %q from %d: sim err=%v mem err=%v",
								stage, sc.port, client, err1, err2)
						}
						if err1 == nil && (e1.Addr != e2.Addr || e1.ServerID != e2.ServerID) {
							t.Fatalf("%s: locate %q from %d: sim %+v != mem %+v",
								stage, sc.port, client, e1, e2)
						}
						simCost := simT.Passes() - simBefore
						memCost := memT.Passes() - memBefore
						if simCost != memCost {
							t.Fatalf("%s: locate %q from %d: sim charged %d passes, mem %d",
								stage, sc.port, client, simCost, memCost)
						}
					}
				}
			}

			checkLocates("steady")

			// Migration: tombstone at the old address, fresh post at the
			// new one; both transports must agree afterwards.
			to := graph.NodeID(n / 2)
			simBefore, memBefore := simT.Passes(), memT.Passes()
			if err := simRefs["alpha"].Migrate(to); err != nil {
				t.Fatal(err)
			}
			if err := memRefs["alpha"].Migrate(to); err != nil {
				t.Fatal(err)
			}
			if simCost, memCost := simT.Passes()-simBefore, memT.Passes()-memBefore; simCost != memCost {
				t.Fatalf("migrate: sim charged %d passes, mem %d", simCost, memCost)
			}
			checkLocates("post-migrate")

			// Deregistration: the port must stop resolving on both.
			if err := simRefs["beta"].Deregister(); err != nil {
				t.Fatal(err)
			}
			if err := memRefs["beta"].Deregister(); err != nil {
				t.Fatal(err)
			}
			if _, err := memT.Locate(1, "beta"); !errors.Is(err, core.ErrNotFound) {
				t.Fatalf("mem locate after deregister: %v; want ErrNotFound", err)
			}
		})
	}
}

// TestTransportEquivalenceProbe drives the hint-validation probe
// through both transports: a probe (hit or negative answer) must cost
// exactly 2×Dist(client, addr) on each, with identical outcomes.
func TestTransportEquivalenceProbe(t *testing.T) {
	for _, tc := range equivalenceCases(t) {
		t.Run(tc.name, func(t *testing.T) {
			simT, err := NewSimTransport(tc.g, tc.strat, core.Options{})
			if err != nil {
				t.Fatal(err)
			}
			defer simT.Close()
			memT, err := NewMemTransport(tc.g, tc.strat, 0)
			if err != nil {
				t.Fatal(err)
			}
			n := tc.g.N()
			server := graph.NodeID(n / 3)
			simRef, err := simT.Register("alpha", server)
			if err != nil {
				t.Fatal(err)
			}
			memRef, err := memT.Register("alpha", server)
			if err != nil {
				t.Fatal(err)
			}

			client := graph.NodeID(1)
			simE, err := simT.Locate(client, "alpha")
			if err != nil {
				t.Fatal(err)
			}
			memE, err := memT.Locate(client, "alpha")
			if err != nil {
				t.Fatal(err)
			}

			routing, err := graph.NewRouting(tc.g)
			if err != nil {
				t.Fatal(err)
			}
			for c := 0; c < n; c += 4 {
				prober := graph.NodeID(c)
				simBefore, memBefore := simT.Passes(), memT.Passes()
				se, serr := simT.Probe(prober, simE)
				me, merr := memT.Probe(prober, memE)
				if serr != nil || merr != nil {
					t.Fatalf("probe from %d: sim err=%v mem err=%v", c, serr, merr)
				}
				if se.Addr != me.Addr || se.ServerID != me.ServerID {
					t.Fatalf("probe from %d: sim %+v != mem %+v", c, se, me)
				}
				want := int64(2 * routing.Dist(prober, server))
				if simCost := simT.Passes() - simBefore; simCost != want {
					t.Fatalf("probe from %d: sim charged %d, want %d", c, simCost, want)
				}
				if memCost := memT.Passes() - memBefore; memCost != want {
					t.Fatalf("probe from %d: mem charged %d, want %d", c, memCost, want)
				}
			}

			// After a migration a probe at the old address gets a
			// negative answer on both transports, at the same cost.
			to := graph.NodeID(n - 1)
			if err := simRef.Migrate(to); err != nil {
				t.Fatal(err)
			}
			if err := memRef.Migrate(to); err != nil {
				t.Fatal(err)
			}
			simBefore, memBefore := simT.Passes(), memT.Passes()
			_, serr := simT.Probe(client, simE)
			_, merr := memT.Probe(client, memE)
			if !errors.Is(serr, core.ErrNotFound) || !errors.Is(merr, core.ErrNotFound) {
				t.Fatalf("stale probe: sim err=%v mem err=%v; want ErrNotFound", serr, merr)
			}
			want := int64(2 * routing.Dist(client, server))
			if simCost, memCost := simT.Passes()-simBefore, memT.Passes()-memBefore; simCost != want || memCost != want {
				t.Fatalf("stale probe: sim charged %d, mem %d, want %d", simCost, memCost, want)
			}
		})
	}
}

// TestTransportEquivalenceBatch pushes the same batch through both
// transports: identical per-request answers and identical total pass
// charges.
func TestTransportEquivalenceBatch(t *testing.T) {
	for _, tc := range equivalenceCases(t) {
		t.Run(tc.name, func(t *testing.T) {
			simT, err := NewSimTransport(tc.g, tc.strat, core.Options{})
			if err != nil {
				t.Fatal(err)
			}
			defer simT.Close()
			memT, err := NewMemTransport(tc.g, tc.strat, 0)
			if err != nil {
				t.Fatal(err)
			}
			n := tc.g.N()
			regs := []Registration{
				{Port: "alpha", Node: graph.NodeID(n / 3)},
				{Port: "beta", Node: graph.NodeID(n - 1)},
			}
			simT.ResetPasses()
			memT.ResetPasses()
			if _, err := simT.PostBatch(regs); err != nil {
				t.Fatal(err)
			}
			if _, err := memT.PostBatch(regs); err != nil {
				t.Fatal(err)
			}
			if simT.Passes() != memT.Passes() {
				t.Fatalf("PostBatch: sim charged %d passes, mem %d", simT.Passes(), memT.Passes())
			}

			var reqs []LocateReq
			for c := 0; c < n; c += 5 {
				reqs = append(reqs,
					LocateReq{Client: graph.NodeID(c), Port: "alpha"},
					LocateReq{Client: graph.NodeID(c), Port: "beta"},
					LocateReq{Client: graph.NodeID(c), Port: "nope"})
			}
			simRes := make([]LocateRes, len(reqs))
			memRes := make([]LocateRes, len(reqs))
			simT.ResetPasses()
			memT.ResetPasses()
			simT.LocateBatch(reqs, simRes)
			memT.LocateBatch(reqs, memRes)
			if simT.Passes() != memT.Passes() {
				t.Fatalf("LocateBatch: sim charged %d passes, mem %d", simT.Passes(), memT.Passes())
			}
			for i := range reqs {
				if (simRes[i].Err == nil) != (memRes[i].Err == nil) {
					t.Fatalf("req %d (%+v): sim err=%v mem err=%v", i, reqs[i], simRes[i].Err, memRes[i].Err)
				}
				if simRes[i].Err == nil &&
					(simRes[i].Entry.Addr != memRes[i].Entry.Addr ||
						simRes[i].Entry.ServerID != memRes[i].Entry.ServerID) {
					t.Fatalf("req %d (%+v): sim %+v != mem %+v", i, reqs[i], simRes[i].Entry, memRes[i].Entry)
				}
			}
		})
	}
}

// TestTransportEquivalenceRegisterCost checks the posting flood cost in
// isolation: the fast path's precomputed multicast-tree edge count must
// equal the hops the simulator pays for the same registration.
func TestTransportEquivalenceRegisterCost(t *testing.T) {
	for _, tc := range equivalenceCases(t) {
		t.Run(tc.name, func(t *testing.T) {
			simT, err := NewSimTransport(tc.g, tc.strat, core.Options{})
			if err != nil {
				t.Fatal(err)
			}
			defer simT.Close()
			memT, err := NewMemTransport(tc.g, tc.strat, 0)
			if err != nil {
				t.Fatal(err)
			}
			for v := 0; v < tc.g.N(); v += 5 {
				simT.ResetPasses()
				memT.ResetPasses()
				if _, err := simT.Register("cost", graph.NodeID(v)); err != nil {
					t.Fatal(err)
				}
				if _, err := memT.Register("cost", graph.NodeID(v)); err != nil {
					t.Fatal(err)
				}
				if simT.Passes() != memT.Passes() {
					t.Fatalf("register at %d: sim %d passes, mem %d",
						v, simT.Passes(), memT.Passes())
				}
			}
		})
	}
}
