package cluster

import (
	"testing"
	"time"

	"matchmake/internal/core"
	"matchmake/internal/graph"
	"matchmake/internal/rendezvous"
	"matchmake/internal/topology"
)

// TestRowDiff pins the diff semantics every transport's reconcile round
// shares: orphans drop in place, wrong addresses drop and re-post,
// missing entries drop (clearing masks) and re-post, tombstones are
// invisible.
func TestRowDiff(t *testing.T) {
	exp := make(expectedRow)
	exp.add("alpha", 1, 5)
	exp.add("beta", 2, 7)
	exp.add("gamma", 3, 9)
	actual := []core.Entry{
		{Port: "alpha", ServerID: 1, Addr: 5, Time: 3, Active: true},  // correct
		{Port: "beta", ServerID: 2, Addr: 8, Time: 4, Active: true},   // wrong addr
		{Port: "delta", ServerID: 9, Addr: 1, Time: 2, Active: true},  // orphan
		{Port: "gamma", ServerID: 3, Addr: 9, Time: 1, Active: false}, // tombstone: ignored, so gamma is missing
	}
	drops, reposts := rowDiff(exp, actual)
	wantDrops := map[expectedPair]bool{
		{port: "beta", id: 2}:  true,
		{port: "delta", id: 9}: true,
		{port: "gamma", id: 3}: true,
	}
	wantReposts := map[expectedPair]bool{
		{port: "beta", id: 2}:  true,
		{port: "gamma", id: 3}: true,
	}
	if len(drops) != len(wantDrops) {
		t.Fatalf("drops = %v, want %v", drops, wantDrops)
	}
	for _, d := range drops {
		if !wantDrops[d] {
			t.Fatalf("unexpected drop %+v", d)
		}
	}
	if len(reposts) != len(wantReposts) {
		t.Fatalf("reposts = %v, want %v", reposts, wantReposts)
	}
	for _, r := range reposts {
		if !wantReposts[r] {
			t.Fatalf("unexpected repost %+v", r)
		}
	}

	// A fully converged row diffs to nothing, and its xor digest matches
	// the expected digest (the cheap check that skips the dump).
	converged := []core.Entry{
		{Port: "alpha", ServerID: 1, Addr: 5, Time: 3, Active: true},
		{Port: "beta", ServerID: 2, Addr: 7, Time: 9, Active: true},
		{Port: "gamma", ServerID: 3, Addr: 9, Time: 1, Active: true},
	}
	drops, reposts = rowDiff(exp, converged)
	if len(drops) != 0 || len(reposts) != 0 {
		t.Fatalf("converged row: drops=%v reposts=%v, want none", drops, reposts)
	}
	var d uint64
	for _, e := range converged {
		d ^= postingDigest(e.Port, e.ServerID, e.Addr)
	}
	if d != exp.digest() {
		t.Fatalf("converged digest %x != expected %x", d, exp.digest())
	}
	// Digests ignore timestamps: re-posting with a fresh clock must not
	// flip the row back to "mismatched".
	if postingDigest("alpha", 1, 5) != postingDigest("alpha", 1, 5) {
		t.Fatal("postingDigest not deterministic")
	}
}

// TestAntiEntropyConvergence is the tentpole gate: a cluster seeded with
// every corruption class — a missing posting, an orphaned duplicate, a
// duplicate parked under the wrong port, a stale-epoch address and a
// bit-flipped entry whose poisoned timestamp the §2.1 merge rule would
// otherwise protect forever — reconciles back to the registration
// ground truth within one round (quiescent by round two), and the
// simulator and fast path charge exactly the same passes for the repair
// traffic.
func TestAntiEntropyConvergence(t *testing.T) {
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
			defer memT.Close()

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

			alphaNode := graph.NodeID(n / 3)
			betaNode := graph.NodeID(n - 1)
			aT := tc.strat.Post(alphaNode)
			if len(aT) < 3 {
				t.Fatalf("need |P(alpha)| >= 3 to seed distinct corruption classes, got %d", len(aT))
			}
			bT := tc.strat.Post(betaNode)
			orphanAt := graph.NodeID(-1)
			for v := 0; v < n; v++ {
				if !contains(bT, graph.NodeID(v)) {
					orphanAt = graph.NodeID(v)
					break
				}
			}
			if orphanAt < 0 {
				t.Fatalf("P(beta) covers the whole graph; cannot park an orphan")
			}

			simAlpha := simRefs["alpha"].(simServer).srv.ID()
			simBeta := simRefs["beta"].(simServer).srv.ID()
			memAlpha := memRefs["alpha"].(*server).id
			memBeta := memRefs["beta"].(*server).id

			// Seed the identical five-way corruption on both transports
			// through their raw state backdoors. Corruption is silent: it
			// must charge nothing.
			simBefore, memBefore := simT.Passes(), memT.Passes()
			seed := func(
				drop func(v graph.NodeID, port core.Port, id uint64),
				inject func(v graph.NodeID, e core.Entry),
				alphaID, betaID uint64,
			) {
				// Missing posting: one of alpha's rendezvous nodes forgot it.
				drop(aT[0], "alpha", alphaID)
				// Stale epoch: an old address with an ancient timestamp.
				inject(aT[1], core.Entry{Port: "alpha", Addr: graph.NodeID((int(alphaNode) + 5) % n),
					ServerID: alphaID, Time: 1, Active: true})
				// Bit-flip with a poisoned timestamp: the merge rule alone
				// could never displace this entry.
				inject(aT[2], core.Entry{Port: "alpha", Addr: alphaNode ^ 1,
					ServerID: alphaID, Time: corruptMaskTime, Active: true})
				// Orphaned duplicate: beta's posting parked outside P(beta).
				inject(orphanAt, core.Entry{Port: "beta", Addr: betaNode,
					ServerID: betaID, Time: 2, Active: true})
				// Duplicate under the wrong port: alpha's instance cached in
				// gamma's slot.
				inject(aT[0], core.Entry{Port: "gamma", Addr: alphaNode,
					ServerID: alphaID, Time: 2, Active: true})
			}
			seed(simT.sys.ExpireEntry, simT.sys.InjectEntry, simAlpha, simBeta)
			seed(memT.mem.store.Drop, memT.mem.store.Inject, memAlpha, memBeta)
			if simT.Passes() != simBefore || memT.Passes() != memBefore {
				t.Fatalf("corruption seeding charged passes: sim %d mem %d",
					simT.Passes()-simBefore, memT.Passes()-memBefore)
			}

			// Reconcile to quiescence: repairs must finish in one round
			// (the documented bound), with round-by-round sim=mem
			// equivalence on both repair counts and pass charges.
			const maxRounds = 3
			quiescentAt := -1
			for round := 0; round < maxRounds; round++ {
				simBefore, memBefore := simT.Passes(), memT.Passes()
				sr, err := simT.ReconcileRound()
				if err != nil {
					t.Fatal(err)
				}
				mr, err := memT.ReconcileRound()
				if err != nil {
					t.Fatal(err)
				}
				if sr != mr {
					t.Fatalf("round %d: sim repaired %d, mem %d", round, sr, mr)
				}
				simCost := simT.Passes() - simBefore
				memCost := memT.Passes() - memBefore
				if simCost != memCost {
					t.Fatalf("round %d: sim charged %d passes for repair, mem %d", round, simCost, memCost)
				}
				if round == 0 && sr == 0 {
					t.Fatal("round 0 repaired nothing despite seeded corruption")
				}
				if sr == 0 {
					quiescentAt = round
					break
				}
				if simCost == 0 {
					t.Fatalf("round %d repaired %d postings but charged no passes", round, sr)
				}
			}
			if quiescentAt != 1 {
				t.Fatalf("quiescent at round %d, want 1 (all repairs in round 0)", quiescentAt)
			}

			// Ground truth restored: every alpha target holds the honest
			// address again, the orphan and the wrong-port duplicate are
			// gone everywhere.
			for _, ne := range memT.mem.store.DumpRange(0, n) {
				if !ne.E.Active {
					continue
				}
				if ne.E.Port == "alpha" && ne.E.Addr != alphaNode {
					t.Fatalf("mem node %d: alpha posting addr %d after reconcile, want %d",
						ne.Node, ne.E.Addr, alphaNode)
				}
				if ne.E.Port == "beta" && !contains(bT, ne.Node) {
					t.Fatalf("mem node %d: beta orphan survived reconcile", ne.Node)
				}
				if ne.E.Port == "gamma" && ne.E.ServerID == memAlpha {
					t.Fatalf("mem node %d: wrong-port duplicate survived reconcile", ne.Node)
				}
			}
			for v := 0; v < n; v++ {
				for _, e := range simT.sys.CacheEntries(graph.NodeID(v)) {
					if e.Active && e.Port == "alpha" && e.Addr != alphaNode {
						t.Fatalf("sim node %d: alpha posting addr %d after reconcile, want %d", v, e.Addr, alphaNode)
					}
				}
			}

			// And the repaired cluster still answers identically at
			// identical cost.
			for c := 0; c < n; c += 3 {
				client := graph.NodeID(c)
				for _, sc := range script {
					simBefore, memBefore := simT.Passes(), memT.Passes()
					e1, err1 := simT.Locate(client, sc.port)
					e2, err2 := memT.Locate(client, sc.port)
					if err1 != nil || err2 != nil {
						t.Fatalf("post-repair locate %q from %d: sim err=%v mem err=%v",
							sc.port, client, err1, err2)
					}
					if e1.Addr != e2.Addr || e1.Addr != sc.server {
						t.Fatalf("post-repair locate %q from %d: sim %d mem %d want %d",
							sc.port, client, e1.Addr, e2.Addr, sc.server)
					}
					if simCost, memCost := simT.Passes()-simBefore, memT.Passes()-memBefore; simCost != memCost {
						t.Fatalf("post-repair locate %q from %d: sim charged %d, mem %d",
							sc.port, client, simCost, memCost)
					}
				}
			}

			simStats, memStats := simT.ReconcileStats(), memT.ReconcileStats()
			if simStats.Repaired != memStats.Repaired || simStats.Repaired == 0 {
				t.Fatalf("stats: sim repaired %d, mem %d", simStats.Repaired, memStats.Repaired)
			}
		})
	}
}

// TestAntiEntropyCorruptEquivalence drives the deterministic adversarial
// injector against sim and mem with equal options: the plans must be
// isomorphic (equal op counts, zero charge) and reconciliation must heal
// both within the documented bound at exactly equal repair cost.
func TestAntiEntropyCorruptEquivalence(t *testing.T) {
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
			defer memT.Close()

			n := tc.g.N()
			regs := []Registration{
				{Port: "alpha", Node: graph.NodeID(n / 3)},
				{Port: "beta", Node: graph.NodeID(n - 1)},
				{Port: "gamma", Node: 0},
			}
			if _, err := simT.PostBatch(regs); err != nil {
				t.Fatal(err)
			}
			if _, err := memT.PostBatch(regs); err != nil {
				t.Fatal(err)
			}

			for _, seedv := range []int64{1, 42, 1985} {
				opts := CorruptOptions{Seed: seedv, Count: 24}
				simBefore, memBefore := simT.Passes(), memT.Passes()
				si, err := simT.Corrupt(opts)
				if err != nil {
					t.Fatal(err)
				}
				mi, err := memT.Corrupt(opts)
				if err != nil {
					t.Fatal(err)
				}
				if si != mi || si != opts.Count {
					t.Fatalf("seed %d: sim injected %d, mem %d, want %d", seedv, si, mi, opts.Count)
				}
				if simT.Passes() != simBefore || memT.Passes() != memBefore {
					t.Fatalf("seed %d: corruption injection charged passes", seedv)
				}

				const maxRounds = 4
				quiescent := false
				for round := 0; round < maxRounds && !quiescent; round++ {
					simBefore, memBefore := simT.Passes(), memT.Passes()
					sr, err := simT.ReconcileRound()
					if err != nil {
						t.Fatal(err)
					}
					mr, err := memT.ReconcileRound()
					if err != nil {
						t.Fatal(err)
					}
					if sr != mr {
						t.Fatalf("seed %d round %d: sim repaired %d, mem %d", seedv, round, sr, mr)
					}
					if simCost, memCost := simT.Passes()-simBefore, memT.Passes()-memBefore; simCost != memCost {
						t.Fatalf("seed %d round %d: sim charged %d, mem %d", seedv, round, simCost, memCost)
					}
					quiescent = sr == 0
				}
				if !quiescent {
					t.Fatalf("seed %d: no quiescence within %d rounds", seedv, maxRounds)
				}

				for c := 0; c < n; c += 4 {
					client := graph.NodeID(c)
					for _, r := range regs {
						e1, err1 := simT.Locate(client, r.Port)
						e2, err2 := memT.Locate(client, r.Port)
						if err1 != nil || err2 != nil {
							t.Fatalf("seed %d: locate %q from %d: sim err=%v mem err=%v",
								seedv, r.Port, client, err1, err2)
						}
						if e1.Addr != r.Node || e2.Addr != r.Node {
							t.Fatalf("seed %d: locate %q from %d: sim %d mem %d want %d",
								seedv, r.Port, client, e1.Addr, e2.Addr, r.Node)
						}
					}
				}
			}

			if s := memT.ReconcileStats(); s.Injected != 3*24 {
				t.Fatalf("mem injected counter = %d, want %d", s.Injected, 3*24)
			}
		})
	}
}

// TestAntiEntropyBackgroundLoop checks the StartReconcile loop heals
// corruption without explicit rounds and that Close stops it cleanly.
func TestAntiEntropyBackgroundLoop(t *testing.T) {
	memT, err := NewMemTransport(topology.Complete(16), rendezvous.Checkerboard(16), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer memT.Close()
	ref, err := memT.Register("alpha", 5)
	if err != nil {
		t.Fatal(err)
	}
	id := ref.(*server).id

	memT.StartReconcile(time.Millisecond)
	if _, err := memT.Corrupt(CorruptOptions{Seed: 9, Count: 4}); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		s := memT.ReconcileStats()
		if s.Repaired > 0 && s.Rounds > 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("background loop never repaired: %+v", s)
		}
		time.Sleep(time.Millisecond)
	}
	// Let it quiesce, then confirm ground truth.
	deadline = time.Now().Add(5 * time.Second)
	for {
		if r, err := memT.ReconcileRound(); err == nil && r == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("background loop never reached quiescence")
		}
		time.Sleep(time.Millisecond)
	}
	e, err := memT.Locate(1, "alpha")
	if err != nil || e.Addr != 5 || e.ServerID != id {
		t.Fatalf("locate after background repair: %+v err=%v", e, err)
	}
}
