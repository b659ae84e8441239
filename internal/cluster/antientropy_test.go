package cluster

import (
	"slices"
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

// TestAntiEntropyConvergence is the tentpole gate: the simulator and the
// fast path repair seeded corruption with the same repair counts at the
// same charges, all within one round (the runner's reconcile step), and a
// cluster seeded by hand with every corruption class — a missing posting,
// an orphaned duplicate, a duplicate parked under the wrong port, a
// stale-epoch address and a bit-flipped entry whose poisoned timestamp
// the §2.1 merge rule would otherwise protect forever — reconciles back to
// the registration ground truth within one round, quiescent by round two.
func TestAntiEntropyConvergence(t *testing.T) {
	for name, w := range eqWorlds {
		t.Run(name, func(t *testing.T) {
			r := runHistory(t, "world "+w+"\ncolumns model sim mem\n"+`
register alpha 12
register beta 35
register gamma 0
corrupt 3 12
reconcile
locate 0-35/3 alpha,beta,gamma`)
			if r.tally.repaired == 0 {
				t.Fatal("the seeded corruption needed no repair")
			}

			memT := r.cols[2].tr.(*MemTransport)
			st, post := memT.mem.store, r.lay.Epoch.PostSet
			const alpha, beta, alphaID, betaID = graph.NodeID(12), graph.NodeID(35), 1, 2
			aT, bT := post(alpha), post(beta)
			orphanAt := graph.NodeID(0)
			for slices.Contains(bT, orphanAt) {
				orphanAt++
			}
			before := memT.Passes()
			st.Drop(aT[0], "alpha", alphaID)
			st.Inject(aT[1], core.Entry{Port: "alpha", Addr: alpha + 5, ServerID: alphaID, Time: 1, Active: true})
			st.Inject(aT[2], core.Entry{Port: "alpha", Addr: alpha ^ 1, ServerID: alphaID, Time: corruptMaskTime, Active: true})
			st.Inject(orphanAt, core.Entry{Port: "beta", Addr: beta, ServerID: betaID, Time: 2, Active: true})
			st.Inject(aT[0], core.Entry{Port: "gamma", Addr: alpha, ServerID: alphaID, Time: 2, Active: true})
			for round, want := range []bool{true, false} {
				if n, err := memT.ReconcileRound(); err != nil || (n > 0) != want {
					t.Fatalf("round %d repaired %d (%v); want repairs only in round 0", round, n, err)
				}
			}
			if memT.Passes() == before {
				t.Fatal("the repair charged no passes")
			}
			for _, ne := range st.DumpRange(0, 36) {
				if ne.E.Active && (ne.E.Port == "alpha" && ne.E.Addr != alpha || ne.E.Port == "beta" && !slices.Contains(bT, ne.Node) ||
					ne.E.Port == "gamma" && ne.E.ServerID == alphaID) {
					t.Fatalf("node %d still holds %+v after reconciliation", ne.Node, ne.E)
				}
			}
		})
	}
}

// TestAntiEntropyBackgroundLoop checks the StartReconcile loop heals
// corruption without explicit rounds and that Close stops it cleanly.
func TestAntiEntropyBackgroundLoop(t *testing.T) {
	memT := must(NewMemTransport(topology.Complete(16), rendezvous.Checkerboard(16), 0))
	defer memT.Close()
	ref := must(memT.Register("alpha", 5))
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
