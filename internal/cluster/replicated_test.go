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

// mkReplicated builds the r-fold replicated checkerboard over n nodes.
func mkReplicated(t *testing.T, n, r int) *strategy.Replicated {
	t.Helper()
	rp, err := strategy.NewReplicated(rendezvous.Checkerboard(n), r)
	if err != nil {
		t.Fatal(err)
	}
	return rp
}

// fixedOf is rp's geometry as a fixed layout: its base at full
// membership, rp.Replicas()-fold.
func fixedOf(t testing.TB, rp *strategy.Replicated) Layout {
	t.Helper()
	lay, err := FixedLayout(rp.N(), rp.Base(), rp.Replicas())
	if err != nil {
		t.Fatal(err)
	}
	return lay
}

// weightedOf is the fixed layout of w's base with w laid over it.
func weightedOf(t testing.TB, w *strategy.Weighted) Layout {
	t.Helper()
	lay, err := WeightedLayout(w)
	if err != nil {
		t.Fatal(err)
	}
	return lay
}

// elasticOf is the elastic layout starting at ep.
func elasticOf(ep *strategy.Epoch) Layout { return Layout{Epoch: ep, Elastic: true} }

// replica0Rendezvous returns the base-family rendezvous set of a
// (server node, client node) pair.
func replica0Rendezvous(rp *strategy.Replicated, server, client graph.NodeID) []graph.NodeID {
	base := rp.Base()
	return rendezvous.Intersect(base.Post(server), base.Query(client))
}

// TestReplicatedStoreUnionPostings checks a registration on the
// replicated fast path lands at every replica family's rendezvous
// nodes, so any family's query flood can answer for it.
func TestReplicatedStoreUnionPostings(t *testing.T) {
	n := 36
	rp := mkReplicated(t, n, 2)
	memT, err := NewLayoutMemTransport(topology.Complete(n), fixedOf(t, rp), 0)
	if err != nil {
		t.Fatal(err)
	}
	server := graph.NodeID(7)
	if _, err := memT.Register("svc", server); err != nil {
		t.Fatal(err)
	}
	for k := 0; k < rp.Replicas(); k++ {
		for _, v := range rp.Replica(k).Post(server) {
			if _, ok := memT.Store().Get(v, "svc"); !ok {
				t.Fatalf("replica %d posting target %d holds no entry", k, v)
			}
		}
	}
	if got := memT.Store().NodeSize(rp.Replica(1).Post(server)[0]); got != 1 {
		t.Fatalf("replica-1 rendezvous node size = %d, want 1", got)
	}
}

// TestReplicatedSimMemEquivalence drives the replicated mode through
// the paper-exact simulator and the fast path on a complete topology
// and demands identical answers and identical pass charges — healthy
// floods first, then the failure path: with a replica-0 rendezvous
// node crashed on both, locates fall through to replica 1 on both, at
// the same total charge (base flood paid in vain + replica-1 flood +
// replies).
func TestReplicatedSimMemEquivalence(t *testing.T) {
	n := 36
	g := topology.Complete(n)
	rp := mkReplicated(t, n, 2)
	simT, err := NewLayoutSimTransport(g, fixedOf(t, rp), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer simT.Close()
	memT, err := NewLayoutMemTransport(g, fixedOf(t, rp), 0)
	if err != nil {
		t.Fatal(err)
	}

	servers := map[core.Port]graph.NodeID{"alpha": 7, "beta": 29}
	for port, node := range servers {
		simBefore, memBefore := simT.Passes(), memT.Passes()
		if _, err := simT.Register(port, node); err != nil {
			t.Fatal(err)
		}
		if _, err := memT.Register(port, node); err != nil {
			t.Fatal(err)
		}
		if sc, mc := simT.Passes()-simBefore, memT.Passes()-memBefore; sc != mc {
			t.Fatalf("register %q: sim charged %d passes (union post), mem %d", port, sc, mc)
		}
	}

	checkLocates := func(stage string, skip graph.NodeID) {
		t.Helper()
		for c := 0; c < n; c += 3 {
			client := graph.NodeID(c)
			if client == skip {
				continue // a crashed client legitimately cannot query
			}
			for port := range servers {
				simBefore, memBefore := simT.Passes(), memT.Passes()
				e1, err1 := simT.Locate(client, port)
				e2, err2 := memT.Locate(client, port)
				if err1 != nil || err2 != nil {
					t.Fatalf("%s: locate %q from %d: sim err=%v mem err=%v", stage, port, client, err1, err2)
				}
				if e1.Addr != e2.Addr || e1.ServerID != e2.ServerID {
					t.Fatalf("%s: locate %q from %d: sim %+v != mem %+v", stage, port, client, e1, e2)
				}
				if sc, mc := simT.Passes()-simBefore, memT.Passes()-memBefore; sc != mc {
					t.Fatalf("%s: locate %q from %d: sim charged %d passes, mem %d", stage, port, client, sc, mc)
				}
			}
		}
	}
	checkLocates("healthy", -1)

	// Kill the replica-0 rendezvous of ("alpha", client 1) on both
	// transports; every locate must still succeed on both, with
	// identical fallthrough charges, and replication must have made the
	// two families' meeting points disjoint so the victim cannot also
	// be the replica-1 rendezvous.
	victim := replica0Rendezvous(rp, servers["alpha"], 1)[0]
	if err := simT.Crash(victim); err != nil {
		t.Fatal(err)
	}
	if err := memT.Crash(victim); err != nil {
		t.Fatal(err)
	}
	checkLocates("one rendezvous crashed", victim)
}

// TestReplicatedMemSurvivesAnySingleCrash pins the r=2 availability
// claim on the fast path: whichever single node dies, every (client,
// port) locate still succeeds, resolved by replica 0 or by one
// fallthrough to replica 1.
func TestReplicatedMemSurvivesAnySingleCrash(t *testing.T) {
	n := 36
	rp := mkReplicated(t, n, 2)
	memT, err := NewLayoutMemTransport(topology.Complete(n), fixedOf(t, rp), 0)
	if err != nil {
		t.Fatal(err)
	}
	refs := make([]ServerRef, 0, 2)
	for port, node := range map[core.Port]graph.NodeID{"alpha": 7, "beta": 29} {
		ref, err := memT.Register(port, node)
		if err != nil {
			t.Fatal(err)
		}
		refs = append(refs, ref)
	}
	for victim := 0; victim < n; victim++ {
		if err := memT.Crash(graph.NodeID(victim)); err != nil {
			t.Fatal(err)
		}
		for c := 0; c < n; c++ {
			client := graph.NodeID(c)
			if client == graph.NodeID(victim) {
				continue // a crashed client legitimately cannot query
			}
			for _, ref := range refs {
				if _, err := memT.Locate(client, ref.Port()); err != nil {
					t.Fatalf("victim %d: locate %q from %d failed: %v", victim, ref.Port(), client, err)
				}
			}
		}
		if err := memT.Restore(graph.NodeID(victim)); err != nil {
			t.Fatal(err)
		}
		// The restored node lost its volatile cache; repost so the next
		// iteration starts from full replication again — the repair
		// duty the net transport's repair loop automates.
		for _, ref := range refs {
			if err := ref.Repost(); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestReplicatedLocateBatchFallthrough checks the batched locate path
// falls through per request: a batch mixing healthy pairs, pairs whose
// replica-0 rendezvous is crashed, and a nonexistent port must return
// the same answers and charge the same total as the equivalent
// sequence of single locates.
func TestReplicatedLocateBatchFallthrough(t *testing.T) {
	n := 36
	g := topology.Complete(n)
	rp := mkReplicated(t, n, 2)
	mkT := func() *MemTransport {
		memT, err := NewLayoutMemTransport(g, fixedOf(t, rp), 0)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := memT.Register("alpha", 7); err != nil {
			t.Fatal(err)
		}
		return memT
	}
	batchT, seqT := mkT(), mkT()
	victim := replica0Rendezvous(rp, 7, 1)[0]
	for _, tr := range []*MemTransport{batchT, seqT} {
		if err := tr.Crash(victim); err != nil {
			t.Fatal(err)
		}
		tr.ResetPasses()
	}

	var reqs []LocateReq
	for c := 0; c < n; c += 4 {
		reqs = append(reqs,
			LocateReq{Client: graph.NodeID(c), Port: "alpha"},
			LocateReq{Client: graph.NodeID(c), Port: "nope"})
	}
	batchRes := make([]LocateRes, len(reqs))
	batchT.LocateBatch(reqs, batchRes)
	for i, r := range reqs {
		e, err := seqT.Locate(r.Client, r.Port)
		if (err == nil) != (batchRes[i].Err == nil) {
			t.Fatalf("req %d (%+v): batch err=%v single err=%v", i, r, batchRes[i].Err, err)
		}
		if err == nil && (e.Addr != batchRes[i].Entry.Addr || e.ServerID != batchRes[i].Entry.ServerID) {
			t.Fatalf("req %d (%+v): batch %+v != single %+v", i, r, batchRes[i].Entry, e)
		}
		if r.Port == "alpha" && batchRes[i].Err != nil {
			t.Fatalf("req %d: locate alpha from %d failed on the failure path: %v", i, r.Client, batchRes[i].Err)
		}
	}
	if bp, sp := batchT.Passes(), seqT.Passes(); bp != sp {
		t.Fatalf("batch charged %d passes, sequence %d", bp, sp)
	}
}

// TestClusterReplicatedFallthroughMetrics runs the full serving layer
// (hints on) over a replicated fast path with a crashed rendezvous
// node: every locate still succeeds, the metrics report full
// availability with a nonzero fallthrough count, and hinted answers
// stay equal to unhinted ones.
func TestClusterReplicatedFallthroughMetrics(t *testing.T) {
	n := 36
	g := topology.Complete(n)
	rp := mkReplicated(t, n, 2)
	memT, err := NewLayoutMemTransport(g, fixedOf(t, rp), 0)
	if err != nil {
		t.Fatal(err)
	}
	plainT, err := NewLayoutMemTransport(g, fixedOf(t, rp), 0)
	if err != nil {
		t.Fatal(err)
	}
	c := New(memT, Options{Hints: true})
	defer c.Close()
	if _, err := c.Register("alpha", 7); err != nil {
		t.Fatal(err)
	}
	if _, err := plainT.Register("alpha", 7); err != nil {
		t.Fatal(err)
	}
	victim := replica0Rendezvous(rp, 7, 1)[0]
	if err := memT.Crash(victim); err != nil {
		t.Fatal(err)
	}
	if err := plainT.Crash(victim); err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 3; round++ {
		for cl := 0; cl < n; cl += 2 {
			if cl == int(victim) {
				continue
			}
			hinted, err := c.Locate(graph.NodeID(cl), "alpha")
			if err != nil {
				t.Fatalf("round %d client %d: %v", round, cl, err)
			}
			plain, err := plainT.Locate(graph.NodeID(cl), "alpha")
			if err != nil {
				t.Fatal(err)
			}
			if hinted.Addr != plain.Addr || hinted.ServerID != plain.ServerID {
				t.Fatalf("round %d client %d: hinted %+v != plain %+v", round, cl, hinted, plain)
			}
		}
	}
	m := c.Metrics()
	if m.Errors != 0 || m.Availability != 1 {
		t.Fatalf("degraded cluster lost availability: %+v", m)
	}
	if m.ReplicaFallthroughs == 0 {
		t.Fatalf("no replica fallthroughs recorded despite a dead rendezvous: %+v", m)
	}
	if m.HintHits == 0 {
		t.Fatalf("no hint hits on the replicated path: %+v", m)
	}
}

// TestClusterHintRetriesNextReplica pins the hint-invalidation order:
// a hint resolved by replica 0 whose generation was bumped by a crash
// re-floods starting at replica 1 (wrapping), so the family the crash
// most likely broke is retried last.
func TestClusterHintRetriesNextReplica(t *testing.T) {
	n := 36
	g := topology.Complete(n)
	rp := mkReplicated(t, n, 2)
	memT, err := NewLayoutMemTransport(g, fixedOf(t, rp), 0)
	if err != nil {
		t.Fatal(err)
	}
	c := New(memT, Options{Hints: true, DisableCoalescing: true})
	defer c.Close()
	if _, err := c.Register("alpha", 7); err != nil {
		t.Fatal(err)
	}
	client := graph.NodeID(1)
	if _, err := c.Locate(client, "alpha"); err != nil {
		t.Fatal(err)
	}
	// The cached hint was resolved by replica 0. Crash its rendezvous
	// (bumping every generation): the next locate must skip the probe,
	// start the flood at replica 1 and succeed without ever reading the
	// dead family.
	victim := replica0Rendezvous(rp, 7, client)[0]
	if err := memT.Crash(victim); err != nil {
		t.Fatal(err)
	}
	before := memT.Passes()
	e, err := c.Locate(client, "alpha")
	if err != nil {
		t.Fatal(err)
	}
	if e.Addr != 7 {
		t.Fatalf("post-crash locate resolved %+v, want addr 7", e)
	}
	charged := memT.Passes() - before
	// Replica 1's flood cost from the client plus one reply from the
	// replica-1 rendezvous: the stale-hint retry went to the next
	// family first, not back through replica 0.
	routing := memT.routing
	targets := rp.Replica(1).Query(client)
	want, rerr := routing.MulticastCost(client, targets)
	if rerr != nil {
		t.Fatal(rerr)
	}
	rv := rendezvous.Intersect(rp.Replica(1).Post(7), targets)
	wantTotal := int64(want)
	for range rv {
		wantTotal += int64(routing.Dist(rv[0], client))
	}
	if charged != wantTotal {
		t.Fatalf("stale-hint retry charged %d passes, want %d (replica-1 flood only)", charged, wantTotal)
	}
	if m := c.Metrics(); m.ReplicaFallthroughs != 0 {
		t.Fatalf("retry-next-replica counted as fallthrough depth >0: %+v", m)
	}
}

// TestReplicatedTransportErrors pins constructor and replica-bounds
// validation across the replicated API.
func TestReplicatedTransportErrors(t *testing.T) {
	if _, err := NewLayoutMemTransport(topology.Complete(9), Layout{}, 0); err == nil {
		t.Fatal("nil Replicated accepted by mem")
	}
	if _, err := NewLayoutSimTransport(topology.Complete(9), Layout{}, core.Options{}); err == nil {
		t.Fatal("nil Replicated accepted by sim")
	}
	rp := mkReplicated(t, 9, 2)
	memT, err := NewLayoutMemTransport(topology.Complete(9), fixedOf(t, rp), 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := memT.LocateReplica(0, "x", 2); err == nil || errors.Is(err, core.ErrNotFound) {
		t.Fatalf("out-of-range replica: %v; want a range error", err)
	}
}

// resizingFamilies is a replicated transport caught by a resize between
// two floods of one locate: it serves one family until the first flood
// and two after it, and only the second — the old epoch's, which a
// published resize puts behind the new epoch's still-empty ones — holds
// the posting.
type resizingFamilies struct{ tried []int }

func (f *resizingFamilies) Replicas() int { return min(len(f.tried)+1, 2) }

func (f *resizingFamilies) LocateReplica(_ graph.NodeID, port core.Port, k int) (core.Entry, error) {
	f.tried = append(f.tried, k)
	if k == 1 {
		return core.Entry{Port: port, Addr: 4, Active: true}, nil
	}
	return core.Entry{}, core.ErrNotFound
}

// TestFallthroughRecountsFamilies pins the fallthrough against a resize
// published mid-locate: the miss on the new epoch's family falls through
// to the old epoch's, which the locate did not know of when it started,
// instead of ending the locate not-found.
func TestFallthroughRecountsFamilies(t *testing.T) {
	f := &resizingFamilies{}
	e, k, err := locateFallthrough(f, 0, "svc", 0)
	if err != nil || k != 1 || e.Addr != 4 || len(f.tried) != 2 {
		t.Fatalf("locate = %+v from family %d, %v after floods of families %v; want address 4 from family 1 after [0 1]", e, k, err, f.tried)
	}
}
