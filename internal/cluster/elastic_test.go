package cluster

import (
	"errors"
	"testing"

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

// TestElasticIdentityResizeMovesNothing pins the minimal-movement
// contract's floor: a transition between identically-shaped epochs
// migrates zero postings and bumps no hint generation.
func TestElasticIdentityResizeMovesNothing(t *testing.T) {
	r := runHistory(t, "world complete 36 elastic\ncolumns model mem\nregister svc 5")
	gen := r.cols[1].tr.Gen("svc")
	r.more("resize 2 36 1\nfinish-resize\nlocate 3 svc")
	if r.cols[1].tr.Gen("svc") != gen {
		t.Fatal("identity resize bumped the port generation")
	}
}

// TestFixedMembershipContract pins what is left of the fixed/elastic
// distinction on the wire and at the API: a fixed r = 1 transport's
// floods travel as the unscoped opQuery, never opQueryAll, and Resize
// and FinishResize on a bare-strategy or weighted transport answer
// ErrNotElastic.
func TestFixedMembershipContract(t *testing.T) {
	const n = 36
	g, strat := topology.Complete(n), rendezvous.Checkerboard(n)
	addrs, servers := loopbackServers(t, n, 3)
	netT, err := NewNetTransport(g, strat, addrs, NetOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer netT.Close()
	if _, err := netT.Register("alpha", 7); err != nil {
		t.Fatal(err)
	}
	reqs, res := make([]LocateReq, n), make([]LocateRes, n)
	for cl := range reqs {
		if _, err := netT.Locate(graph.NodeID(cl), "alpha"); err != nil {
			t.Fatal(err)
		}
		reqs[cl] = LocateReq{Client: graph.NodeID(cl), Port: "alpha"}
	}
	netT.LocateBatch(reqs, res)
	var query, queryAll int64
	for _, s := range servers {
		ops := s.OpCounts()
		query, queryAll = query+ops["query"], queryAll+ops["query_all"]
	}
	if query == 0 || queryAll != 0 {
		t.Fatalf("fixed r=1 locates served as %d query and %d query_all frames, want only query", query, queryAll)
	}

	weightedT := newWeightedTransport(t, n)
	defer weightedT.Close()
	next := mkEpoch(t, 2, n, 25, 1)
	for _, tr := range []ElasticTransport{netT, weightedT} {
		if _, err := tr.Resize(next); !errors.Is(err, ErrNotElastic) {
			t.Fatalf("Resize on a fixed transport: %v, want ErrNotElastic", err)
		}
		if err := tr.FinishResize(); !errors.Is(err, ErrNotElastic) {
			t.Fatalf("FinishResize on a fixed transport: %v, want ErrNotElastic", err)
		}
		if tr.Elastic() || tr.Epoch() != 0 {
			t.Fatalf("fixed transport reports elastic=%v epoch=%d", tr.Elastic(), tr.Epoch())
		}
	}
}
