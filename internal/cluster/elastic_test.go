package cluster

import (
	"errors"
	"sync"
	"testing"
	"time"

	"matchmake/internal/core"
	"matchmake/internal/graph"
	"matchmake/internal/rendezvous"
	"matchmake/internal/strategy"
	"matchmake/internal/topology"
)

// mkEpoch builds epoch seq over a universe of n nodes with the first
// active of them serving a checkerboard, replicated r-fold.
func mkEpoch(seq uint64, universe, active, r int) *strategy.Epoch {
	return must(strategy.NewEpoch(seq, universe, rendezvous.Checkerboard(active), r))
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
	next := mkEpoch(2, n, 25, 1)
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

// holdPost is a substrate whose first post waits for release.
type holdPost struct {
	substrate
	once          sync.Once
	held, release chan struct{}
}

func (h *holdPost) post(entries []core.Entry, rows []rowKey) {
	h.once.Do(func() { close(h.held); <-h.release })
	h.substrate.post(entries, rows)
}

// TestFinishResizeFencesWrites scripts the race behind the elastic
// resurrection: a Migrate that read the dual-epoch posting sets is held
// at its post while FinishResize expires the retiring epoch's rows. Not
// waiting for it, FinishResize let the post land Active rows at a
// retiring-only node after their expiry; the tombstone missed that node,
// and the epoch that readmits it answered with the deregistered server.
func TestFinishResizeFencesWrites(t *testing.T) {
	tr := must(NewLayoutMemTransport(topology.Complete(16), Layout{Epoch: mkEpoch(1, 16, 16, 1), Elastic: true}, 1))
	defer tr.Close()
	ref := must(tr.Register("svc", 0))
	must(tr.Resize(mkEpoch(2, 16, 9, 1)))
	hold := &holdPost{substrate: tr.sub, held: make(chan struct{}), release: make(chan struct{})}
	tr.sub = hold
	migrated, finished := make(chan error, 1), make(chan error, 1)
	go func() { migrated <- ref.Migrate(1) }()
	<-hold.held
	go func() { finished <- tr.FinishResize() }()
	select {
	case err := <-finished:
		finished <- err // FinishResize did not wait for the write
	case <-time.After(100 * time.Millisecond):
	}
	close(hold.release)
	for _, ch := range []chan error{migrated, finished} {
		if err := <-ch; err != nil {
			t.Fatal(err)
		}
	}
	if err := ref.Deregister(); err != nil {
		t.Fatal(err)
	}
	must(tr.Resize(mkEpoch(3, 16, 16, 1)))
	if err := tr.FinishResize(); err != nil {
		t.Fatal(err)
	}
	for c := range 16 {
		if e, err := tr.Locate(graph.NodeID(c), "svc"); err == nil {
			t.Fatalf("locate from %d named deregistered instance %d at %d (resurrected)", c, e.ServerID, e.Addr)
		}
	}
}
