package cluster

import (
	"errors"
	"fmt"
	"slices"
	"strings"
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
	rp := must(strategy.NewReplicated(rendezvous.Checkerboard(n), r))
	return rp
}

// fixedOf is rp's geometry as a fixed layout: its base at full
// membership, rp.Replicas()-fold.
func fixedOf(t testing.TB, rp *strategy.Replicated) Layout {
	t.Helper()
	lay := must(FixedLayout(rp.N(), rp.Base(), rp.Replicas()))
	return lay
}

// elasticOf is the elastic layout starting at ep.
func elasticOf(ep *strategy.Epoch) Layout { return Layout{Epoch: ep, Elastic: true} }

// TestReplicatedStoreUnionPostings checks a registration on the
// replicated fast path lands at every replica family's rendezvous nodes,
// so any family's flood answers for it, and a replica-1 node holds it.
func TestReplicatedStoreUnionPostings(t *testing.T) {
	r := runHistory(t, "world complete 36 r=2\ncolumns model mem\nregister svc 7\nlocate-replica 0 0-35 svc\nlocate-replica 1 0-35 svc")
	if got := r.cols[1].tr.(*MemTransport).Store().NodeSize(r.lay.Epoch.Replicated().Replica(1).Post(7)[0]); got != 1 {
		t.Fatalf("replica-1 rendezvous node size = %d, want 1", got)
	}
}

// TestReplicatedMemSurvivesAnySingleCrash pins the r=2 availability
// claim: whichever single node dies, every live client still locates
// every port, by replica 0 or one fallthrough to replica 1. The restored
// node lost its cache, so the servers re-post before the next victim.
func TestReplicatedMemSurvivesAnySingleCrash(t *testing.T) {
	var b strings.Builder
	for v := range 36 {
		fmt.Fprintf(&b, "crash %d\nlocate 0-35 alpha,beta\nrestore %d\nrepost alpha\nrepost beta\n", v, v)
	}
	if r := runHistory(t, "world complete 36 r=2\ncolumns model mem\nregister alpha 7\nregister beta 29\n"+b.String()); r.tally.missed != 0 {
		t.Fatalf("%d locates missed with a single node down", r.tally.missed)
	}
}

// TestClusterHintRetriesNextReplica pins the hint-invalidation order: a
// hint resolved by replica 0 whose generation a crash of its rendezvous
// (node 6) bumped re-floods starting at replica 1, so the family the
// crash most likely broke is retried last: the retry costs exactly the
// replica-1 flood, where the bare fallthrough pays replica 0's in vain.
func TestClusterHintRetriesNextReplica(t *testing.T) {
	r := runHistory(t, "world complete 36 r=2\ncolumns model mem+hints mem\nregister alpha 7\nlocate 1 alpha\ncrash 6\nlocate 1 alpha")
	retry := r.last[1][0].cost
	r.more("locate-replica 1 1 alpha")
	if flood := r.last[2][0].cost; retry != flood {
		t.Fatalf("stale-hint retry charged %d passes, the replica-1 flood %d", retry, flood)
	}
	if m := r.cols[1].cl.Metrics(); m.ReplicaFallthroughs != 0 {
		t.Fatalf("retry-next-replica counted as fallthrough depth >0: %+v", m)
	}
}

// TestReplicatedTransportErrors pins constructor and replica-bounds
// validation across the replicated API.
func TestReplicatedTransportErrors(t *testing.T) {
	if _, err := NewLayoutMemTransport(topology.Complete(9), Layout{}, 0); err == nil {
		t.Fatal("nil Replicated accepted by mem")
	}
	if _, err := NewLayoutSimTransport(topology.Complete(9), Layout{}); err == nil {
		t.Fatal("nil Replicated accepted by sim")
	}
	rp := mkReplicated(t, 9, 2)
	memT := must(NewLayoutMemTransport(topology.Complete(9), fixedOf(t, rp), 0))
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
// published mid-locate, for a locate and a locate-all alike: the miss on
// the new epoch's family falls through to the old epoch's, which the
// locate did not know of when it started, instead of ending not-found.
func TestFallthroughRecountsFamilies(t *testing.T) {
	for name, locate := range map[string]func(f *resizingFamilies) (core.Entry, error){
		"locate": func(f *resizingFamilies) (core.Entry, error) {
			e, _, err := locateFallthrough(f, 0, "svc", 0)
			return e, err
		},
		"locate-all": func(f *resizingFamilies) (core.Entry, error) {
			all, err := locateAll(f, func(k int) ([]core.Entry, error) {
				e, err := f.LocateReplica(0, "svc", k)
				return []core.Entry{e}, err
			})
			return all[0], err
		},
	} {
		f := &resizingFamilies{}
		if e, err := locate(f); err != nil || e.Addr != 4 || !slices.Equal(f.tried, []int{0, 1}) {
			t.Errorf("%s = %+v, %v after floods of families %v; want address 4 after [0 1]", name, e, err, f.tried)
		}
	}
}
