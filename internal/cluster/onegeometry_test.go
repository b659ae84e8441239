package cluster

import (
	"errors"
	"fmt"
	"sort"
	"testing"

	"matchmake/internal/core"
	"matchmake/internal/graph"
	"matchmake/internal/rendezvous"
	"matchmake/internal/topology"
)

// TestOneGeometryOneTransport pins that the constructor is not part of
// the geometry: a transport built from (strategy, replicas) and one
// built from the equivalent seq-1 full-membership epoch with elastic
// membership serve the same P, Q pair, so one scripted history —
// register, locate, locate-replica, locate-all, migrate, deregister,
// crash/restore, then an armed adversary — must produce the same
// answers, the same pass total after every phase and the same set of
// forged answers on both, on either substrate. The adversary is the
// step that told them apart: it aimed its lies with a replica geometry
// only the strategy-built transports had, so the epoch-built ones'
// family filter discarded some.
func TestOneGeometryOneTransport(t *testing.T) {
	const n = 36
	g, strat := topology.Complete(n), rendezvous.Checkerboard(n)
	for _, r := range []int{1, 3} {
		t.Run(fmt.Sprintf("r=%d", r), func(t *testing.T) {
			fixed, err := FixedLayout(n, strat, r)
			if err != nil {
				t.Fatal(err)
			}
			elastic := elasticOf(mkEpoch(t, 1, n, n, r))
			suffix := ""
			if r > 1 {
				suffix = fmt.Sprintf("-r%d", r)
			}
			builds := []struct {
				name  string
				build func() (coordinated, error)
			}{
				{"mem" + suffix, func() (coordinated, error) {
					if r == 1 {
						return NewMemTransport(g, strat, 0)
					}
					return NewLayoutMemTransport(g, fixed, 0)
				}},
				{"mem-elastic", func() (coordinated, error) { return NewLayoutMemTransport(g, elastic, 0) }},
				{"net" + suffix, func() (coordinated, error) {
					if r == 1 {
						return NewNetTransport(g, strat, loopbackNodes(t, n, 3), NetOptions{})
					}
					return NewLayoutNetTransport(g, fixed, loopbackNodes(t, n, 3), NetOptions{})
				}},
				{"net-elastic", func() (coordinated, error) {
					return NewLayoutNetTransport(g, elastic, loopbackNodes(t, n, 3), NetOptions{})
				}},
			}
			var refName string
			var ref []string
			for _, b := range builds {
				tr, err := b.build()
				if err != nil {
					t.Fatal(err)
				}
				defer tr.Close()
				if tr.Name() != b.name {
					t.Fatalf("transport names itself %q, want %q", tr.Name(), b.name)
				}
				log := geometryScript(t, tr, n, r)
				if ref == nil {
					refName, ref = b.name, log
					continue
				}
				for i := 0; i < len(ref) || i < len(log); i++ {
					var x, y string
					if i < len(ref) {
						x = ref[i]
					}
					if i < len(log) {
						y = log[i]
					}
					if x != y {
						t.Fatalf("step %d diverges:\n%-12s %s\n%-12s %s", i, refName, x, b.name, y)
					}
				}
			}
		})
	}
}

// geometryScript drives the scripted history over tr and returns one
// line per observed outcome. r is the replication factor in play.
func geometryScript(t *testing.T, tr coordinated, n, r int) []string {
	t.Helper()
	var log []string
	// A forged answer advertises whatever address gets it past the
	// transport's read filter, and a fixed r = 1 transport has no filter
	// to get past: there the advertised address is the one field of an
	// answer the two constructions may legitimately differ in.
	show := func(e core.Entry) string {
		if r == 1 && e.Time == ForgedTime {
			e.Addr = -1
		}
		return fmt.Sprintf("%+v", e)
	}
	outcome := func(e core.Entry, err error) string {
		switch {
		case err == nil:
			return show(e)
		case errors.Is(err, core.ErrNotFound):
			return "not found"
		}
		return "error: " + err.Error()
	}
	ports := []core.Port{"alpha", "beta", "gamma", "delta"}
	sweep := func(phase string) {
		for _, port := range ports {
			for cl := 0; cl < n; cl++ {
				e, err := tr.Locate(graph.NodeID(cl), port)
				log = append(log, fmt.Sprintf("%s: locate %s from %d: %s", phase, port, cl, outcome(e, err)))
			}
		}
		log = append(log, fmt.Sprintf("%s: passes %d", phase, tr.Passes()))
	}

	// The homes the adversary will lie about end checkerboard rows, so
	// "the next node" is no co-member of their posting sets: a lie aimed
	// without the family geometry does not survive a read filter.
	refs, err := tr.PostBatch([]Registration{{Port: "alpha", Node: 7}, {Port: "beta", Node: 17}, {Port: "gamma", Node: 35}})
	if err != nil {
		t.Fatal(err)
	}
	delta, err := tr.Register("delta", 12)
	if err != nil {
		t.Fatal(err)
	}
	sweep("registered")

	for k := 0; k < r; k++ {
		for cl := 0; cl < n; cl += 5 {
			e, err := tr.LocateReplica(graph.NodeID(cl), "beta", k)
			log = append(log, fmt.Sprintf("locate-replica %d beta from %d: %s", k, cl, outcome(e, err)))
		}
	}
	for _, port := range ports {
		all, err := tr.LocateAll(3, port)
		sort.Slice(all, func(i, j int) bool { return all[i].ServerID < all[j].ServerID })
		log = append(log, fmt.Sprintf("locate-all %s: %v %v", port, all, err))
	}
	log = append(log, fmt.Sprintf("reads: passes %d", tr.Passes()))

	if err := refs[0].Migrate(23); err != nil {
		t.Fatal(err)
	}
	if err := delta.Deregister(); err != nil {
		t.Fatal(err)
	}
	sweep("migrated")

	for _, v := range []graph.NodeID{1, 17, 20} {
		if err := tr.Crash(v); err != nil {
			t.Fatal(err)
		}
	}
	sweep("crashed")
	for _, v := range []graph.NodeID{1, 17, 20} {
		if err := tr.Restore(v); err != nil {
			t.Fatal(err)
		}
	}
	for _, ref := range refs {
		if err := ref.Repost(); err != nil {
			t.Fatal(err)
		}
	}
	sweep("restored")

	lies, err := tr.Arm(ArmOptions{Seed: 1, Liars: 6, Classes: []ForgeClass{ForgeFabricate, ForgeStale}})
	if err != nil {
		t.Fatal(err)
	}
	log = append(log, fmt.Sprintf("armed %d lies at %v", lies, tr.ArmedNodes()))
	forged := 0
	for _, port := range ports[:3] {
		for cl := 0; cl < n; cl++ {
			for k := 0; k < r; k++ {
				e, from, err := tr.LocateReplicaAt(graph.NodeID(cl), port, k)
				if err == nil && e.Time == ForgedTime {
					forged++
					log = append(log, fmt.Sprintf("forged: %s from %d family %d by %d: %s", port, cl, k, from, show(e)))
				}
			}
		}
	}
	if forged == 0 {
		t.Fatal("no lie surfaced: the adversary is armed wrong")
	}
	log = append(log, fmt.Sprintf("armed: %d forged answers, passes %d", forged, tr.Passes()))
	if err := tr.Disarm(); err != nil {
		t.Fatal(err)
	}
	sweep("disarmed")
	return log
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
