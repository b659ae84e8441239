package cluster

import (
	"fmt"
	"sync/atomic"

	"matchmake/internal/core"
	"matchmake/internal/graph"
	"matchmake/internal/strategy"
)

// setTable is the one geometry a coordinator serves from: an epoch —
// strategy, replication factor and membership, where a bare strategy is
// the seq-1 epoch at full membership with r = 1 — with every node's
// posting set and every replica family's query sets precomputed
// together with their multicast-tree pass costs from the routing
// tables. The coordinator charges the paper's costs from these tables:
// a posting from node v costs postCost[v] passes (the spanning-tree
// edges of P(v)), a family-k query flood from v costs queryCost[k][v],
// and each rendezvous reply is charged its hop distance separately by
// the caller. Tables are immutable once built; the coordinator swaps
// them behind one atomic pointer.
//
// During a dual-epoch migration prev links the retiring epoch's table
// and postings go to the union of both epochs' posting sets, so
// lifecycle postings (and especially tombstones) cover every node
// either epoch's floods can read.
type setTable struct {
	ep        *strategy.Epoch
	post      [][]graph.NodeID // effective posting set per node (union over replica families)
	postCost  []int64
	query     [][][]graph.NodeID // [family][node] query sets
	queryCost [][]int64

	// hot is the weighted-mode overlay (nil when disabled).
	hot *hotOverlay

	// Dual-epoch migration state; all nil outside a migration.
	prev         *setTable
	rm           *strategy.Remap  // prev.ep → ep, the minimal-movement delta
	dualPost     [][]graph.NodeID // post ∪ prev.post, per node
	dualPostCost []int64
}

// hotOverlay is the frequency-weighted mode laid over a table: a cold
// port floods the table's own sets, a promoted port queries the
// post-heavy hot split while its servers post to the base∪hot union
// sets, and a server that has ever posted under the union sets keeps
// doing so (sticky, see coordinator.postSets), so a later tombstone
// always covers every node a stale entry could linger at. The sets are
// precomputed, so promoting a port at runtime changes which table is
// read, never what is computed.
type hotOverlay struct {
	query     [][]graph.NodeID // the hot split's Q(v)
	queryCost []int64
	post      [][]graph.NodeID // base ∪ hot P(v)
	postCost  []int64

	// set is the published hot-port classification, swapped wholesale
	// by SetHotPorts.
	set atomic.Pointer[map[core.Port]bool]
}

// isHot reports whether port currently runs the hot split; never on a
// table without the overlay.
func (h *hotOverlay) isHot(port core.Port) bool {
	if h == nil {
		return false
	}
	m := h.set.Load()
	return m != nil && (*m)[port]
}

// ports returns the currently published hot classification.
func (h *hotOverlay) ports() []core.Port {
	if h == nil {
		return nil
	}
	m := h.set.Load()
	if m == nil {
		return nil
	}
	out := make([]core.Port, 0, len(*m))
	for p := range *m {
		out = append(out, p)
	}
	return out
}

// costedSets precomputes set(v) for every node v of the universe with
// its multicast-tree cost from v.
func costedSets(routing *graph.Routing, what string, set func(graph.NodeID) []graph.NodeID) ([][]graph.NodeID, []int64, error) {
	n := routing.N()
	sets, costs := make([][]graph.NodeID, n), make([]int64, n)
	for v := range sets {
		id := graph.NodeID(v)
		sets[v] = set(id)
		c, err := routing.MulticastCost(id, sets[v])
		if err != nil {
			return nil, nil, fmt.Errorf("cluster: %s of %d: %w", what, v, err)
		}
		costs[v] = int64(c)
	}
	return sets, costs, nil
}

// newSetTable precomputes ep's serving table, with the weighted overlay
// when w is non-nil. When prev is non-nil the result is a dual-epoch
// (migration) state: the remap prev→ep is computed and the posting
// sets are widened to the union of both epochs.
func newSetTable(routing *graph.Routing, ep *strategy.Epoch, w *strategy.Weighted, prev *setTable) (*setTable, error) {
	r := ep.Replicas()
	t := &setTable{ep: ep, query: make([][][]graph.NodeID, r), queryCost: make([][]int64, r)}
	what := fmt.Sprintf("epoch %d ", ep.Seq())
	var err error
	if t.post, t.postCost, err = costedSets(routing, what+"post set", ep.PostSet); err != nil {
		return nil, err
	}
	for k := range t.query {
		t.query[k], t.queryCost[k], err = costedSets(routing, what+"query set",
			func(v graph.NodeID) []graph.NodeID { return ep.QuerySet(v, k) })
		if err != nil {
			return nil, err
		}
	}
	if w != nil {
		h := &hotOverlay{}
		if h.query, h.queryCost, err = costedSets(routing, "hot query set", w.Hot().Query); err != nil {
			return nil, err
		}
		if h.post, h.postCost, err = costedSets(routing, "union post set", w.UnionPost); err != nil {
			return nil, err
		}
		t.hot = h
	}
	if prev != nil {
		if t.rm, err = strategy.NewRemap(prev.ep, ep); err != nil {
			return nil, err
		}
		t.prev = prev
		t.dualPost, t.dualPostCost, err = costedSets(routing, "dual post set",
			func(v graph.NodeID) []graph.NodeID { return unionIDs(t.post[v], prev.post[v]) })
		if err != nil {
			return nil, err
		}
	}
	return t, nil
}

// retired returns a copy of t with the migration state cleared — the
// published state after FinishResize.
func (t *setTable) retired() *setTable {
	r := *t
	r.prev, r.rm, r.dualPost, r.dualPostCost = nil, nil, nil, nil
	return &r
}

// replicas returns the dual-epoch family count: the serving epoch's
// replica families plus, while migrating, the retiring epoch's appended
// after them — which is how the ordinary replica-fallthrough loop
// becomes the dual-epoch locate.
func (t *setTable) replicas() int {
	r := t.ep.Replicas()
	if t.prev != nil {
		r += t.prev.ep.Replicas()
	}
	return r
}

// resolve maps a dual-epoch family index to the owning epoch's table
// and its local family number; tab is nil when k indexes no family
// (out of range, or a retired epoch's, raced by FinishResize).
func (t *setTable) resolve(k int) (tab *setTable, fam int) {
	r := t.ep.Replicas()
	if k >= 0 && k < r {
		return t, k
	}
	if t.prev != nil && k >= r && k < r+t.prev.ep.Replicas() {
		return t.prev, k - r
	}
	return nil, 0
}

// postFor returns the posting targets and multicast cost for a server
// at node under the current phase: the serving epoch's sets normally,
// widened to both epochs' union during a migration.
func (t *setTable) postFor(node graph.NodeID) ([]graph.NodeID, int64) {
	if t.prev != nil {
		return t.dualPost[node], t.dualPostCost[node]
	}
	return t.post[node], t.postCost[node]
}
