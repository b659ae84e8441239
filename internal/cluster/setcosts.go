package cluster

import (
	"fmt"
	"sync/atomic"

	"matchmake/internal/core"
	"matchmake/internal/graph"
	"matchmake/internal/rendezvous"
	"matchmake/internal/strategy"
)

// stratSets holds the per-node posting and query sets of a strategy
// together with their multicast-tree pass costs, precomputed once from
// the routing tables. The coordinator charges the paper's costs from
// these tables: a posting from node v costs postCost[v] passes (the
// spanning-tree edges of P(v)), a query flood from v costs
// queryCost[v], and each rendezvous reply is charged its hop distance
// separately by the caller.
//
// When a strategy.Weighted is supplied, the hot split's query sets and
// the base∪hot union posting sets are precomputed too, so promoting a
// port at runtime changes which table is read, never what is computed.
type stratSets struct {
	post      [][]graph.NodeID // P(v), precomputed
	query     [][]graph.NodeID // Q(v), precomputed
	postCost  []int64          // multicast-tree edges of P(v) from v
	queryCost []int64          // multicast-tree edges of Q(v) from v

	// Weighted-mode tables (nil when no strategy.Weighted is in play).
	hotQuery      [][]graph.NodeID
	hotQueryCost  []int64
	unionPost     [][]graph.NodeID
	unionPostCost []int64

	// Replicated-mode tables (nil when no strategy.Replicated is in
	// play): repQuery[k][v] is replica k's query set at node v with its
	// multicast cost, repQuery[0] aliasing the base query tables. In
	// this mode post/postCost hold the union posting sets (∪ₖ Pₖ), so
	// one posting multicast serves every replica family.
	repQuery     [][][]graph.NodeID
	repQueryCost [][]int64
}

// hotTables couples the precomputed set tables with the published
// hot-port classification and implements the coordinator's static
// set-selection rules: a cold port floods the base sets, a promoted
// port queries the post-heavy hot split while its servers post to the
// union sets, and a server that has ever posted under the union sets
// keeps doing so (sticky), so a later tombstone always covers every
// node a stale entry could linger at.
type hotTables struct {
	sets     *stratSets
	weighted *strategy.Weighted // nil when weighted mode is disabled

	// hotSet is the published hot-port classification, swapped
	// wholesale by SetHotPorts.
	hotSet atomic.Pointer[map[core.Port]bool]
}

// isHot reports whether port currently runs the hot split.
func (h *hotTables) isHot(port core.Port) bool {
	m := h.hotSet.Load()
	return m != nil && (*m)[port]
}

// publish swaps in a new hot classification.
func (h *hotTables) publish(m *map[core.Port]bool) { h.hotSet.Store(m) }

// hotPorts returns the currently published hot classification.
func (h *hotTables) hotPorts() []core.Port {
	m := h.hotSet.Load()
	if m == nil {
		return nil
	}
	out := make([]core.Port, 0, len(*m))
	for p := range *m {
		out = append(out, p)
	}
	return out
}

// replicas returns the number of replica families in the tables (1 when
// unreplicated).
func (h *hotTables) replicas() int {
	if h.sets.repQuery == nil {
		return 1
	}
	return len(h.sets.repQuery)
}

// replicaQuerySets returns replica k's query flood targets and multicast
// cost for a locate of port from client. Replica 0 is the base strategy
// under the current classification (a promoted port floods the hot
// split; weighting is mutually exclusive with replication anyway);
// higher replicas read the replicated-mode tables.
func (h *hotTables) replicaQuerySets(client graph.NodeID, port core.Port, k int) ([]graph.NodeID, int64) {
	switch {
	case k > 0 && h.sets.repQuery != nil:
		return h.sets.repQuery[k][client], h.sets.repQueryCost[k][client]
	case h.weighted != nil && h.isHot(port):
		return h.sets.hotQuery[client], h.sets.hotQueryCost[client]
	}
	return h.sets.query[client], h.sets.queryCost[client]
}

// postSets returns the posting targets and multicast cost for a server
// of port posting from node; postedHot is the server's sticky
// posted-under-union flag, set here the first time the union sets are
// chosen.
func (h *hotTables) postSets(postedHot *atomic.Bool, port core.Port, node graph.NodeID) ([]graph.NodeID, int64) {
	if h.weighted == nil {
		return h.sets.post[node], h.sets.postCost[node]
	}
	if postedHot.Load() || h.isHot(port) {
		postedHot.Store(true)
		return h.sets.unionPost[node], h.sets.unionPostCost[node]
	}
	return h.sets.post[node], h.sets.postCost[node]
}

// newStratSets precomputes the set/cost tables for strat (already
// Precompute-wrapped) over g with routing, plus the weighted tables when
// w is non-nil and the replicated tables when rp is non-nil (in which
// case the posting tables hold the union sets and strat must be rp's
// base). Weighted and replicated modes are mutually exclusive.
func newStratSets(g *graph.Graph, routing *graph.Routing, strat rendezvous.Strategy, w *strategy.Weighted, rp *strategy.Replicated) (*stratSets, error) {
	if w != nil && rp != nil {
		return nil, fmt.Errorf("cluster: weighted and replicated modes are mutually exclusive")
	}
	n := g.N()
	s := &stratSets{
		post:      make([][]graph.NodeID, n),
		query:     make([][]graph.NodeID, n),
		postCost:  make([]int64, n),
		queryCost: make([]int64, n),
	}
	for v := 0; v < n; v++ {
		id := graph.NodeID(v)
		if rp != nil {
			s.post[v] = rp.UnionPost(id)
		} else {
			s.post[v] = strat.Post(id)
		}
		s.query[v] = strat.Query(id)
		pc, err := routing.MulticastCost(id, s.post[v])
		if err != nil {
			return nil, fmt.Errorf("cluster: post set of %d: %w", v, err)
		}
		qc, err := routing.MulticastCost(id, s.query[v])
		if err != nil {
			return nil, fmt.Errorf("cluster: query set of %d: %w", v, err)
		}
		s.postCost[v] = int64(pc)
		s.queryCost[v] = int64(qc)
	}
	if rp != nil && rp.Replicas() > 1 {
		r := rp.Replicas()
		s.repQuery = make([][][]graph.NodeID, r)
		s.repQueryCost = make([][]int64, r)
		s.repQuery[0], s.repQueryCost[0] = s.query, s.queryCost
		for k := 1; k < r; k++ {
			rep := rp.Replica(k)
			s.repQuery[k] = make([][]graph.NodeID, n)
			s.repQueryCost[k] = make([]int64, n)
			for v := 0; v < n; v++ {
				id := graph.NodeID(v)
				s.repQuery[k][v] = rep.Query(id)
				qc, err := routing.MulticastCost(id, s.repQuery[k][v])
				if err != nil {
					return nil, fmt.Errorf("cluster: replica %d query set of %d: %w", k, v, err)
				}
				s.repQueryCost[k][v] = int64(qc)
			}
		}
	}
	if w != nil {
		hot := w.Hot()
		s.hotQuery = make([][]graph.NodeID, n)
		s.hotQueryCost = make([]int64, n)
		s.unionPost = make([][]graph.NodeID, n)
		s.unionPostCost = make([]int64, n)
		for v := 0; v < n; v++ {
			id := graph.NodeID(v)
			s.hotQuery[v] = hot.Query(id)
			s.unionPost[v] = w.UnionPost(id)
			qc, err := routing.MulticastCost(id, s.hotQuery[v])
			if err != nil {
				return nil, fmt.Errorf("cluster: hot query set of %d: %w", v, err)
			}
			pc, err := routing.MulticastCost(id, s.unionPost[v])
			if err != nil {
				return nil, fmt.Errorf("cluster: union post set of %d: %w", v, err)
			}
			s.hotQueryCost[v] = int64(qc)
			s.unionPostCost[v] = int64(pc)
		}
	}
	return s, nil
}
