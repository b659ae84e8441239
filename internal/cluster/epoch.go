package cluster

import (
	"errors"
	"fmt"
	"sort"

	"matchmake/internal/core"
	"matchmake/internal/graph"
	"matchmake/internal/strategy"
)

// ErrNotElastic reports an epoch operation on a transport built without
// elastic membership (use the NewElastic* constructors).
var ErrNotElastic = errors.New("cluster: transport has no elastic membership")

// ElasticTransport is implemented by transports supporting
// epoch-versioned elastic membership (strategy.Epoch): the active node
// set — and the rendezvous strategy serving it — can change at runtime
// while locates keep succeeding. A resize is a two-step state machine:
//
//  1. Resize(next) installs the next epoch and begins the dual-epoch
//     migration: every live server re-posts exactly the delta the
//     minimal-movement remap computed (strategy.Remap), and until the
//     old epoch drains a locate floods the new epoch's rendezvous
//     families first, falling through to the old epoch's — the same
//     fallthrough machinery replicated rendezvous uses, with the old
//     epoch's families appended after the new one's.
//  2. FinishResize retires the old epoch: postings that belong only to
//     it expire in place (local garbage collection, no messages) and
//     locates stop falling through.
//
// Hint generations are bumped for moved ports only, so cached addresses
// of unaffected services keep validating by probe across the
// transition.
type ElasticTransport interface {
	// Elastic reports whether elastic membership is enabled; the other
	// methods fail with ErrNotElastic (or return zero) when it is not.
	Elastic() bool
	// Epoch returns the serving epoch's sequence number.
	Epoch() uint64
	// Resizing reports whether a dual-epoch migration is in progress.
	Resizing() bool
	// Resize installs next as the serving epoch and migrates the
	// minimal-movement posting delta, returning the number of (port,
	// rendezvous-node) postings placed — which, absent crashed servers,
	// equals the remap's MovedPosts prediction for the live server
	// homes. It fails when a previous resize is still draining or when
	// a live server is homed outside next's membership (migrate it
	// first).
	Resize(next *strategy.Epoch) (moved int, err error)
	// FinishResize retires the previous epoch once the operator deems
	// the migration drained: old-epoch-only postings are expired
	// locally and the dual-epoch locate path switches off. Call it
	// after in-flight locates from the dual phase have completed.
	FinishResize() error
	// MigratedPosts returns the cumulative count of postings moved by
	// resizes over the transport's lifetime.
	MigratedPosts() int64
	// DualEpochLocates returns the cumulative count of locate floods
	// that were resolved by a retiring epoch's rendezvous family during
	// a dual-epoch phase.
	DualEpochLocates() int64
}

// epochTables is one installed membership epoch on an elastic
// transport: the epoch geometry plus its precomputed per-node set and
// multicast-cost tables, mirroring stratSets for the epoch world.
// During a dual-epoch migration prev links the retiring epoch's tables
// and the posting tables are widened to the union of both epochs'
// posting sets, so lifecycle postings (and especially tombstones) cover
// every node either epoch's floods can read.
type epochTables struct {
	ep        *strategy.Epoch
	post      [][]graph.NodeID // effective posting set per node (union over replica families)
	postCost  []int64
	query     [][][]graph.NodeID // [family][node] query sets
	queryCost [][]int64

	// Dual-epoch migration state; all nil outside a migration.
	prev         *epochTables
	rm           *strategy.Remap  // prev.ep → ep, the minimal-movement delta
	dualPost     [][]graph.NodeID // post ∪ prev.post, per node
	dualPostCost []int64
}

// newEpochTables precomputes ep's serving tables over g. When prev is
// non-nil the result is a dual-epoch (migration) state: the remap
// prev→ep is computed and the posting tables are widened to the union
// of both epochs.
func newEpochTables(g *graph.Graph, routing *graph.Routing, ep *strategy.Epoch, prev *epochTables) (*epochTables, error) {
	n := g.N()
	if ep.Universe() != n {
		return nil, fmt.Errorf("cluster: epoch %d universe %d != graph size %d", ep.Seq(), ep.Universe(), n)
	}
	r := ep.Replicas()
	et := &epochTables{
		ep:        ep,
		post:      make([][]graph.NodeID, n),
		postCost:  make([]int64, n),
		query:     make([][][]graph.NodeID, r),
		queryCost: make([][]int64, r),
	}
	for k := 0; k < r; k++ {
		et.query[k] = make([][]graph.NodeID, n)
		et.queryCost[k] = make([]int64, n)
	}
	for v := 0; v < n; v++ {
		id := graph.NodeID(v)
		et.post[v] = ep.PostSet(id)
		pc, err := routing.MulticastCost(id, et.post[v])
		if err != nil {
			return nil, fmt.Errorf("cluster: epoch %d post set of %d: %w", ep.Seq(), v, err)
		}
		et.postCost[v] = int64(pc)
		for k := 0; k < r; k++ {
			et.query[k][v] = ep.QuerySet(id, k)
			qc, err := routing.MulticastCost(id, et.query[k][v])
			if err != nil {
				return nil, fmt.Errorf("cluster: epoch %d query set of %d: %w", ep.Seq(), v, err)
			}
			et.queryCost[k][v] = int64(qc)
		}
	}
	if prev != nil {
		rm, err := strategy.NewRemap(prev.ep, ep)
		if err != nil {
			return nil, err
		}
		et.prev, et.rm = prev, rm
		et.dualPost = make([][]graph.NodeID, n)
		et.dualPostCost = make([]int64, n)
		for v := 0; v < n; v++ {
			id := graph.NodeID(v)
			et.dualPost[v] = unionIDs(et.post[v], prev.post[v])
			pc, err := routing.MulticastCost(id, et.dualPost[v])
			if err != nil {
				return nil, fmt.Errorf("cluster: dual post set of %d: %w", v, err)
			}
			et.dualPostCost[v] = int64(pc)
		}
	}
	return et, nil
}

// retired returns a copy of et with the migration state cleared — the
// published state after FinishResize.
func (et *epochTables) retired() *epochTables {
	return &epochTables{
		ep:        et.ep,
		post:      et.post,
		postCost:  et.postCost,
		query:     et.query,
		queryCost: et.queryCost,
	}
}

// replicas returns the dual-epoch family count: the serving epoch's
// replica families plus, while migrating, the retiring epoch's appended
// after them — which is how the ordinary replica-fallthrough loop
// becomes the dual-epoch locate.
func (et *epochTables) replicas() int {
	r := et.ep.Replicas()
	if et.prev != nil {
		r += et.prev.ep.Replicas()
	}
	return r
}

// resolve maps a dual-epoch family index to the owning epoch's tables
// and its local family number; ok is false when k indexes a family that
// no longer exists (a retired epoch's, raced by FinishResize).
func (et *epochTables) resolve(k int) (tab *epochTables, fam int, ok bool) {
	r := et.ep.Replicas()
	if k >= 0 && k < r {
		return et, k, true
	}
	if et.prev != nil && k >= r && k < r+et.prev.ep.Replicas() {
		return et.prev, k - r, true
	}
	return nil, 0, false
}

// postFor returns the posting targets and multicast cost for a server
// at node under the current phase: the serving epoch's sets normally,
// widened to both epochs' union during a migration.
func (et *epochTables) postFor(node graph.NodeID) ([]graph.NodeID, int64) {
	if et.prev != nil {
		return et.dualPost[node], et.dualPostCost[node]
	}
	return et.post[node], et.postCost[node]
}

// errRetiredReplica builds the rendezvous-miss error a flood over a
// no-longer-existing family reports: FinishResize raced an in-flight
// fallthrough, and the correct outcome is a silent miss, not a hard
// failure.
func errRetiredReplica(port core.Port, client graph.NodeID, k int) error {
	return fmt.Errorf("cluster: locate %q from %d: replica %d of a retired epoch: %w", port, client, k, core.ErrNotFound)
}

// errMissingEpochFlood is the miss returned without flooding when a
// family's query set is empty at this client (the client is outside
// that epoch's membership).
func errMissingEpochFlood(port core.Port, client graph.NodeID) error {
	return fmt.Errorf("cluster: locate %q from %d: no rendezvous in this epoch: %w", port, client, core.ErrNotFound)
}

// validateNextEpoch applies the shared epoch-transition admission rules.
func validateNextEpoch(cur *strategy.Epoch, next *strategy.Epoch, universe int) error {
	if next == nil {
		return fmt.Errorf("cluster: resize needs a next epoch")
	}
	if next.Universe() != universe {
		return fmt.Errorf("cluster: next epoch universe %d != graph size %d", next.Universe(), universe)
	}
	if next.Seq() <= cur.Seq() {
		return fmt.Errorf("cluster: next epoch seq %d must exceed current %d", next.Seq(), cur.Seq())
	}
	return nil
}

// errServerOutsideEpoch reports a live server that would fall off the
// membership — the operator must migrate it into the surviving range
// before resizing.
func errServerOutsideEpoch(port core.Port, node graph.NodeID, ep *strategy.Epoch) error {
	return fmt.Errorf("cluster: server %q at node %d is outside epoch %d's membership (active %d); migrate it first",
		port, node, ep.Seq(), ep.Active())
}

// errOutsideMembership reports a registration at a node the serving
// epoch does not include.
func errOutsideMembership(port core.Port, node graph.NodeID, ep *strategy.Epoch) error {
	return fmt.Errorf("cluster: register %q at %d: node outside epoch %d's membership (active %d): %w",
		port, node, ep.Seq(), ep.Active(), graph.ErrNodeRange)
}

// unionIDs returns a ∪ b as a fresh sorted slice.
func unionIDs(a, b []graph.NodeID) []graph.NodeID {
	seen := make(map[graph.NodeID]bool, len(a)+len(b))
	out := make([]graph.NodeID, 0, len(a)+len(b))
	for _, s := range [][]graph.NodeID{a, b} {
		for _, v := range s {
			if !seen[v] {
				seen[v] = true
				out = append(out, v)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
