package strategy

import (
	"fmt"
	"sort"

	"matchmake/internal/graph"
	"matchmake/internal/rendezvous"
)

// Epoch is one membership snapshot of an elastic cluster: a
// monotonically increasing sequence number, the count of active member
// nodes, and the rendezvous strategy serving them — optionally r-fold
// replicated (see Replicated). The paper's hash-locate discussion notes
// that the rendezvous function must be recomputed when the network
// changes; Epoch is that recomputation made explicit, so the serving
// layer can hold two epochs at once and migrate between them without a
// global restart (the dual-epoch locate of internal/cluster).
//
// An epoch lives inside a fixed physical universe of Universe() nodes
// (the graph the cluster was built over); only the first Active() of
// them are members. Posting and query sets of inactive nodes are empty:
// a node outside the membership hosts nothing and asks nothing.
type Epoch struct {
	seq      uint64
	universe int
	base     rendezvous.Strategy // precomputed, universe = Active()
	rp       *Replicated         // non-nil when replicas > 1
	member   []uint64            // r = 1: bit i·active+v set iff v ∈ P(i)
}

// NewEpoch builds epoch seq over a physical universe of universe nodes
// with the first base.N() of them active, serving base replicated
// replicas-fold (1 = unreplicated). Every posting and query set of base
// must stay inside the active range — an epoch must not place
// rendezvous state on nodes outside its own membership.
func NewEpoch(seq uint64, universe int, base rendezvous.Strategy, replicas int) (*Epoch, error) {
	active := base.N()
	if active <= 0 {
		return nil, fmt.Errorf("strategy: epoch %d needs a non-empty active set, got %d", seq, active)
	}
	if universe < active {
		return nil, fmt.Errorf("strategy: epoch %d active %d exceeds universe %d", seq, active, universe)
	}
	if replicas < 1 || replicas > active {
		return nil, fmt.Errorf("strategy: epoch %d replication factor %d out of [1,%d]", seq, replicas, active)
	}
	base = rendezvous.Precompute(base)
	for i := 0; i < active; i++ {
		id := graph.NodeID(i)
		for _, set := range [][]graph.NodeID{base.Post(id), base.Query(id)} {
			for _, v := range set {
				if int(v) < 0 || int(v) >= active {
					return nil, fmt.Errorf("strategy: epoch %d: node %d of %s's sets for %d outside active range [0,%d)",
						seq, v, base.Name(), i, active)
				}
			}
		}
	}
	ep := &Epoch{seq: seq, universe: universe, base: base}
	if replicas > 1 {
		rp, err := NewReplicated(base, replicas)
		if err != nil {
			return nil, err
		}
		ep.rp = rp
	} else {
		words := (active*active + 63) / 64
		ep.member = make([]uint64, words)
		for i := 0; i < active; i++ {
			for _, v := range base.Post(graph.NodeID(i)) {
				bit := i*active + int(v)
				ep.member[bit>>6] |= 1 << (bit & 63)
			}
		}
	}
	return ep, nil
}

// Name identifies the epoch in reports.
func (ep *Epoch) Name() string {
	return fmt.Sprintf("epoch%d(%s,n=%d/%d,r=%d)", ep.seq, ep.base.Name(), ep.Active(), ep.universe, ep.Replicas())
}

// Seq returns the epoch sequence number.
func (ep *Epoch) Seq() uint64 { return ep.seq }

// Universe returns the fixed physical node-space size the epoch lives
// in.
func (ep *Epoch) Universe() int { return ep.universe }

// Active returns the member node count: nodes [0, Active()) belong to
// the epoch.
func (ep *Epoch) Active() int { return ep.base.N() }

// Replicas returns the replication factor r (1 = unreplicated).
func (ep *Epoch) Replicas() int {
	if ep.rp == nil {
		return 1
	}
	return ep.rp.Replicas()
}

// Base returns the precomputed base strategy (universe = Active()).
func (ep *Epoch) Base() rendezvous.Strategy { return ep.base }

// Replicated returns the replica-family geometry, nil when r = 1.
func (ep *Epoch) Replicated() *Replicated { return ep.rp }

// Contains reports whether node i is a member of the epoch.
func (ep *Epoch) Contains(i graph.NodeID) bool {
	return int(i) >= 0 && int(i) < ep.Active()
}

// PostSet returns the effective posting set of a server at node i under
// this epoch: the base strategy's P(i), or — when replicated — the
// union ∪ₖ Pₖ(i) every replica family rendezvouses through. Inactive
// nodes post nowhere (nil).
func (ep *Epoch) PostSet(i graph.NodeID) []graph.NodeID {
	if !ep.Contains(i) {
		return nil
	}
	if ep.rp != nil {
		return ep.rp.UnionPost(i)
	}
	return ep.base.Post(i)
}

// QuerySet returns replica family k's query set of a client at node j
// under this epoch. Inactive nodes (and out-of-range families) query
// nowhere (nil).
func (ep *Epoch) QuerySet(j graph.NodeID, family int) []graph.NodeID {
	if !ep.Contains(j) || family < 0 || family >= ep.Replicas() {
		return nil
	}
	if ep.rp != nil {
		return ep.rp.Replica(family).Query(j)
	}
	return ep.base.Query(j)
}

// QueryOrder numbers the universe's nodes so that each client's
// family-0 query set sits in as few contiguous blocks as it can — the
// order a wire transport lays node processes out in, so a locate flood
// reaches one process rather than every process its query set spans. It
// walks the clients in id order and appends each node of a client's
// query set the first time that node appears; nodes no query set names
// follow in id order. For a checkerboard that is column-major order. A
// replicated epoch keeps the identity order, the same walk with no
// clients: its families stay independent only across contiguous id
// ranges no wider than n/r (see Replicated), and a query-local order
// would put every family's meeting node for a pair into one block. The
// result is a permutation of [0, Universe()) and a pure function of the
// epoch's geometry.
func (ep *Epoch) QueryOrder() []graph.NodeID {
	order, seen := make([]graph.NodeID, 0, ep.universe), make([]bool, ep.universe)
	add := func(v graph.NodeID) {
		if !seen[v] {
			seen[v] = true
			order = append(order, v)
		}
	}
	for j := 0; ep.rp == nil && j < ep.Active(); j++ {
		for _, v := range ep.base.Query(graph.NodeID(j)) {
			add(v)
		}
	}
	for v := range ep.universe {
		add(graph.NodeID(v))
	}
	return order
}

// InPost reports whether v belongs to family k's posting set of a
// server at node i — the family-scoping predicate of epoch-versioned
// reads: a family-k query flood of this epoch only accepts an entry
// cached at v when the entry's origin posts there as part of family k
// of this epoch, which is what keeps two live epochs (and their replica
// families) independent rendezvous channels during a migration.
func (ep *Epoch) InPost(k int, i, v graph.NodeID) bool {
	if ep.rp != nil {
		return ep.rp.InPost(k, i, v)
	}
	active := ep.Active()
	if k != 0 || !ep.Contains(i) || int(v) < 0 || int(v) >= active {
		return false
	}
	bit := int(i)*active + int(v)
	return ep.member[bit>>6]&(1<<(bit&63)) != 0
}

// Remap is the minimal-movement posting delta between two epochs of the
// same universe: for every node i it precomputes which rendezvous
// targets a server homed at i must newly post to (Added — present in
// the destination epoch's effective posting set but not the source's)
// and which of its old postings become garbage (Removed — present only
// in the source's). A server re-posting under the destination epoch
// sends postings to Added(i) only; the targets in both epochs already
// hold its posting, so nothing moves that does not have to.
type Remap struct {
	from, to *Epoch
	added    [][]graph.NodeID
	removed  [][]graph.NodeID
}

// NewRemap computes the posting delta for moving from epoch from to
// epoch to. Both epochs must share the same physical universe.
func NewRemap(from, to *Epoch) (*Remap, error) {
	if from == nil || to == nil {
		return nil, fmt.Errorf("strategy: remap needs two epochs")
	}
	if from.Universe() != to.Universe() {
		return nil, fmt.Errorf("strategy: remap across universes %d and %d", from.Universe(), to.Universe())
	}
	n := from.Universe()
	rm := &Remap{
		from:    from,
		to:      to,
		added:   make([][]graph.NodeID, n),
		removed: make([][]graph.NodeID, n),
	}
	for i := 0; i < n; i++ {
		id := graph.NodeID(i)
		rm.added[i], rm.removed[i] = setDiff(to.PostSet(id), from.PostSet(id))
	}
	return rm, nil
}

// setDiff returns (a \ b, b \ a) as fresh sorted slices.
func setDiff(a, b []graph.NodeID) (onlyA, onlyB []graph.NodeID) {
	inB := make(map[graph.NodeID]bool, len(b))
	for _, v := range b {
		inB[v] = true
	}
	for _, v := range a {
		if inB[v] {
			delete(inB, v) // tolerate duplicates in a
		} else {
			onlyA = append(onlyA, v)
		}
	}
	for _, v := range b {
		if inB[v] {
			onlyB = append(onlyB, v)
			delete(inB, v)
		}
	}
	sort.Slice(onlyA, func(i, j int) bool { return onlyA[i] < onlyA[j] })
	sort.Slice(onlyB, func(i, j int) bool { return onlyB[i] < onlyB[j] })
	return onlyA, onlyB
}

// From returns the source epoch of the remap.
func (rm *Remap) From() *Epoch { return rm.from }

// To returns the destination epoch of the remap.
func (rm *Remap) To() *Epoch { return rm.to }

// Added returns the targets a server at node i must newly post to under
// the destination epoch. The returned slice is shared; callers must not
// mutate it.
func (rm *Remap) Added(i graph.NodeID) []graph.NodeID {
	if int(i) < 0 || int(i) >= len(rm.added) {
		return nil
	}
	return rm.added[i]
}

// Removed returns the targets whose postings from node i belong only to
// the source epoch — garbage once the source epoch retires. The
// returned slice is shared; callers must not mutate it.
func (rm *Remap) Removed(i graph.NodeID) []graph.NodeID {
	if int(i) < 0 || int(i) >= len(rm.removed) {
		return nil
	}
	return rm.removed[i]
}

// MovedPosts predicts the number of (port, rendezvous-node) postings a
// migration moves for servers homed at origins: Σ |Added(origin)|. The
// serving layer's measured migration counter must match this number
// exactly — the minimal-movement contract of the epoch transition.
func (rm *Remap) MovedPosts(origins []graph.NodeID) int {
	total := 0
	for _, o := range origins {
		total += len(rm.Added(o))
	}
	return total
}
