package strategy

import (
	"testing"

	"matchmake/internal/graph"
	"matchmake/internal/rendezvous"
)

func TestNewEpochValidates(t *testing.T) {
	if _, err := NewEpoch(1, 16, rendezvous.Checkerboard(36), 1); err == nil {
		t.Fatal("active > universe accepted")
	}
	if _, err := NewEpoch(1, 36, rendezvous.Checkerboard(36), 0); err == nil {
		t.Fatal("replicas 0 accepted")
	}
	ep, err := NewEpoch(3, 64, rendezvous.Checkerboard(36), 2)
	if err != nil {
		t.Fatal(err)
	}
	if ep.Seq() != 3 || ep.Universe() != 64 || ep.Active() != 36 || ep.Replicas() != 2 {
		t.Fatalf("epoch shape wrong: %s", ep.Name())
	}
}

func TestEpochSetsEmptyOutsideMembership(t *testing.T) {
	ep, err := NewEpoch(1, 64, rendezvous.Checkerboard(36), 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []graph.NodeID{36, 63, -1} {
		if ep.PostSet(v) != nil || ep.QuerySet(v, 0) != nil {
			t.Fatalf("inactive node %d has non-empty sets", v)
		}
		if ep.Contains(v) {
			t.Fatalf("inactive node %d reported as member", v)
		}
	}
	for i := 0; i < ep.Active(); i++ {
		id := graph.NodeID(i)
		if len(ep.PostSet(id)) == 0 || len(ep.QuerySet(id, 0)) == 0 {
			t.Fatalf("active node %d has empty sets", i)
		}
		for _, v := range ep.PostSet(id) {
			if !ep.Contains(v) {
				t.Fatalf("posting target %d of %d outside membership", v, i)
			}
		}
	}
}

// TestEpochInPostMatchesSets pins the family-scoping predicate to the
// literal set membership for both the unreplicated bitset and the
// replicated delegation.
func TestEpochInPostMatchesSets(t *testing.T) {
	for _, r := range []int{1, 2} {
		ep, err := NewEpoch(1, 40, rendezvous.Checkerboard(36), r)
		if err != nil {
			t.Fatal(err)
		}
		for k := 0; k < r; k++ {
			inSet := func(i graph.NodeID, v graph.NodeID) bool {
				var set []graph.NodeID
				if rp := ep.Replicated(); rp != nil {
					set = rp.Replica(k).Post(i)
				} else {
					set = ep.Base().Post(i)
				}
				for _, x := range set {
					if x == v {
						return true
					}
				}
				return false
			}
			for i := 0; i < ep.Active(); i += 5 {
				for v := 0; v < ep.Universe(); v += 3 {
					want := v < ep.Active() && inSet(graph.NodeID(i), graph.NodeID(v))
					if got := ep.InPost(k, graph.NodeID(i), graph.NodeID(v)); got != want {
						t.Fatalf("r=%d family %d InPost(%d,%d) = %v, want %v", r, k, i, v, got, want)
					}
				}
			}
		}
	}
}

// TestRemapMinimalMovement pins the remap's delta algebra: Added and
// Removed are disjoint from the intersection, the identity remap moves
// nothing, and MovedPosts sums exactly the per-origin additions.
func TestRemapMinimalMovement(t *testing.T) {
	from, err := NewEpoch(1, 64, rendezvous.Checkerboard(36), 1)
	if err != nil {
		t.Fatal(err)
	}
	to, err := NewEpoch(2, 64, rendezvous.Checkerboard(64), 1)
	if err != nil {
		t.Fatal(err)
	}
	rm, err := NewRemap(from, to)
	if err != nil {
		t.Fatal(err)
	}
	moved := 0
	for i := 0; i < 64; i++ {
		id := graph.NodeID(i)
		oldSet := make(map[graph.NodeID]bool)
		for _, v := range from.PostSet(id) {
			oldSet[v] = true
		}
		newSet := make(map[graph.NodeID]bool)
		for _, v := range to.PostSet(id) {
			newSet[v] = true
		}
		for _, v := range rm.Added(id) {
			if oldSet[v] || !newSet[v] {
				t.Fatalf("Added(%d) contains %d which is not new", i, v)
			}
		}
		for _, v := range rm.Removed(id) {
			if newSet[v] || !oldSet[v] {
				t.Fatalf("Removed(%d) contains %d which is not old-only", i, v)
			}
		}
		if got := len(rm.Added(id)) + len(rm.Removed(id)); got == 0 && len(oldSet) != len(newSet) {
			t.Fatalf("node %d: zero delta between different sets", i)
		}
		moved += len(rm.Added(id))
	}
	origins := make([]graph.NodeID, 64)
	for i := range origins {
		origins[i] = graph.NodeID(i)
	}
	if got := rm.MovedPosts(origins); got != moved {
		t.Fatalf("MovedPosts = %d, want %d", got, moved)
	}

	// Identity remap: same epoch geometry on both sides moves nothing.
	same, err := NewEpoch(3, 64, rendezvous.Checkerboard(36), 1)
	if err != nil {
		t.Fatal(err)
	}
	idRM, err := NewRemap(from, same)
	if err != nil {
		t.Fatal(err)
	}
	if got := idRM.MovedPosts(origins); got != 0 {
		t.Fatalf("identity remap moves %d postings", got)
	}

	if _, err := NewRemap(from, nil); err == nil {
		t.Fatal("nil epoch accepted")
	}
}

// TestRemapUnionPostsForReplicatedEpochs checks that the remap diffs
// the union posting sets when epochs are replicated — the set servers
// actually post to.
func TestRemapUnionPostsForReplicatedEpochs(t *testing.T) {
	from, err := NewEpoch(1, 36, rendezvous.Checkerboard(36), 1)
	if err != nil {
		t.Fatal(err)
	}
	to, err := NewEpoch(2, 36, rendezvous.Checkerboard(36), 2)
	if err != nil {
		t.Fatal(err)
	}
	rm, err := NewRemap(from, to)
	if err != nil {
		t.Fatal(err)
	}
	// Same base strategy, but r=2 posts the union: the delta must be
	// exactly the second family's extra targets.
	for i := 0; i < 36; i += 7 {
		id := graph.NodeID(i)
		want := len(to.PostSet(id)) - len(from.PostSet(id))
		if got := len(rm.Added(id)); got != want {
			t.Fatalf("node %d: added %d targets, want %d", i, got, want)
		}
		if got := len(rm.Removed(id)); got != 0 {
			t.Fatalf("node %d: removed %d targets, want 0 (union ⊇ base)", i, got)
		}
	}
}

// TestQueryOrder pins the wire placement's order: a permutation of the
// universe; column-major on a checkerboard, so each client's query
// column is one contiguous block; members before the idle tail on an
// elastic epoch; and the identity at r > 1.
func TestQueryOrder(t *testing.T) {
	ep, err := NewEpoch(1, 64, rendezvous.Checkerboard(64), 1)
	if err != nil {
		t.Fatal(err)
	}
	order := ep.QueryOrder()
	for s, v := range order {
		if want := graph.NodeID(s%8*8 + s/8); v != want {
			t.Fatalf("slot %d holds node %d, want %d (column-major)", s, v, want)
		}
	}
	slot := make(map[graph.NodeID]int, len(order))
	for s, v := range order {
		slot[v] = s
	}
	for j := range 64 {
		q := ep.QuerySet(graph.NodeID(j), 0)
		lo, hi := 64, -1
		for _, v := range q {
			lo, hi = min(lo, slot[v]), max(hi, slot[v])
		}
		if hi-lo+1 != len(q) {
			t.Fatalf("client %d's query set spans slots [%d,%d], not one block of %d", j, lo, hi, len(q))
		}
	}
	el, err := NewEpoch(1, 40, rendezvous.Checkerboard(36), 1)
	if err != nil {
		t.Fatal(err)
	}
	order = el.QueryOrder()
	if len(order) != 40 || order[1] != 6 || order[35] != 35 || order[39] != 39 {
		t.Fatalf("elastic order = %v, want the 36 members column-major, then 36..39", order)
	}
	rp, err := NewEpoch(1, 64, rendezvous.Checkerboard(64), 2)
	if err != nil {
		t.Fatal(err)
	}
	for s, v := range rp.QueryOrder() {
		if int(v) != s {
			t.Fatalf("replicated order moves node %d to slot %d, want the identity", v, s)
		}
	}
}
