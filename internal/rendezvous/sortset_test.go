package rendezvous

import (
	"fmt"
	"math"
	"math/rand/v2"
	"slices"
	"sort"
	"testing"

	"matchmake/internal/graph"
)

// The ref* functions are the constructors' set arithmetic as it stood
// before the sets were sorted with slices.Sort and deduplicated with
// slices.Compact: sort.Slice, and a seen map for the duplicates. They
// are the reference TestSortedSetsMatchReference holds the constructors
// to.

func refSortIDs(s []graph.NodeID) {
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
}

func refBlockNodes(start, step, count, n int) []graph.NodeID {
	seen := make(map[graph.NodeID]bool, count)
	out := make([]graph.NodeID, 0, count)
	for t := 0; t < count; t++ {
		v := graph.NodeID((start + t*step) % n)
		if !seen[v] {
			seen[v] = true
			out = append(out, v)
		}
	}
	refSortIDs(out)
	return out
}

func refDedup(sets ...[]graph.NodeID) []graph.NodeID {
	seen := make(map[graph.NodeID]bool)
	var out []graph.NodeID
	for _, s := range sets {
		for _, v := range s {
			if !seen[v] {
				seen[v] = true
				out = append(out, v)
			}
		}
	}
	refSortIDs(out)
	return out
}

func refCheckerboard(n, r int) Strategy {
	b := int(math.Ceil(math.Sqrt(float64(n))))
	r = min(max(r, 1), b)
	return Funcs{
		Universe: n,
		PostFunc: func(i graph.NodeID) []graph.NodeID {
			var blocks [][]graph.NodeID
			for t := 0; t < r; t++ {
				blocks = append(blocks, refBlockNodes(((int(i)*b/n+t)%b)*b, 1, b, n))
			}
			return refDedup(blocks...)
		},
		QueryFunc: func(j graph.NodeID) []graph.NodeID { return refBlockNodes(int(j)*b/n, b, b, n) },
	}
}

func refLift(s Strategy) Strategy {
	n := s.N()
	relabel := func(base []graph.NodeID, qa, qb int) []graph.NodeID {
		var out []graph.NodeID
		for _, v := range base {
			out = append(out, v+graph.NodeID(qa*n), v+graph.NodeID(qb*n))
		}
		refSortIDs(out)
		return out
	}
	return Funcs{
		Universe: 4 * n,
		PostFunc: func(i graph.NodeID) []graph.NodeID {
			if int(i) >= 2*n {
				return relabel(s.Post(graph.NodeID((int(i)-2*n)/2)), 2, 3)
			}
			return relabel(s.Post(i/2), 0, 1)
		},
		QueryFunc: func(j graph.NodeID) []graph.NodeID {
			if int(j) >= 2*n {
				return relabel(s.Query(graph.NodeID((int(j)-2*n)/2)), 1, 3)
			}
			return relabel(s.Query(j/2), 0, 2)
		},
	}
}

func refShift(s Strategy, by int) Strategy {
	n := s.N()
	shift := func(set []graph.NodeID) []graph.NodeID {
		out := make([]graph.NodeID, len(set))
		for i, v := range set {
			out[i] = graph.NodeID((int(v) + by) % n)
		}
		refSortIDs(out)
		return out
	}
	return Funcs{
		Universe:  n,
		PostFunc:  func(i graph.NodeID) []graph.NodeID { return shift(s.Post(i)) },
		QueryFunc: func(j graph.NodeID) []graph.NodeID { return shift(s.Query(j)) },
	}
}

func refRandom(n, p, q int, seed uint64) Strategy {
	pick := func(node graph.NodeID, k int, salt uint64) []graph.NodeID {
		perm := rand.New(rand.NewPCG(seed^salt, uint64(node)*0x9e3779b97f4a7c15+1)).Perm(n)
		out := make([]graph.NodeID, min(k, n))
		for i := range out {
			out[i] = graph.NodeID(perm[i])
		}
		refSortIDs(out)
		return out
	}
	return Funcs{
		Universe:  n,
		PostFunc:  func(i graph.NodeID) []graph.NodeID { return pick(i, p, 0x736f6d6570736575) },
		QueryFunc: func(j graph.NodeID) []graph.NodeID { return pick(j, q, 0x646f72616e646f6d) },
	}
}

func refIntersect(p, q []graph.NodeID) []graph.NodeID {
	inP := make(map[graph.NodeID]bool, len(p))
	for _, v := range p {
		inP[v] = true
	}
	var out []graph.NodeID
	for _, v := range q {
		if inP[v] {
			out = append(out, v)
			delete(inP, v)
		}
	}
	refSortIDs(out)
	return out
}

// sameSets reports the first node at which got's posting or query set
// differs from want's.
func sameSets(t *testing.T, what string, got, want Strategy) {
	t.Helper()
	if got.N() != want.N() {
		t.Fatalf("%s: universe %d, reference %d", what, got.N(), want.N())
	}
	for v := range graph.NodeID(got.N()) {
		if g, w := got.Post(v), want.Post(v); !slices.Equal(g, w) {
			t.Fatalf("%s: P(%d) = %v, reference %v", what, v, g, w)
		}
		if g, w := got.Query(v), want.Query(v); !slices.Equal(g, w) {
			t.Fatalf("%s: Q(%d) = %v, reference %v", what, v, g, w)
		}
	}
}

// TestSortedSetsMatchReference holds every constructor that sorts or
// deduplicates a node set to the reference arithmetic above, at every
// universe size from 1 to 130: identical posting and query sets, node
// by node.
func TestSortedSetsMatchReference(t *testing.T) {
	for n := 1; n <= 130; n++ {
		name := func(s string) string { return fmt.Sprintf("%s n=%d", s, n) }
		sameSets(t, name("Checkerboard"), Checkerboard(n), refCheckerboard(n, 1))
		for _, r := range []int{2, 3} {
			sameSets(t, name(fmt.Sprintf("RedundantCheckerboard r=%d", r)), RedundantCheckerboard(n, r), refCheckerboard(n, r))
		}
		sameSets(t, name("Lift"), Lift(Checkerboard(n)), refLift(refCheckerboard(n, 1)))
		by := n/3 + 1
		sameSets(t, name("Shift"), Shift(Checkerboard(n), by), refShift(refCheckerboard(n, 1), by%n))
		u, err := Union(Checkerboard(n), Shift(Checkerboard(n), by))
		if err != nil {
			t.Fatal(err)
		}
		ref := Funcs{Universe: n,
			PostFunc: func(i graph.NodeID) []graph.NodeID {
				return refDedup(refCheckerboard(n, 1).Post(i), refShift(refCheckerboard(n, 1), by%n).Post(i))
			},
			QueryFunc: func(j graph.NodeID) []graph.NodeID {
				return refDedup(refCheckerboard(n, 1).Query(j), refShift(refCheckerboard(n, 1), by%n).Query(j))
			},
		}
		sameSets(t, name("Union"), u, ref)
		k := int(math.Sqrt(float64(n))) + 1
		rnd := Random(n, k, k+1, uint64(n))
		sameSets(t, name("Random"), rnd, refRandom(n, k, k+1, uint64(n)))
		for i := range graph.NodeID(n) {
			p, q := rnd.Post(i), append(slices.Clone(rnd.Query((i*7+3)%graph.NodeID(n))), rnd.Post(i)[0])
			if got, want := Intersect(p, q), refIntersect(p, q); !slices.Equal(got, want) {
				t.Fatalf("%s: Intersect(%v, %v) = %v, reference %v", name("Random"), p, q, got, want)
			}
		}
	}
}

// precomputeAllocCeiling bounds the allocations of
// Precompute(Checkerboard(64)): one slice per posting and query set,
// the two set tables, the strategy and its name. It stands at the
// measured count, which is deterministic (393 while the sets were sorted
// with sort.Slice and blockNodes deduplicated through a map).
const precomputeAllocCeiling = 137

// TestPrecomputeAllocs is the ratchet on building a checkerboard's set
// tables: a set costs its own slice and nothing more — no seen map, no
// sort closure.
func TestPrecomputeAllocs(t *testing.T) {
	got := testing.AllocsPerRun(5, func() { Precompute(Checkerboard(64)) })
	t.Logf("Precompute(Checkerboard(64)): %.0f allocs", got)
	if got > precomputeAllocCeiling {
		t.Errorf("Precompute(Checkerboard(64)) made %.0f allocations, ceiling %d", got, precomputeAllocCeiling)
	}
}
