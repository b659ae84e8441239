package rendezvous

import (
	"fmt"
	"slices"

	"matchmake/internal/graph"
)

// Shift returns the strategy s with every posting and query set
// translated by `by` positions modulo the universe: Pₛ(i) = P(i) + by and
// Qₛ(j) = Q(j) + by (element-wise, mod n). Translation preserves the
// rendezvous property — Pₛ(i) ∩ Qₛ(j) is exactly (P(i) ∩ Q(j)) + by, so
// it is non-empty whenever the base intersection is — while moving every
// rendezvous node somewhere else. That makes shifted copies of one base
// strategy natural replica families for fault tolerance: a crashed
// rendezvous node of one copy is, for any nonzero shift, not the
// rendezvous node the other copy meets at (see strategy.Replicated).
func Shift(s Strategy, by int) Strategy {
	n := s.N()
	if n <= 0 {
		return s
	}
	by = ((by % n) + n) % n
	if by == 0 {
		return s
	}
	shift := func(set []graph.NodeID) []graph.NodeID {
		out := make([]graph.NodeID, len(set))
		for i, v := range set {
			out[i] = graph.NodeID((int(v) + by) % n)
		}
		slices.Sort(out)
		return out
	}
	return Funcs{
		StrategyName: fmt.Sprintf("%s+%d", s.Name(), by),
		Universe:     n,
		PostFunc:     func(i graph.NodeID) []graph.NodeID { return shift(s.Post(i)) },
		QueryFunc:    func(j graph.NodeID) []graph.NodeID { return shift(s.Query(j)) },
	}
}
