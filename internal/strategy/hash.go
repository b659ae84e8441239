package strategy

import (
	"fmt"
	"hash/fnv"
	"slices"

	"matchmake/internal/core"
	"matchmake/internal/graph"
)

// HashSet is Hash Locate's rendezvous set (§5): the addrs addresses of
// an n-node network that port hashes onto at rehash attempt k, where
// P(π) = Q(π), so a server posts to and a client queries the same nodes.
// Address r of the set is FNV-1a of "port/k/r" modulo n; a draw that
// repeats an earlier address is skipped, so the set holds min(addrs, n)
// distinct nodes, in draw order.
func HashSet(port core.Port, k, addrs, n int) []graph.NodeID {
	out := make([]graph.NodeID, 0, addrs)
	for r := 0; len(out) < addrs && r < addrs+n; r++ {
		h := fnv.New64a()
		fmt.Fprintf(h, "%s/%d/%d", port, k, r)
		if v := graph.NodeID(h.Sum64() % uint64(n)); !slices.Contains(out, v) {
			out = append(out, v)
		}
	}
	return out
}
