package strategy

import (
	"slices"
	"testing"

	"matchmake/internal/core"
	"matchmake/internal/graph"
)

// TestHashSetPinned pins Hash Locate's geometry to known values, so the
// reproduction's hash tables (E13, E18) cannot move silently: the set is
// a pure function of (port, attempt, addrs, n), each rehash attempt
// draws other addresses, and a set never repeats a node nor holds more
// than the network has.
func TestHashSetPinned(t *testing.T) {
	for _, c := range []struct {
		port        core.Port
		k, addrs, n int
		want        []graph.NodeID
	}{
		{"ledger", 0, 1, 64, []graph.NodeID{52}},
		{"ledger", 1, 1, 64, []graph.NodeID{31}},
		{"some-port", 1, 4, 32, []graph.NodeID{12, 31, 18, 5}},
		{"some-port", 2, 4, 32, []graph.NodeID{1, 14, 27, 8}},
		{"svc", 0, 3, 256, []graph.NodeID{5, 82, 159}},
		{"x", 0, 9, 4, []graph.NodeID{3, 0, 1, 2}},
	} {
		if got := HashSet(c.port, c.k, c.addrs, c.n); !slices.Equal(got, c.want) {
			t.Errorf("HashSet(%q, %d, %d, %d) = %v, want %v", c.port, c.k, c.addrs, c.n, got, c.want)
		}
	}
}
