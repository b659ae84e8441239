package cluster

import (
	"errors"
	"fmt"
	"slices"

	"matchmake/internal/core"
	"matchmake/internal/graph"
	"matchmake/internal/strategy"
)

// ErrNotElastic reports an epoch operation on a transport whose
// membership is fixed (build it from a Layout with Elastic set).
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
	out := append(append(make([]graph.NodeID, 0, len(a)+len(b)), a...), b...)
	slices.Sort(out)
	return slices.Compact(out)
}
