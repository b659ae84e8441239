package cluster

import (
	"fmt"

	"matchmake/internal/rendezvous"
	"matchmake/internal/strategy"
)

// Layout is the geometry a transport is built to serve — the one
// configuration space behind every transport mode. Epoch carries the
// paper's P, Q pair together with the replication factor and the
// membership: a plain transport is the seq-1 epoch at full membership
// with r = 1, r-fold replicated rendezvous the same epoch with r (a
// server posts to the union of every replica family's posting sets and
// a locate falls through the families in order, one extra flood per
// attempt, when no rendezvous node answered).
type Layout struct {
	// Epoch is the epoch served; when Elastic, the initial one —
	// otherwise its membership must be the whole graph.
	Epoch *strategy.Epoch
	// Weighted, when non-nil, lays the frequency-weighted mode over the
	// epoch: cold ports run the epoch's strategy — which must be
	// Weighted.Base() — and ports promoted by SetHotPorts run the
	// post-heavy split Weighted.Hot() on the query side while their
	// servers post to the union sets, the (M3′) trade executed live. It
	// needs a fixed, unreplicated epoch.
	Weighted *strategy.Weighted
	// Elastic lets the membership change at runtime: Resize and
	// FinishResize run the dual-epoch migration of the ElasticTransport
	// contract from Epoch onwards. A fixed transport answers them with
	// ErrNotElastic.
	Elastic bool
	// Hash, when positive, serves Hash Locate (§5) in place of the
	// epoch's strategy: every port is hashed onto Hash addresses
	// (strategy.HashSet), a server posts to them and a client queries
	// them. The epoch's replica families become the rehash attempts —
	// family k is attempt k, a server posts to every attempt's addresses
	// up front and a locate falls through them in order — so r = 1 is
	// the fragile plain scheme. It needs a fixed membership and no
	// weighted overlay.
	Hash int
}

// FixedLayout is the layout of strat over an n-node graph at full,
// fixed membership, replicated r-fold (1 = unreplicated): what the
// bare-strategy constructors build from.
func FixedLayout(n int, strat rendezvous.Strategy, r int) (Layout, error) {
	if strat.N() != n {
		return Layout{}, fmt.Errorf("cluster: strategy universe %d != graph size %d", strat.N(), n)
	}
	ep, err := strategy.NewEpoch(1, n, strat, r)
	if err != nil {
		return Layout{}, fmt.Errorf("cluster: %w", err)
	}
	return Layout{Epoch: ep}, nil
}

// WeightedLayout is the fixed, unreplicated layout of w's base strategy
// with w laid over it.
func WeightedLayout(w *strategy.Weighted) (Layout, error) {
	lay, err := FixedLayout(w.N(), w.Base(), 1)
	lay.Weighted = w
	return lay, err
}

// check validates the layout against an n-node graph.
func (l Layout) check(n int) error {
	if l.Epoch == nil {
		return fmt.Errorf("cluster: layout needs an epoch")
	}
	if l.Epoch.Universe() != n {
		return fmt.Errorf("cluster: epoch %d universe %d != graph size %d", l.Epoch.Seq(), l.Epoch.Universe(), n)
	}
	if !l.Elastic && l.Epoch.Active() != n {
		return fmt.Errorf("cluster: fixed membership must be full, epoch %d has %d of %d nodes active", l.Epoch.Seq(), l.Epoch.Active(), n)
	}
	if l.Weighted != nil && (l.Elastic || l.Epoch.Replicas() > 1 || l.Weighted.N() != n) {
		return fmt.Errorf("cluster: the weighted mode needs a fixed, unreplicated epoch of its own %d-node base", l.Weighted.N())
	}
	if l.Hash < 0 || l.Hash > 0 && (l.Elastic || l.Weighted != nil) {
		return fmt.Errorf("cluster: hash locate (%d addresses per port) needs a positive count, a fixed membership and no weighted overlay", l.Hash)
	}
	return nil
}
