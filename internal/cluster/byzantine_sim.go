package cluster

import (
	"matchmake/internal/core"
	"matchmake/internal/graph"
)

// Byzantine seam of the paper-exact reference: the lies travel as real
// simulated replies. The engine forger hook (installed once at
// construction, see newSimTransport) reads the atomic lie table, so an
// armed rendezvous node suppresses or forges its reply inside
// core.System.HandleMessage — the forged entry then competes with the
// flood's other replies at the client and pays real reply hops, exactly
// like an honest answer.

var _ ByzantineTransport = (*SimTransport)(nil)

// forgeLoad returns the armed lie table, or a nil table when disarmed
// (nil-safe for lookups).
func (t *SimTransport) forgeLoad() forgeTable {
	p := t.forge.Load()
	if p == nil {
		return nil
	}
	return *p
}

// readScope returns the geometry the installed replica filter scopes
// answers with — the serving epoch on an elastic transport, the
// replicated strategy at r > 1 — and nil when no filter is installed.
func (t *SimTransport) readScope() familyGeometry {
	if es := t.elastic.Load(); es != nil {
		return es.cur
	}
	if t.rp != nil {
		return t.rp
	}
	return nil
}

// Arm implements ByzantineTransport: same deterministic plan as the
// fast paths, swapped into the engine hook's lie table atomically.
func (t *SimTransport) Arm(opts ArmOptions) (int, error) {
	plan := buildForgePlan(opts, t.corruptRegs(), t.net.Graph().N(), t.readScope())
	ft := buildForgeTable(plan)
	t.forge.Store(&ft)
	t.gens.bumpAll()
	return len(plan), nil
}

// Disarm implements ByzantineTransport.
func (t *SimTransport) Disarm() error {
	t.forge.Store(nil)
	t.gens.bumpAll()
	return nil
}

// ArmedNodes implements ByzantineTransport.
func (t *SimTransport) ArmedNodes() []graph.NodeID {
	return t.forgeLoad().nodes()
}

// LocateReplicaAt implements ByzantineTransport: one real flood over
// replica k's query set, with the winning reply's sender attributed.
func (t *SimTransport) LocateReplicaAt(client graph.NodeID, port core.Port, replica int) (core.Entry, graph.NodeID, error) {
	targets, dual, err := t.replicaTargets(client, port, replica)
	if err != nil {
		return core.Entry{}, 0, err
	}
	res, err := t.sys.LocateVia(client, port, targets, replica)
	if err != nil {
		return core.Entry{}, 0, err
	}
	if dual {
		t.dualLocates.Add(1)
	}
	return res.Entry, res.From, nil
}

// Quarantine implements ByzantineTransport (hint invalidation only, as
// on the fast paths).
func (t *SimTransport) Quarantine(graph.NodeID) {
	t.gens.bumpAll()
}
