// Package hashlocate implements the neighborhood generalization of
// Hash Locate from Section 5 of the paper, P, Q : U × Π → 2^U: a port
// hashes onto one rendezvous node in every cluster of a hierarchy, and
// a service is posted only up to its visibility scope.
//
// Plain Hash Locate, P = Q : Π → 2^U, is not here: the serving
// coordinator runs it (cluster.Layout.Hash over strategy.HashSet). A
// neighborhood posting set depends on a per-service scope that a
// registration does not carry, so this engine stays on its own.
package hashlocate

import (
	"errors"
	"fmt"
	"hash/fnv"
	"sync"

	"matchmake/internal/core"
	"matchmake/internal/graph"
	"matchmake/internal/sim"
	"matchmake/internal/topology"
)

// Neighborhood implements the generalized locate of §5's opening: the
// functions P, Q : U × Π → 2^U depend on the node as well as the port,
// and "we can hash a service onto nodes in neighborhoods … a local
// network, but also the network connecting the local networks, and so
// on". A service port hashes to one rendezvous node inside every cluster
// on the path from a host to the top of a hierarchy; servers post at
// each level up to the service's visibility scope, and clients search
// bottom-up, so local services resolve inside the local network and the
// locate burden spreads over the hosts at each level — the §3.5 Amoeba
// model where "nearly every service will be a local service in some
// sense, with only few services being truly global".
type Neighborhood struct {
	net  *sim.Network
	hier *topology.Hierarchy

	mu     sync.Mutex
	caches []map[core.Port]core.Entry
	clock  uint64
}

type (
	postMsg struct {
		entry core.Entry
	}
	queryMsg struct {
		port core.Port
	}
	queryReply struct {
		entry core.Entry
		found bool
	}
)

// Scope is a service visibility level: 1 = local cluster only, up to
// Levels() = the whole network (a "truly global" service).
type Scope int

// Errors returned by the engine.
var (
	// ErrBadScope reports a scope outside [1, Levels()].
	ErrBadScope = errors.New("hashlocate: scope out of range")
	// ErrNotFound reports a locate that climbed every level in vain.
	ErrNotFound = errors.New("hashlocate: service not found")
)

// NewNeighborhood installs the handlers over a hierarchy's network.
func NewNeighborhood(net *sim.Network, hier *topology.Hierarchy) (*Neighborhood, error) {
	if net.Graph().N() != hier.N() {
		return nil, fmt.Errorf("hashlocate: network size %d != hierarchy size %d", net.Graph().N(), hier.N())
	}
	nb := &Neighborhood{
		net:    net,
		hier:   hier,
		caches: make([]map[core.Port]core.Entry, hier.N()),
	}
	for v := 0; v < hier.N(); v++ {
		nb.caches[v] = make(map[core.Port]core.Entry)
		if err := net.SetHandler(graph.NodeID(v), nb.handle); err != nil {
			return nil, fmt.Errorf("hashlocate: install handler: %w", err)
		}
	}
	return nb, nil
}

func (nb *Neighborhood) handle(self graph.NodeID, msg sim.Message) {
	switch m := msg.Payload.(type) {
	case postMsg:
		nb.mu.Lock()
		cur, ok := nb.caches[self][m.entry.Port]
		if !ok || m.entry.Time > cur.Time {
			nb.caches[self][m.entry.Port] = m.entry
		}
		nb.mu.Unlock()
	case queryMsg:
		if !msg.CanReply() {
			return
		}
		nb.mu.Lock()
		e, ok := nb.caches[self][m.port]
		nb.mu.Unlock()
		_ = msg.Reply(queryReply{entry: e, found: ok && e.Active})
	}
}

// RendezvousAt returns the rendezvous node for port inside the level-ℓ
// cluster of host: the port hashes onto one of the cluster's gateways.
func (nb *Neighborhood) RendezvousAt(port core.Port, host graph.NodeID, level int) (graph.NodeID, error) {
	gws, err := nb.hier.Gateways(host, level)
	if err != nil {
		return -1, err
	}
	h := fnv.New64a()
	fmt.Fprintf(h, "%s@%d", port, level)
	return gws[h.Sum64()%uint64(len(gws))], nil
}

// Post announces a server for port at node addr with the given
// visibility scope: the entry lands on the hashed gateway of every
// cluster on the path up, levels 1..scope.
func (nb *Neighborhood) Post(port core.Port, addr graph.NodeID, scope Scope) (int, error) {
	if int(scope) < 1 || int(scope) > nb.hier.Levels() {
		return 0, fmt.Errorf("hashlocate: post scope %d: %w", scope, ErrBadScope)
	}
	if !nb.net.Graph().Valid(addr) {
		return 0, fmt.Errorf("hashlocate: post from %d: %w", addr, graph.ErrNodeRange)
	}
	nb.mu.Lock()
	nb.clock++
	entry := core.Entry{Port: port, Addr: addr, Time: nb.clock, Active: true}
	nb.mu.Unlock()
	posted := 0
	for level := 1; level <= int(scope); level++ {
		rv, err := nb.RendezvousAt(port, addr, level)
		if err != nil {
			return posted, err
		}
		if err := nb.net.Send(addr, rv, postMsg{entry: entry}); err == nil {
			posted++
		}
	}
	nb.net.Drain()
	if posted == 0 {
		return 0, fmt.Errorf("hashlocate: post %q: no rendezvous reachable", port)
	}
	return posted, nil
}

// LocateLevels reports a neighborhood locate: the answer plus how many
// levels were climbed ("the system first does a local locate at the
// lowest level … and this goes on until the top level is reached").
type LocateLevels struct {
	// Addr is the located server address.
	Addr graph.NodeID
	// Level is the hierarchy level the locate resolved at.
	Level int
	// Queried is the number of rendezvous nodes asked.
	Queried int
}

// Locate searches bottom-up from the client's host: level 1 first, then
// outward until the top. Services posted with a local scope are only
// findable within their scope — the Amoeba visibility restriction.
func (nb *Neighborhood) Locate(client graph.NodeID, port core.Port) (LocateLevels, error) {
	if !nb.net.Graph().Valid(client) {
		return LocateLevels{}, fmt.Errorf("hashlocate: locate from %d: %w", client, graph.ErrNodeRange)
	}
	queried := 0
	for level := 1; level <= nb.hier.Levels(); level++ {
		rv, err := nb.RendezvousAt(port, client, level)
		if err != nil {
			return LocateLevels{}, err
		}
		queried++
		raw, err := nb.net.Call(client, rv, queryMsg{port: port})
		if err != nil {
			continue // rendezvous down; try the wider neighborhood
		}
		rep, ok := raw.(queryReply)
		if ok && rep.found {
			return LocateLevels{Addr: rep.entry.Addr, Level: level, Queried: queried}, nil
		}
	}
	return LocateLevels{Queried: queried}, fmt.Errorf("locate %q from %d: %w", port, client, ErrNotFound)
}

// CacheLoadByLevel returns, for each hierarchy level ℓ, the total number
// of entries held by nodes that are level-ℓ gateways but not gateways of
// any higher level — showing how the posting burden spreads "more or
// less evenly over the hosts at each level" instead of concentrating at
// the top.
func (nb *Neighborhood) CacheLoadByLevel() []int {
	out := make([]int, nb.hier.Levels()+1)
	nb.mu.Lock()
	defer nb.mu.Unlock()
	for v := 0; v < nb.hier.N(); v++ {
		level := nb.gatewayLevel(graph.NodeID(v))
		out[level] += len(nb.caches[v])
	}
	return out
}

// gatewayLevel returns the highest level at which v serves as a gateway
// (0 if none).
func (nb *Neighborhood) gatewayLevel(v graph.NodeID) int {
	highest := 0
	for level := 1; level <= nb.hier.Levels(); level++ {
		gws, err := nb.hier.Gateways(v, level)
		if err != nil {
			continue
		}
		for _, g := range gws {
			if g == v {
				highest = level
			}
		}
	}
	return highest
}
