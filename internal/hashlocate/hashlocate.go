// Package hashlocate implements Hash Locate from Section 5 of the paper:
// instead of node-indexed P, Q functions, a hash function maps service
// ports directly onto network addresses — P, Q : Π → 2^U with P = Q.
//
// Each server posts its (port, address) at the nodes P(π); each client in
// need of port π queries the nodes in P(π). Apart from redundancy for
// fault tolerance, clients and servers address only one network node each
// per match-making — far cheaper than Shotgun Locate's Θ(√n) — but if all
// rendezvous nodes for a port crash, that service vanishes from the
// entire network, which is why the paper calls Hash Locate fragile.
//
// Both §5 mitigations are implemented: hashing a port onto r > 1
// addresses, and rehashing to a backup rendezvous when the primary is
// observed down (which obliges services to poll their rendezvous nodes).
package hashlocate

import (
	"errors"
	"fmt"
	"hash/fnv"
	"sync"

	"matchmake/internal/core"
	"matchmake/internal/graph"
	"matchmake/internal/sim"
)

// Errors returned by the engine.
var (
	// ErrNotFound reports a locate whose rendezvous nodes had no entry or
	// were unreachable.
	ErrNotFound = errors.New("hashlocate: service not found")
)

// Options configure a System.
type Options struct {
	// Replicas is the number of rendezvous addresses per port (the first
	// §5 robustness measure). Zero means 1.
	Replicas int
	// MaxRehash bounds how many successive backup addresses a locate or
	// post tries when rendezvous nodes are down (the second measure).
	// Zero disables rehashing.
	MaxRehash int
}

func (o Options) withDefaults() Options {
	if o.Replicas <= 0 {
		o.Replicas = 1
	}
	if o.MaxRehash < 0 {
		o.MaxRehash = 0
	}
	return o
}

// System is a running hash-based name server.
type System struct {
	net  *sim.Network
	opts Options

	mu     sync.Mutex
	caches []map[core.Port]core.Entry

	clock uint64
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

// New installs hash-locate handlers on every node of net.
func New(net *sim.Network, opts Options) (*System, error) {
	n := net.Graph().N()
	if n == 0 {
		return nil, fmt.Errorf("hashlocate: empty network")
	}
	s := &System{
		net:    net,
		opts:   opts.withDefaults(),
		caches: make([]map[core.Port]core.Entry, n),
	}
	for v := 0; v < n; v++ {
		s.caches[v] = make(map[core.Port]core.Entry)
		if err := net.SetHandler(graph.NodeID(v), s.handle); err != nil {
			return nil, fmt.Errorf("hashlocate: install handler: %w", err)
		}
	}
	return s, nil
}

func (s *System) handle(self graph.NodeID, msg sim.Message) {
	switch m := msg.Payload.(type) {
	case postMsg:
		s.mu.Lock()
		cur, ok := s.caches[self][m.entry.Port]
		if !ok || m.entry.Time > cur.Time {
			s.caches[self][m.entry.Port] = m.entry
		}
		s.mu.Unlock()
	case queryMsg:
		if !msg.CanReply() {
			return
		}
		s.mu.Lock()
		e, ok := s.caches[self][m.port]
		s.mu.Unlock()
		// A failed reply surfaces at the caller as sim.ErrNoReply.
		_ = msg.Reply(queryReply{entry: e, found: ok && e.Active})
	}
}

// Rendezvous returns the rendezvous addresses of a port at rehash attempt
// k (k = 0 is the primary set): Replicas consecutive FNV-derived
// addresses, salted by the attempt number.
func (s *System) Rendezvous(port core.Port, attempt int) []graph.NodeID {
	n := s.net.Graph().N()
	out := make([]graph.NodeID, 0, s.opts.Replicas)
	seen := make(map[graph.NodeID]bool, s.opts.Replicas)
	for r := 0; len(out) < s.opts.Replicas && r < s.opts.Replicas+n; r++ {
		h := fnv.New64a()
		fmt.Fprintf(h, "%s/%d/%d", port, attempt, r)
		v := graph.NodeID(h.Sum64() % uint64(n))
		if !seen[v] {
			seen[v] = true
			out = append(out, v)
		}
	}
	return out
}

// Post announces a server for port at node addr: the entry is sent to
// every rendezvous address of the port. If all rendezvous nodes of an
// attempt are unreachable, the post rehashes onto backup addresses (up to
// MaxRehash times). It returns the number of rendezvous nodes that
// accepted the posting.
func (s *System) Post(port core.Port, addr graph.NodeID) (int, error) {
	if !s.net.Graph().Valid(addr) {
		return 0, fmt.Errorf("hashlocate: post from %d: %w", addr, graph.ErrNodeRange)
	}
	s.mu.Lock()
	s.clock++
	entry := core.Entry{Port: port, Addr: addr, Time: s.clock, Active: true}
	s.mu.Unlock()
	total := 0
	for attempt := 0; attempt <= s.opts.MaxRehash; attempt++ {
		for _, v := range s.Rendezvous(port, attempt) {
			if err := s.net.Send(addr, v, postMsg{entry: entry}); err == nil {
				total++
			}
		}
		if total > 0 {
			s.net.Drain()
			return total, nil
		}
	}
	return 0, fmt.Errorf("hashlocate: post %q: all rendezvous nodes unreachable", port)
}

// Unpost tombstones the port at its rendezvous nodes.
func (s *System) Unpost(port core.Port, addr graph.NodeID) error {
	s.mu.Lock()
	s.clock++
	entry := core.Entry{Port: port, Addr: addr, Time: s.clock, Active: false}
	s.mu.Unlock()
	for attempt := 0; attempt <= s.opts.MaxRehash; attempt++ {
		for _, v := range s.Rendezvous(port, attempt) {
			_ = s.net.Send(addr, v, postMsg{entry: entry})
		}
	}
	s.net.Drain()
	return nil
}

// LocateResult reports a successful hash locate.
type LocateResult struct {
	// Addr is the located server address.
	Addr graph.NodeID
	// Queried is how many rendezvous nodes were asked before the answer.
	Queried int
	// Rehashes is how many backup attempts were needed (0 = primary).
	Rehashes int
}

// Locate asks the rendezvous nodes of port for the server address,
// rehashing onto backups when nodes are down. Match-making costs 2
// messages (query + reply) when the primary rendezvous is alive — the §5
// efficiency claim.
func (s *System) Locate(client graph.NodeID, port core.Port) (LocateResult, error) {
	if !s.net.Graph().Valid(client) {
		return LocateResult{}, fmt.Errorf("hashlocate: locate from %d: %w", client, graph.ErrNodeRange)
	}
	queried := 0
	for attempt := 0; attempt <= s.opts.MaxRehash; attempt++ {
		for _, v := range s.Rendezvous(port, attempt) {
			queried++
			raw, err := s.net.Call(client, v, queryMsg{port: port})
			if err != nil {
				continue // node down or unreachable: try the next replica
			}
			rep, ok := raw.(queryReply)
			if !ok {
				continue
			}
			if rep.found {
				return LocateResult{Addr: rep.entry.Addr, Queried: queried, Rehashes: attempt}, nil
			}
		}
	}
	return LocateResult{Queried: queried}, fmt.Errorf("locate %q from %d: %w", port, client, ErrNotFound)
}

// CacheSizes returns the number of active entries cached per node, for
// load-distribution analysis ("provided the hash function is well-chosen,
// it distributes the burden of the locate work over the network").
func (s *System) CacheSizes() []int {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]int, len(s.caches))
	for v, c := range s.caches {
		for _, e := range c {
			if e.Active {
				out[v]++
			}
		}
	}
	return out
}

// ClearCache models a rebooted rendezvous node losing its entries.
func (s *System) ClearCache(v graph.NodeID) {
	if !s.net.Graph().Valid(v) {
		return
	}
	s.mu.Lock()
	s.caches[v] = make(map[core.Port]core.Entry)
	s.mu.Unlock()
}

// Network returns the underlying simulator network.
func (s *System) Network() *sim.Network { return s.net }
