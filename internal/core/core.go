// Package core implements Shotgun Locate, the paper's primary
// contribution: a distributed name server in which a server process with
// port π at address A posts (π, A) at the nodes P(A), a client at address
// B queries the nodes Q(B), and the nodes in P(A) ∩ Q(B) — the rendezvous
// nodes — answer with the server's address.
//
// The engine runs over the message-passing simulator (internal/sim) with
// any rendezvous.Strategy, maintains the per-node caches of §2.1
// (timestamped entries, superseded by fresher posts, tombstoned on
// deregistration), and supports the dynamic behaviours of §1.3: server
// migration, crashes and re-registration.
package core

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"matchmake/internal/graph"
	"matchmake/internal/rendezvous"
	"matchmake/internal/sim"
)

// Port uniquely names a service (§1.3: "a port uniquely names a service";
// it gives no clue about the physical location of a server process).
type Port string

// Entry is a cached (port, address) posting.
type Entry struct {
	Port Port
	// Addr is the node address the server receives requests at.
	Addr graph.NodeID
	// ServerID distinguishes server instances on the same port.
	ServerID uint64
	// Time is the logical timestamp of the posting; fresher postings
	// supersede staler ones ("we can timestamp the messages to determine
	// which addresses are out of date in case of a conflict").
	Time uint64
	// Active is false for tombstones left by deregistration.
	Active bool
}

// Errors returned by the engine.
var (
	// ErrNotFound reports a locate whose flood ended with no rendezvous
	// node answering with a live entry, or a probe answered negatively.
	ErrNotFound = errors.New("core: service not found")
	// ErrServerGone reports an operation on a deregistered server.
	ErrServerGone = errors.New("core: server deregistered")
)

// Options configure a System.
type Options struct {
	// CacheCapacity bounds each node cache (0 = unbounded, the paper's
	// §2.1 assumption 3). When full, the stalest entry is discarded,
	// which degrades Shotgun Locate toward Lighthouse Locate.
	CacheCapacity int
}

// System is a running distributed name server over a network and a
// strategy.
type System struct {
	net *sim.Network

	// stratMu guards strat, which the elastic serving layer swaps at an
	// epoch transition (SetStrategy); everything deriving posting or
	// query sets reads it through strategy(). The universe size never
	// changes — only the sets do.
	stratMu sync.RWMutex
	strat   rendezvous.Strategy

	caches []*cache

	clock    atomic.Uint64 // logical time for postings
	serverID atomic.Uint64 // server instance identifiers
	reqID    atomic.Uint64 // locate request identifiers

	// pending collects, per flood in progress, the replies delivered at
	// the client's node so far.
	mu      sync.Mutex
	pending map[uint64][]replyMsg

	// srvMu guards servers, the live registration table probes consult:
	// a probe delivered at node v answers from the registrations whose
	// current address is v, the way a real host knows its own processes.
	srvMu   sync.Mutex
	servers map[uint64]*Server

	// repFilter, when set, scopes query answers to replica families: a
	// node self only answers a family-k query with entry e when
	// repFilter(self, k, e) holds. Installed by the serving layer's
	// replicated mode (SetReplicaFilter); nil means every cached entry
	// answers, the unreplicated §1.5 behaviour.
	repFilter func(self graph.NodeID, family int, e Entry) bool

	// forger, when set, lets a node lie: before self answers a query for
	// port from its cache, forger(self, port) may substitute a forged
	// entry (armed, not silent), suppress the answer entirely (armed and
	// silent), or decline (not armed — the node answers honestly).
	// Installed by the serving layer's Byzantine harness (SetForger);
	// forged answers still face the replica filter, like honest ones.
	forger func(self graph.NodeID, port Port) (e Entry, silent, armed bool)

	postsSent   atomic.Int64 // posting messages addressed (Σ #P reached)
	queriesSent atomic.Int64 // query messages addressed (Σ #Q reached)
	repliesSent atomic.Int64 // rendezvous replies sent
}

// message payloads exchanged through the simulator.
type (
	postMsg struct {
		entry Entry
	}
	queryMsg struct {
		port   Port
		client graph.NodeID
		reqID  uint64
		// all asks for every live instance, not just the freshest.
		all bool
		// family is the replica family the query is scoped to; it only
		// matters when the system has a replica filter installed.
		family int
	}
	replyMsg struct {
		reqID uint64
		entry Entry
		// from is the rendezvous node that answered — the attribution the
		// serving layer's answer-voting mode quarantines by.
		from graph.NodeID
	}
	// probeMsg asks the receiving node whether the server instance
	// (port, serverID) currently resides there; it travels as a direct
	// request/reply call, so a probe costs 2×Dist(client, addr) passes.
	probeMsg struct {
		port     Port
		serverID uint64
		// time echoes the prober's cached posting timestamp back in the
		// confirmation, so a hint hit does not fabricate freshness.
		time uint64
	}
	probeReply struct {
		entry Entry
		ok    bool
	}
)

// NewSystem installs the name-server handlers on every node of net.
// The strategy's universe must match the network size.
func NewSystem(net *sim.Network, strat rendezvous.Strategy, opts Options) (*System, error) {
	n := net.Graph().N()
	if strat.N() != n {
		return nil, fmt.Errorf("core: strategy universe %d != network size %d", strat.N(), n)
	}
	s := &System{
		net:     net,
		strat:   strat,
		caches:  make([]*cache, n),
		pending: make(map[uint64][]replyMsg),
		servers: make(map[uint64]*Server),
	}
	for v := 0; v < n; v++ {
		s.caches[v] = newCache(opts.CacheCapacity)
		if err := net.SetHandler(graph.NodeID(v), s.HandleMessage); err != nil {
			return nil, fmt.Errorf("core: install handler: %w", err)
		}
	}
	return s, nil
}

// HandleMessage processes one delivered name-server message at a node.
// It is exported so higher layers (e.g. the service model) can wrap the
// per-node handler and delegate name-server traffic back to the system.
func (s *System) HandleMessage(self graph.NodeID, msg sim.Message) {
	switch m := msg.Payload.(type) {
	case postMsg:
		s.caches[self].put(m.entry)
	case queryMsg:
		if f := s.forger; f != nil {
			if fe, silent, armed := f(self, m.port); armed {
				// A lying node never consults its cache: it suppresses the
				// answer or substitutes the forged entry, which faces the
				// same replica filter an honest answer would.
				if silent {
					return
				}
				if s.repFilter != nil && !s.repFilter(self, m.family, fe) {
					return
				}
				s.repliesSent.Add(1)
				_ = msg.Send(m.client, replyMsg{reqID: m.reqID, entry: fe, from: self})
				return
			}
		}
		if m.all {
			for _, entry := range s.caches[self].getAll(m.port) {
				if s.repFilter != nil && !s.repFilter(self, m.family, entry) {
					continue // not this family's rendezvous for that posting
				}
				s.repliesSent.Add(1)
				_ = msg.Send(m.client, replyMsg{reqID: m.reqID, entry: entry, from: self})
			}
			return
		}
		entry, ok := s.freshestFor(self, m)
		if !ok {
			return // misses are silent, as in §1.5
		}
		s.repliesSent.Add(1)
		// Reply failures (crashed client, broken route) surface as one
		// reply fewer at the client; nothing to handle here.
		_ = msg.Send(m.client, replyMsg{reqID: m.reqID, entry: entry, from: self})
	case replyMsg:
		s.mu.Lock()
		if rs, ok := s.pending[m.reqID]; ok {
			s.pending[m.reqID] = append(rs, m)
		}
		s.mu.Unlock()
	case probeMsg:
		if !msg.CanReply() {
			return
		}
		entry, ok := s.probeLocal(self, m)
		_ = msg.Reply(probeReply{entry: entry, ok: ok})
	}
}

// freshestFor picks the freshest active entry this node may answer a
// query with: the plain cache winner, or — under a replica filter — the
// freshest among the entries belonging to the query's family.
func (s *System) freshestFor(self graph.NodeID, m queryMsg) (Entry, bool) {
	if s.repFilter == nil {
		e, ok := s.caches[self].get(m.port)
		return e, ok && e.Active
	}
	var (
		best  Entry
		found bool
	)
	for _, e := range s.caches[self].getAll(m.port) {
		if !s.repFilter(self, m.family, e) {
			continue
		}
		if !found || e.Time > best.Time {
			best, found = e, true
		}
	}
	return best, found
}

// strategy returns the current strategy under the read lock.
func (s *System) strategy() rendezvous.Strategy {
	s.stratMu.RLock()
	defer s.stratMu.RUnlock()
	return s.strat
}

// SetStrategy swaps the strategy the engine posts and queries with —
// the engine half of an epoch transition: the serving layer installs
// the new epoch's sets here, re-posts the migration delta via
// RepostVia, and drives old-epoch floods explicitly through LocateVia
// until the old epoch drains. The universe size must not change.
// In-flight operations may still use the previous strategy's sets;
// callers that need a clean cut quiesce traffic first.
func (s *System) SetStrategy(strat rendezvous.Strategy) error {
	if strat.N() != s.net.Graph().N() {
		return fmt.Errorf("core: strategy universe %d != network size %d", strat.N(), s.net.Graph().N())
	}
	s.stratMu.Lock()
	s.strat = strat
	s.stratMu.Unlock()
	return nil
}

// SetReplicaFilter installs the family-scoping predicate of the
// replicated rendezvous mode: a node self answers a family-k query
// with entry e only when f(self, k, e) holds. Pass nil to restore the
// unscoped behaviour. Install it before traffic flows; the engine does
// not synchronize filter swaps against in-flight queries.
func (s *System) SetReplicaFilter(f func(self graph.NodeID, family int, e Entry) bool) {
	s.repFilter = f
}

// SetForger installs the Byzantine lying hook: before node self answers
// a query for port, f(self, port) may substitute a forged entry or
// suppress the answer (see the forger field). Pass nil to restore
// honest behaviour. Like SetReplicaFilter, install it while traffic is
// quiesced; the engine does not synchronize hook swaps against
// in-flight queries. Probes are unaffected — they are answered by the
// server's own host from its registration table, not by rendezvous
// nodes, which is exactly why a forged hint never survives validation.
func (s *System) SetForger(f func(self graph.NodeID, port Port) (e Entry, silent, armed bool)) {
	s.forger = f
}

// probeLocal answers a probe from the registration table: hit iff the
// probed server instance is live and its current address is this node.
func (s *System) probeLocal(self graph.NodeID, m probeMsg) (Entry, bool) {
	s.srvMu.Lock()
	srv := s.servers[m.serverID]
	s.srvMu.Unlock()
	if srv == nil || srv.port != m.port {
		return Entry{}, false
	}
	srv.mu.Lock()
	node, gone := srv.node, srv.gone
	srv.mu.Unlock()
	if gone || node != self {
		return Entry{}, false
	}
	return Entry{Port: m.port, Addr: self, ServerID: m.serverID, Time: m.time, Active: true}, true
}

// Probe validates a previously located entry with one direct
// request/reply to its address — the hint-validation message of the
// serving layer's address cache. On a hit it returns a confirmed entry;
// a live node that no longer hosts the instance answers negatively
// (ErrNotFound), and a crashed or unreachable address fails with the
// network's error. Cost: 2×Dist(client, e.Addr) passes on a hit or
// negative answer, against a full P∩Q flood for a locate.
func (s *System) Probe(client graph.NodeID, e Entry) (Entry, error) {
	if !s.net.Graph().Valid(client) {
		return Entry{}, fmt.Errorf("core: probe from %d: %w", client, graph.ErrNodeRange)
	}
	if !s.net.Graph().Valid(e.Addr) {
		return Entry{}, fmt.Errorf("core: probe at %d: %w", e.Addr, graph.ErrNodeRange)
	}
	v, err := s.net.Call(client, e.Addr, probeMsg{port: e.Port, serverID: e.ServerID, time: e.Time})
	if err != nil {
		return Entry{}, fmt.Errorf("core: probe %q at %d: %w", e.Port, e.Addr, err)
	}
	r, ok := v.(probeReply)
	if !ok || !r.ok {
		return Entry{}, fmt.Errorf("core: probe %q at %d: %w", e.Port, e.Addr, ErrNotFound)
	}
	return r.entry, nil
}

// Server is a registered server process handle.
type Server struct {
	sys  *System
	port Port
	id   uint64

	mu   sync.Mutex
	node graph.NodeID
	gone bool
}

// RegisterServer announces a server process for port at node: it posts
// (port, address) to every node of P(node) along a spanning-tree
// multicast, as the Server's Algorithm of §1.5 prescribes.
func (s *System) RegisterServer(port Port, node graph.NodeID) (*Server, error) {
	if !s.net.Graph().Valid(node) {
		return nil, fmt.Errorf("core: register at %d: %w", node, graph.ErrNodeRange)
	}
	srv := &Server{sys: s, port: port, id: s.serverID.Add(1), node: node}
	if err := s.post(srv, node, true); err != nil {
		return nil, err
	}
	s.srvMu.Lock()
	s.servers[srv.id] = srv
	s.srvMu.Unlock()
	return srv, nil
}

// post sends a posting (or tombstone) for srv from-and-about node.
func (s *System) post(srv *Server, node graph.NodeID, active bool) error {
	return s.postVia(srv, node, active, s.strategy().Post(node))
}

// postVia is post with an explicit target set — the migration primitive
// of an epoch transition, where a server re-posts only the delta the
// remap computed instead of its full posting set. The multicast is
// real; the network counts its hops.
func (s *System) postVia(srv *Server, node graph.NodeID, active bool, targets []graph.NodeID) error {
	entry := Entry{
		Port:     srv.port,
		Addr:     node,
		ServerID: srv.id,
		Time:     s.clock.Add(1),
		Active:   active,
	}
	reached, err := s.net.Flood(node, targets, postMsg{entry: entry})
	s.postsSent.Add(int64(reached))
	if err != nil {
		return fmt.Errorf("core: post %q from %d: %w", srv.port, node, err)
	}
	return nil
}

// Port returns the server's port.
func (srv *Server) Port() Port { return srv.port }

// ID returns the server's instance identifier — the ServerID its cached
// entries carry.
func (srv *Server) ID() uint64 { return srv.id }

// Node returns the server's current address.
func (srv *Server) Node() graph.NodeID {
	srv.mu.Lock()
	defer srv.mu.Unlock()
	return srv.node
}

// Repost refreshes the server's posting (e.g. after rendezvous caches
// were lost to a crash); it is how servers "regularly poll their
// rendezvous nodes" in practice.
func (srv *Server) Repost() error {
	srv.mu.Lock()
	node, gone := srv.node, srv.gone
	srv.mu.Unlock()
	if gone {
		return ErrServerGone
	}
	return srv.sys.post(srv, node, true)
}

// RepostVia refreshes the server's posting at an explicit target set
// instead of the full P(node) — the minimal-movement re-post of an
// epoch transition: only the rendezvous nodes the remap says are new
// receive the (fresh-timestamped) posting, at that multicast's real
// cost. An empty target set is a no-op that costs nothing.
func (srv *Server) RepostVia(targets []graph.NodeID) error {
	srv.mu.Lock()
	node, gone := srv.node, srv.gone
	srv.mu.Unlock()
	if gone {
		return ErrServerGone
	}
	return srv.sys.postVia(srv, node, true, targets)
}

// Migrate moves the server process to a new node (§1.3: destroy at one
// host, recreate at another). The fresh posting carries a newer timestamp
// than any stale entry left at the old rendezvous nodes, and an explicit
// tombstone is posted from the old address so its rendezvous nodes stop
// answering for it.
func (srv *Server) Migrate(to graph.NodeID) error {
	if !srv.sys.net.Graph().Valid(to) {
		return fmt.Errorf("core: migrate to %d: %w", to, graph.ErrNodeRange)
	}
	srv.mu.Lock()
	if srv.gone {
		srv.mu.Unlock()
		return ErrServerGone
	}
	from := srv.node
	srv.node = to
	srv.mu.Unlock()

	// Tombstone first (stale address must lose), then announce the new
	// address with a fresher timestamp.
	if err := srv.sys.post(srv, from, false); err != nil {
		// The old host may already be crashed; the fresh posting's newer
		// timestamp still wins wherever both are seen.
		if err2 := srv.sys.post(srv, to, true); err2 != nil {
			return errors.Join(err, err2)
		}
		return nil
	}
	return srv.sys.post(srv, to, true)
}

// Deregister removes the server: tombstones are posted to its rendezvous
// nodes and further operations fail with ErrServerGone.
func (srv *Server) Deregister() error {
	srv.mu.Lock()
	if srv.gone {
		srv.mu.Unlock()
		return ErrServerGone
	}
	srv.gone = true
	node := srv.node
	srv.mu.Unlock()
	srv.sys.srvMu.Lock()
	delete(srv.sys.servers, srv.id)
	srv.sys.srvMu.Unlock()
	return srv.sys.post(srv, node, false)
}

// LocateResult reports a successful locate.
type LocateResult struct {
	// Addr is the located server address.
	Addr graph.NodeID
	// Entry is the full winning cache entry.
	Entry Entry
	// From is the rendezvous node whose reply won the freshest-entry
	// collection — the attribution answer voting quarantines by.
	From graph.NodeID
	// QueriesSent is the number of rendezvous nodes addressed (#Q
	// reached).
	QueriesSent int
	// Replies is the number of rendezvous answers the flood produced —
	// exact: every reply has been delivered before the locate returns.
	Replies int
}

// Locate finds the address of a server for port from client node j: it
// multicasts a query along a spanning tree to every node of Q(j) and,
// once every query and reply of that flood has been handled, keeps the
// freshest entry among all the replies (stale postings of migrated
// servers lose by timestamp). It returns ErrNotFound if no rendezvous
// answers with a live entry.
func (s *System) Locate(client graph.NodeID, port Port) (LocateResult, error) {
	return s.LocateVia(client, port, nil, 0)
}

// flood multicasts q from client to targets (nil means the strategy's
// Q(client)) as one network request and returns how many nodes it
// reached and every reply it caused: misses are silent (§1.5), so the
// flood is over when its own messages have been handled, not when a
// clock says so.
func (s *System) flood(client graph.NodeID, targets []graph.NodeID, q queryMsg) (int, []replyMsg, error) {
	if !s.net.Graph().Valid(client) {
		return 0, nil, graph.ErrNodeRange
	}
	if targets == nil {
		targets = s.strategy().Query(client)
	}
	q.client, q.reqID = client, s.reqID.Add(1)
	s.mu.Lock()
	s.pending[q.reqID] = []replyMsg{}
	s.mu.Unlock()
	reached, err := s.net.Flood(client, targets, q)
	s.queriesSent.Add(int64(reached))
	s.mu.Lock()
	replies := s.pending[q.reqID]
	delete(s.pending, q.reqID)
	s.mu.Unlock()
	return reached, replies, err
}

// LocateVia is Locate with an explicit query set and replica family:
// the flood targets the given nodes instead of the strategy's Q(client)
// (nil targets means Q(client)), and rendezvous nodes answer under the
// family's scope when a replica filter is installed. It is the
// per-replica flood primitive of the serving layer's replicated
// rendezvous mode — each family's query set is flooded on its own, with
// the network charging that flood's real multicast and reply hops, so a
// fallthrough locate pays exactly one flood per replica tried.
func (s *System) LocateVia(client graph.NodeID, port Port, targets []graph.NodeID, family int) (LocateResult, error) {
	reached, replies, err := s.flood(client, targets, queryMsg{port: port, family: family})
	if err != nil {
		return LocateResult{}, fmt.Errorf("core: locate %q from %d: %w", port, client, err)
	}
	res := LocateResult{QueriesSent: reached, Replies: len(replies)}
	var best replyMsg
	for i, r := range replies {
		// Equal timestamps are one posting seen at several rendezvous
		// nodes; the lowest node wins so the result is a function of the
		// history, not of delivery order.
		if i == 0 || r.entry.Time > best.entry.Time || r.entry.Time == best.entry.Time && r.from < best.from {
			best = r
		}
	}
	if !best.entry.Active {
		return res, fmt.Errorf("locate %q from %d: %w", port, client, ErrNotFound)
	}
	res.Addr, res.Entry, res.From = best.entry.Addr, best.entry, best.from
	return res, nil
}

// LocateAll finds every live server instance for port visible from
// client node j: it queries Q(j) once and collects all distinct server
// instances that answer. A service "may be offered by more than one
// server process" (§1.3); LocateAll surfaces all of them so the client
// can choose.
func (s *System) LocateAll(client graph.NodeID, port Port) ([]Entry, error) {
	return s.LocateAllVia(client, port, nil, 0)
}

// LocateAllVia is LocateAll with an explicit query set (nil means the
// strategy's Q(client)) and replica family — the replica-fallthrough
// primitive for locate-all, mirroring LocateVia.
func (s *System) LocateAllVia(client graph.NodeID, port Port, targets []graph.NodeID, family int) ([]Entry, error) {
	_, replies, err := s.flood(client, targets, queryMsg{port: port, all: true, family: family})
	if err != nil {
		return nil, fmt.Errorf("core: locate-all %q from %d: %w", port, client, err)
	}
	freshest := make(map[uint64]Entry) // by server instance
	for _, r := range replies {
		if cur, ok := freshest[r.entry.ServerID]; !ok || r.entry.Time > cur.Time {
			freshest[r.entry.ServerID] = r.entry
		}
	}
	var out []Entry
	for _, e := range freshest {
		if e.Active {
			out = append(out, e)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("locate-all %q from %d: %w", port, client, ErrNotFound)
	}
	return out, nil
}

// LocateNearest locates all live servers for port and returns the one
// with the smallest hop distance from the client — the locality
// preference that §3.5's "nearly every service will be a local service"
// model wants.
func (s *System) LocateNearest(client graph.NodeID, port Port) (LocateResult, error) {
	entries, err := s.LocateAll(client, port)
	if err != nil {
		return LocateResult{}, err
	}
	routing := s.net.Routing()
	best := entries[0]
	bestDist := routing.Dist(client, best.Addr)
	for _, e := range entries[1:] {
		if d := routing.Dist(client, e.Addr); d >= 0 && (bestDist < 0 || d < bestDist) {
			best, bestDist = e, d
		}
	}
	return LocateResult{Addr: best.Addr, Entry: best, Replies: len(entries)}, nil
}

// PollRendezvous checks how many of the server's rendezvous nodes are
// alive and still hold its live posting — the "services regularly poll
// their rendezvous nodes to see if they are still alive" maintenance of
// §5. It returns (live postings, total rendezvous nodes).
func (srv *Server) PollRendezvous() (live, total int) {
	srv.mu.Lock()
	node, gone, id := srv.node, srv.gone, srv.id
	srv.mu.Unlock()
	if gone {
		return 0, 0
	}
	s := srv.sys
	targets := s.strategy().Post(node)
	for _, v := range targets {
		total++
		if s.net.Crashed(v) {
			continue
		}
		if e, ok := s.caches[v].get(srv.port); ok && e.Active && e.ServerID == id {
			live++
		}
	}
	return live, total
}

// MaintainRendezvous polls the rendezvous nodes and reposts when fewer
// than minLive of them still hold the server's posting, returning
// whether a repost happened. Callers run it periodically to self-heal
// after rendezvous reboots.
func (srv *Server) MaintainRendezvous(minLive int) (bool, error) {
	live, total := srv.PollRendezvous()
	if total == 0 {
		return false, ErrServerGone
	}
	if live >= minLive {
		return false, nil
	}
	if err := srv.Repost(); err != nil {
		return false, err
	}
	return true, nil
}

// Strategy returns the strategy the system runs.
func (s *System) Strategy() rendezvous.Strategy { return s.strategy() }

// Network returns the underlying simulator network.
func (s *System) Network() *sim.Network { return s.net }

// CacheSize returns the number of live entries cached at node v.
func (s *System) CacheSize(v graph.NodeID) int {
	if !s.net.Graph().Valid(v) {
		return 0
	}
	return s.caches[v].size()
}

// CacheSizes returns the cache sizes of all nodes, the storage measure of
// the paper's analyses.
func (s *System) CacheSizes() []int {
	out := make([]int, len(s.caches))
	for v := range s.caches {
		out[v] = s.caches[v].size()
	}
	return out
}

// ClearCache drops all entries cached at node v, modelling the loss of
// volatile state when the node crashes and later reboots.
func (s *System) ClearCache(v graph.NodeID) {
	if s.net.Graph().Valid(v) {
		s.caches[v].clear()
	}
}

// ExpireEntry drops the cached posting of one server instance at node v
// — the local garbage collection of an epoch retirement: postings left
// at rendezvous nodes that belong only to the drained epoch expire in
// place, by local decision, costing no messages (the serving layer
// knows which (node, port, instance) triples the remap orphaned).
func (s *System) ExpireEntry(v graph.NodeID, port Port, serverID uint64) {
	if s.net.Graph().Valid(v) {
		s.caches[v].drop(port, serverID)
	}
}

// InjectEntry force-places e in node v's cache, replacing any entry of
// the same server instance regardless of timestamps — deliberately
// bypassing the §2.1 merge rule posting delivery enforces. It is the
// fault-injection backdoor of the anti-entropy chaos harness: it models
// a rendezvous node whose volatile state silently went wrong.
func (s *System) InjectEntry(v graph.NodeID, e Entry) {
	if s.net.Graph().Valid(v) {
		s.caches[v].inject(e)
	}
}

// CacheEntries returns every entry cached at node v, tombstones
// included — the raw state dump anti-entropy reconciliation diffs
// against the registration ground truth.
func (s *System) CacheEntries(v graph.NodeID) []Entry {
	if !s.net.Graph().Valid(v) {
		return nil
	}
	return s.caches[v].entries()
}

// LiveServers returns a snapshot of every currently registered server
// handle — the iteration surface an epoch transition re-posts over.
func (s *System) LiveServers() []*Server {
	s.srvMu.Lock()
	defer s.srvMu.Unlock()
	out := make([]*Server, 0, len(s.servers))
	for _, srv := range s.servers {
		out = append(out, srv)
	}
	return out
}

// Counters returns the logical message counts (posts, queries, replies)
// accumulated so far; transport-level hops live on the Network.
func (s *System) Counters() (posts, queries, replies int64) {
	return s.postsSent.Load(), s.queriesSent.Load(), s.repliesSent.Load()
}

// ResetCounters zeroes the logical counters.
func (s *System) ResetCounters() {
	s.postsSent.Store(0)
	s.queriesSent.Store(0)
	s.repliesSent.Store(0)
}
