package cluster

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"matchmake/internal/core"
	"matchmake/internal/graph"
	"matchmake/internal/sim"
	"matchmake/internal/stats"
	"matchmake/internal/strategy"
)

// coordinator is the one implementation of everything the paper's model
// defines, written once over a substrate that only moves rows: which
// nodes a posting or a query flood reaches (one set table, see
// setTable), what each message costs (multicast-tree edges for floods,
// hop distance for replies — what the simulator counts on a healthy
// network), the registration table and its ServerRef handles, the
// logical posting clock and server ids, crash marks, the hint generation
// index, replica and dual-epoch fallthrough, hot-port promotion, epoch
// migration, anti-entropy and the Byzantine harness. MemTransport,
// NetTransport and SimTransport embed it and differ only in the
// substrate they plug in, so sim = mem = net holds by construction above
// that seam.
//
// Crashes are modelled at the endpoints on every substrate (a crashed
// origin cannot post or query — sim.ErrCrashed — and a crashed
// rendezvous node drops postings and does not answer); a route through a
// crashed interior node delivers. The charge still pays for tree edges
// that lead only to crashed targets and for a probe a crashed address
// swallows, which no substrate is handed — the one place the simulator's
// hop count falls below the charge. Timestamps and
// server ids are allocated here, so all registrations, migrations and
// crash events of a cluster must flow through one coordinator for the
// freshest-entry tie-break to stay globally ordered.
//
// Lock order, outermost first:
//
//	lifeMu (shared) → resizeMu → regMu → server.mu
//
// lifeMu fences every write — register, post, tombstone, migrate,
// deregister, repair, resize, reconcile, promotion — against a wire
// substrate's Rescale, which holds it exclusively across the partition
// transfer and the process-set swap: no write can land on an old
// process after its partition was snapshotted and silently vanish from
// the new set (a lost tombstone would resurrect a deregistered server).
// FinishResize holds it exclusively too, so no write posted to both
// epochs' sets lands after the retiring epoch's rows were expired.
// Reads — locates, probes — take no lock: a read racing a swap at worst
// misses transiently, which fallthrough and hint re-resolution absorb.
// resizeMu serializes the Resize/FinishResize state machine and
// reconciliation rounds (the ground truth must not shift epochs
// mid-diff). regMu guards the registration table and linearizes
// registration class decisions against reclassification and epoch
// installs. A server's mu guards its home and liveness; system-driven
// re-posts hold it across their re-check and post (see repostLocked),
// while the owner's Migrate/Deregister/Repost only mark under it, so it
// is never held while waiting for regMu. Substrate calls are made under
// any of these; a substrate calls back only from its own goroutines.
type coordinator struct {
	// passes leads the struct so its cacheline-padded stripes stay
	// line-aligned: behind the read-mostly fields below, a stripe shares
	// a line with crash marks and generations that every probe reads.
	// No charge is striped by who it is for — callers on several cores
	// serve the same clients. A flood charges on the stripe its pooled
	// flood object carries (sync.Pool hands a processor back the object
	// it last returned, so that stripe follows the core for free); a
	// probe, which has no pooled object, takes a lane for the add.
	passes stats.StripedCounter
	lanes  stats.Lanes

	g       *graph.Graph
	routing *graph.Routing
	sub     substrate

	// table is the geometry served: the serving epoch's set/cost table
	// (see setcosts.go), chained to the retiring epoch's during a
	// dual-epoch migration. Every transport mode reads it the same way.
	table atomic.Pointer[setTable]

	// elastic and hash are the two construction facts the modes still
	// differ by. elastic is whether the membership may change
	// (Layout.Elastic). It is read in five places and no others — the
	// "-elastic" name suffix, Elastic and Epoch, the ErrNotElastic
	// admission of Resize and FinishResize, readScope (a fixed r = 1
	// flood stays unscoped), and querySet (an out-of-range replica is a
	// hard error on a fixed transport, a retired family's silent miss on
	// an elastic one).
	elastic bool
	// hash is Layout.Hash, the addresses per port under hash locate (0 =
	// off), read only by the three seams that pick sets: postSets,
	// querySet and readScope.
	hash int

	resizeMu    sync.Mutex
	migrated    atomic.Int64
	dualLocates atomic.Int64

	lifeMu sync.RWMutex

	// servers is the live registration table, by server id: the ground
	// truth repair, reconciliation, promotion and epoch migration re-post
	// from. (The liveness records probes answer from are the substrate's.)
	regMu   sync.Mutex
	servers map[uint64]*server

	gens     *genIndex
	crashed  []atomic.Bool
	clock    atomic.Uint64 // logical posting timestamps
	serverID atomic.Uint64
	events   eventSink

	recon reconciler // anti-entropy counters and loop (antientropy.go)

	// forge mirrors the Byzantine lie plan last handed to the substrate
	// (byzantine.go) — only for ArmedNodes; the lies are told where the
	// rows are.
	forge atomic.Pointer[forgeTable]

	// coal merges concurrent single locates into shared floods: nil on
	// the in-process substrate, where a flood is not a round trip.
	coal *netCoalescer

	floods sync.Pool // *flood
}

// coordinated is everything a transport gets by embedding the
// coordinator: the Transport contract plus every capability interface
// the cluster type-asserts for.
type coordinated interface {
	Transport
	HotReclassifier
	ElasticTransport
	AntiEntropyTransport
	ByzantineTransport // embeds ReplicatedTransport
	EventSource
	genSlotter
}

var _, _ coordinated = (*MemTransport)(nil), (*NetTransport)(nil)

// newCoordinator builds the model state over g serving lay. The caller
// plugs in the substrate.
func newCoordinator(g *graph.Graph, lay Layout) (*coordinator, error) {
	n := g.N()
	if err := lay.check(n); err != nil {
		return nil, err
	}
	routing, err := graph.NewRouting(g)
	if err != nil {
		return nil, fmt.Errorf("cluster: %w", err)
	}
	t, err := newSetTable(routing, lay.Epoch, lay.Weighted, nil)
	if err != nil {
		return nil, err
	}
	c := &coordinator{
		g:       g,
		routing: routing,
		elastic: lay.Elastic,
		hash:    lay.Hash,
		servers: make(map[uint64]*server),
		gens:    new(genIndex),
		crashed: make([]atomic.Bool, n),
	}
	c.table.Store(t)
	c.floods.New = func() any { return &flood{stripe: c.lanes.Get()} }
	return c, nil
}

// Name implements Transport.
func (c *coordinator) Name() string {
	kind, t := c.sub.kind(), c.table.Load()
	switch {
	case c.elastic:
		return kind + "-elastic"
	case t.hot != nil:
		return kind + "-weighted"
	case t.replicas() > 1:
		return fmt.Sprintf("%s-r%d", kind, t.replicas())
	}
	return kind
}

// Replicas implements ReplicatedTransport: the replication factor of
// the epoch in use (1 when unreplicated). Mid-migration it is the
// dual-epoch family count — the serving epoch's families plus the
// retiring epoch's appended after them — so the ordinary fallthrough
// loop visits both epochs.
func (c *coordinator) Replicas() int { return c.table.Load().replicas() }

// N implements Transport.
func (c *coordinator) N() int { return c.g.N() }

// Gen implements Transport: bumped on register, migrate, deregister and
// crash, and when a substrate sees a node process die.
func (c *coordinator) Gen(port core.Port) uint64 { return c.gens.gen(port) }

func (c *coordinator) genSlot(port core.Port) *atomic.Uint64 { return c.gens.slot(port) }

// canReclassify reports whether SetHotPorts can succeed — i.e. the
// transport was built with a weighted layout. The cluster checks it
// before starting a reclassification loop, so HotPorts on a plain
// transport fails loudly instead of ticking in vain.
func (c *coordinator) canReclassify() bool { return c.table.Load().hot != nil }

// HotPorts returns the currently published hot classification (for
// tests and reports).
func (c *coordinator) HotPorts() []core.Port { return c.table.Load().hot.ports() }

// postSets returns the posting targets and multicast cost for srv
// posting from node: the table's sets (widened to both epochs' union
// during a migration), under hash locate the union of every rehash
// attempt's addresses of srv's port, or under the weighted overlay the
// union sets once srv's port is hot — sticky: postedHot is set the
// first time the union sets are chosen and never cleared.
func (c *coordinator) postSets(srv *server, node graph.NodeID) ([]graph.NodeID, int64) {
	t := c.table.Load()
	if c.hash > 0 {
		var set []graph.NodeID
		for k := range t.replicas() {
			set = unionIDs(set, strategy.HashSet(srv.port, k, c.hash, c.g.N()))
		}
		return set, c.treeCost(node, set)
	}
	if h := t.hot; h != nil && (srv.postedHot.Load() || h.isHot(srv.port)) {
		srv.postedHot.Store(true)
		return h.post[node], h.postCost[node]
	}
	return t.postFor(node)
}

// treeCost is the multicast-tree cost from node to a set chosen per
// operation (hash locate's), where there is no precomputed table entry.
// node is valid, and every node reaches every other: the set table of a
// strategy that matches every pair cannot be built on a disconnected
// graph.
func (c *coordinator) treeCost(node graph.NodeID, set []graph.NodeID) int64 {
	d, _ := c.routing.MulticastCost(node, set)
	return int64(d)
}

// server is the coordinator's ServerRef: one live registration, the
// ground truth its postings are (re)derived from.
type server struct {
	c    *coordinator
	port core.Port
	id   uint64

	// postedHot is set the first time the server posts under the union
	// sets and never cleared; see coordinator.postSets.
	postedHot atomic.Bool

	mu   sync.Mutex
	node graph.NodeID
	gone bool
}

// newServer fills in a registration and publishes it in the table.
// Under regMu the class decision is linearized against SetHotPorts:
// either srv reads the new classification here, or SetHotPorts finds
// srv in the table and reposts it.
func (c *coordinator) newServer(srv *server, port core.Port, node graph.NodeID) {
	srv.c, srv.port, srv.id, srv.node = c, port, c.serverID.Add(1), node
	c.regMu.Lock()
	c.servers[srv.id] = srv
	if c.table.Load().hot.isHot(port) {
		srv.postedHot.Store(true)
	}
	c.regMu.Unlock()
}

func (c *coordinator) dropServer(srv *server) {
	c.regMu.Lock()
	delete(c.servers, srv.id)
	c.regMu.Unlock()
}

// liveServer is one live registration and its home when snapshotted.
type liveServer struct {
	srv  *server
	node graph.NodeID
}

// liveServersLocked snapshots every non-gone registration with its
// current home node, in server-id order — the order every system re-post
// (resize delta, repair, reconciliation, promotion) stamps them in, so
// which of a port's servers is freshest at a rendezvous node is a
// function of the history, not of map order; the caller holds regMu.
func (c *coordinator) liveServersLocked() []liveServer {
	var out []liveServer
	for _, srv := range c.servers {
		srv.mu.Lock()
		node, gone := srv.node, srv.gone
		srv.mu.Unlock()
		if !gone {
			out = append(out, liveServer{srv: srv, node: node})
		}
	}
	slices.SortFunc(out, func(a, b liveServer) int { return cmp.Compare(a.srv.id, b.srv.id) })
	return out
}

func (c *coordinator) liveServers() []liveServer {
	c.regMu.Lock()
	defer c.regMu.Unlock()
	return c.liveServersLocked()
}

// checkHome validates a server home for op ("register at", "migrate
// to"): a graph node that is a member of the serving epoch.
func (c *coordinator) checkHome(op string, port core.Port, node graph.NodeID) error {
	if !c.g.Valid(node) {
		return fmt.Errorf("cluster: %s %d: %w", op, node, graph.ErrNodeRange)
	}
	if ep := c.table.Load().ep; !ep.Contains(node) {
		return errOutsideMembership(port, node, ep)
	}
	return nil
}

// Register implements Transport: the liveness record lands where
// probes of node are answered, the postings at the posting set, and the
// posting multicast is charged its tree cost. The node must be a member
// of the serving epoch.
func (c *coordinator) Register(port core.Port, node graph.NodeID) (ServerRef, error) {
	refs, err := c.PostBatch([]Registration{{Port: port, Node: node}})
	if err != nil {
		return nil, err
	}
	return refs[0], nil
}

// PostBatch implements Transport: registrations are validated up
// front, the liveness records land with their hosts in one substrate
// call and the whole batch's postings in another, with the summed
// multicast cost charged in one add — the same ids, timestamps and
// totals as the equivalent sequence of Registers, in two rounds of
// frames however many servers there are. It is all or nothing: one
// refused record undoes every registration of the batch.
func (c *coordinator) PostBatch(regs []Registration) ([]ServerRef, error) {
	for _, r := range regs {
		if err := c.checkHome("register at", r.Port, r.Node); err != nil {
			return nil, err
		}
		if err := c.originUp(r.Port, r.Node); err != nil {
			return nil, err
		}
	}
	c.lifeMu.RLock()
	defer c.lifeMu.RUnlock()
	// The batch's servers are one allocation: a deregistered one stays
	// allocated, at 64 bytes, until no ref of its batch is held.
	refs := make([]ServerRef, len(regs))
	servers := make([]server, len(regs))
	recs := make([]liveReg, len(regs))
	for i, r := range regs {
		c.newServer(&servers[i], r.Port, r.Node)
		refs[i] = &servers[i]
		recs[i] = liveReg{id: servers[i].id, port: r.Port, node: r.Node, from: noNode}
	}
	undo := func(err error) ([]ServerRef, error) {
		for i := range servers {
			c.dropServer(&servers[i])
			c.sub.deregister(servers[i].id, servers[i].node)
		}
		return nil, err
	}
	if err := c.sub.register(recs); err != nil {
		return undo(err)
	}
	// Re-check membership now that the registrations are published:
	// newServer and Resize's snapshot+publish both hold regMu, so either
	// these servers made the snapshot (and Resize validated them) or the
	// epoch loaded here is the post-resize one — a registration racing a
	// shrink cannot slip outside the membership unvalidated.
	for _, r := range regs {
		if err := c.checkHome("register at", r.Port, r.Node); err != nil {
			return undo(err)
		}
	}
	fl := c.postFlood()
	fl.posts = slices.Grow(fl.posts, len(regs))
	for i, r := range regs {
		targets, cost := c.postSets(&servers[i], r.Node)
		if i == 0 { // posting sets are about one size
			fl.keys = slices.Grow(fl.keys, len(regs)*len(targets))
		}
		if err := c.stage(fl, &servers[i], r.Node, true, targets, cost); err != nil {
			c.floods.Put(fl) // the origin crashed since the check above
			return undo(err)
		}
	}
	c.send(fl)
	// A fresh registration can change the freshest-entry winner for the
	// port, so cached hints must re-resolve.
	for _, r := range regs {
		c.gens.bump(r.Port)
	}
	return refs, nil
}

// appendLive appends a row key for request req at every target that is
// not marked crashed. Each include/skip decision is taken exactly once,
// here, so a concurrent Crash can never make what a substrate encodes
// disagree with what it later decodes.
func (c *coordinator) appendLive(keys []rowKey, req int32, targets []graph.NodeID) []rowKey {
	for _, v := range targets {
		if !c.crashed[v].Load() {
			keys = append(keys, rowKey{req: req, node: v})
		}
	}
	return keys
}

// post delivers a posting (or tombstone) for srv from-and-about node to
// its posting set.
func (c *coordinator) post(srv *server, node graph.NodeID, active bool) error {
	targets, cost := c.postSets(srv, node)
	return c.postTo(srv, node, active, targets, cost)
}

// postTo multicasts a freshly timestamped entry for srv from node to an
// explicit target set at a pre-computed multicast cost — the primitive
// ordinary postings, epoch-migration deltas and repairs share.
func (c *coordinator) postTo(srv *server, node graph.NodeID, active bool, targets []graph.NodeID, cost int64) error {
	fl := c.postFlood()
	err := c.stage(fl, srv, node, active, targets, cost)
	c.send(fl)
	return err
}

// originUp is the error a crashed origin's multicast fails with,
// matching the simulator's; nil when node is up.
func (c *coordinator) originUp(port core.Port, node graph.NodeID) error {
	if c.crashed[node].Load() {
		return fmt.Errorf("cluster: post %q from %d: %w", port, node, sim.ErrCrashed)
	}
	return nil
}

// postFlood readies a pooled flood for staging postings.
func (c *coordinator) postFlood() *flood {
	fl := c.floods.Get().(*flood)
	fl.keys, fl.posts, fl.cost = fl.keys[:0], fl.posts[:0], 0
	return fl
}

// stage adds one posting (or tombstone) to the multicast fl assembles:
// srv's entry from-and-about node, freshly timestamped, keyed to every
// target not marked crashed, at its full cost — targets on crashed nodes
// or unreachable processes are skipped silently but still paid for, the
// flood was sent. A crashed origin cannot post: nothing is staged,
// timestamped or charged.
func (c *coordinator) stage(fl *flood, srv *server, node graph.NodeID, active bool, targets []graph.NodeID, cost int64) error {
	if err := c.originUp(srv.port, node); err != nil {
		return err
	}
	fl.keys = c.appendLive(fl.keys, int32(len(fl.posts)), targets)
	fl.posts = append(fl.posts, core.Entry{Port: srv.port, Addr: node, ServerID: srv.id, Time: c.clock.Add(1), Active: active})
	fl.cost += cost
	return nil
}

// send delivers what was staged in fl — one substrate call, one charge
// — and returns fl to the pool.
func (c *coordinator) send(fl *flood) {
	if len(fl.posts) > 0 {
		c.passes.Add(fl.stripe, fl.cost)
		c.sub.post(fl.posts, fl.keys)
	}
	c.floods.Put(fl)
}

// repostLocked is the one way the system — as opposed to the server's
// owner — re-posts a live registration (epoch-migration delta, range
// repair, reconciliation, hot-port promotion). It holds srv.mu across
// the liveness re-check AND the post: a system re-post carries a fresh
// timestamp, so letting it race a concurrent Deregister or Migrate
// could stamp an Active entry fresher than the lifecycle operation's
// tombstone and resurrect a gone (or moved-away) server at every
// rendezvous node. at, when not noNode, is the home the caller planned
// against; a server that has since moved is skipped. plan runs under
// srv.mu and picks the targets for the server's current home (none
// means nothing to do); the post is charged their multicast-tree cost
// from there. It returns the number of (server, node) postings placed.
func (c *coordinator) repostLocked(srv *server, at graph.NodeID, plan func(node graph.NodeID) []graph.NodeID) (int, error) {
	srv.mu.Lock()
	defer srv.mu.Unlock()
	if srv.gone || (at != noNode && srv.node != at) {
		return 0, nil
	}
	targets := plan(srv.node)
	if len(targets) == 0 {
		return 0, nil
	}
	cost, err := c.routing.MulticastCost(srv.node, targets)
	if err == nil {
		err = c.postTo(srv, srv.node, true, targets, int64(cost))
	}
	if err != nil {
		return 0, err
	}
	return len(targets), nil
}

// family is one flood's resolved replica family: which table its query
// sets come from and how its reads are scoped.
type family struct {
	t     *setTable // the installed table
	tab   *setTable // the table owning the family (t, or t.prev mid-migration); nil when there is none
	k     int       // family index within tab
	scope scope
}

// family resolves replica. The index spans both live epochs' families
// (the retiring epoch's appended after the serving one's), so the
// ordinary fallthrough is also the dual-epoch locate; an index past
// them is out of range — on an elastic transport, FinishResize raced an
// in-flight fallthrough.
func (c *coordinator) family(replica int) family {
	f := family{t: c.table.Load()}
	if f.tab, f.k = f.t.resolve(replica); f.tab != nil {
		f.scope = scope{in: c.readScope(f.tab.ep), fam: f.k}
	}
	return f
}

// readScope returns the geometry that family-scopes reads of ep's
// families, nil when they are unscoped. Reads are scoped iff the
// membership is elastic or there is more than one family: a fixed r = 1
// transport has a single rendezvous channel, every row a node holds
// belongs to it, and its floods stay the unscoped wire op. Hash locate
// is never scoped: a server posts to every rehash attempt's addresses,
// so every family of a port holds the same entries.
func (c *coordinator) readScope(ep *strategy.Epoch) familyGeometry {
	if (c.elastic || ep.Replicas() > 1) && c.hash == 0 {
		return ep
	}
	return nil
}

// querySet returns the flood targets and multicast cost of family f for
// a locate of port from client, or the reason no flood is sent: an
// invalid or crashed client fails hard, a retired family or a client
// outside the family's epoch is a silent miss that costs nothing.
func (c *coordinator) querySet(f family, what string, client graph.NodeID, port core.Port, replica int) ([]graph.NodeID, int64, error) {
	if !c.g.Valid(client) {
		return nil, 0, fmt.Errorf("cluster: %s from %d: %w", what, client, graph.ErrNodeRange)
	}
	if c.crashed[client].Load() {
		return nil, 0, fmt.Errorf("cluster: %s from %d: %w", what, client, sim.ErrCrashed)
	}
	if f.tab == nil {
		if c.elastic {
			return nil, 0, errRetiredReplica(port, client, replica)
		}
		return nil, 0, fmt.Errorf("cluster: replica %d out of [0,%d)", replica, f.t.replicas())
	}
	if c.hash > 0 {
		set := strategy.HashSet(port, f.k, c.hash, c.g.N())
		return set, c.treeCost(client, set), nil
	}
	if h := f.t.hot; h.isHot(port) {
		return h.query[client], h.queryCost[client], nil
	}
	targets := f.tab.query[f.k][client]
	if len(targets) == 0 {
		return nil, 0, errMissingEpochFlood(port, client)
	}
	return targets, f.tab.queryCost[f.k][client], nil
}

// Locate implements Transport: it charges the query multicast flood,
// reads every live rendezvous node's cache, charges each hit's reply
// path, and returns the freshest active entry among all of the flood's
// answers (§1.5: the freshest posting wins). On a replicated transport
// a rendezvous miss — crashed meeting nodes, a killed node process —
// falls through the replica families in order, each attempt charged its
// own flood.
func (c *coordinator) Locate(client graph.NodeID, port core.Port) (core.Entry, error) {
	e, _, err := locateFallthrough(c, client, port, 0)
	return e, err
}

// LocateReplica implements ReplicatedTransport: one query flood over
// replica k's query set only. With a coalescer the flood is merged with
// concurrent ones into shared substrate calls, which changes neither
// answers nor charges.
func (c *coordinator) LocateReplica(client graph.NodeID, port core.Port, replica int) (core.Entry, error) {
	if c.coal != nil {
		return c.coalescedLocate(client, port, replica)
	}
	e, _, err := c.LocateReplicaAt(client, port, replica)
	return e, err
}

// LocateReplicaAt implements ByzantineTransport: one uncoalesced replica
// flood — merged floods do not carry answerer identity — that also
// returns the rendezvous node whose entry won the freshest reduction,
// which the cluster's voting mode needs to know whom to quarantine. It
// is a batch of one, run in the pooled flood's one-element arrays.
func (c *coordinator) LocateReplicaAt(client graph.NodeID, port core.Port, replica int) (core.Entry, graph.NodeID, error) {
	fl := c.floods.Get().(*flood)
	fl.oneReq[0], fl.oneFrom[0] = LocateReq{Client: client, Port: port}, 0
	c.flood(fl, fl.oneReq[:], fl.oneRes[:], fl.oneFrom[:], replica)
	e, from, err := fl.oneRes[0].Entry, fl.oneFrom[0], fl.oneRes[0].Err
	fl.oneRes[0].Err = nil
	c.floods.Put(fl)
	return e, from, err
}

// LocateBatch implements Transport: the whole batch's row reads go to
// the substrate in one call per replica pass, and the batch's passes
// land in one add. Answers and total cost are identical to the
// equivalent sequence of Locate calls — including, on a replicated
// transport, the per-request replica fallthrough: misses of one pass
// re-flood the next family as a sub-batch.
func (c *coordinator) LocateBatch(reqs []LocateReq, res []LocateRes) {
	n := min(len(reqs), len(res))
	c.locateBatchReplica(reqs[:n], res[:n], 0)
	if r := c.Replicas(); r > 1 {
		batchFallthrough(reqs[:n], res[:n], r, c.locateBatchReplica)
	}
}

// locateBatchReplica runs one batch pass over replica k's query sets;
// reqs and res have equal length.
func (c *coordinator) locateBatchReplica(reqs []LocateReq, res []LocateRes, replica int) {
	if len(reqs) == 0 {
		return
	}
	fl := c.floods.Get().(*flood)
	c.flood(fl, reqs, res, nil, replica)
	c.floods.Put(fl)
}

// flood is the one locate primitive: for every request it charges the
// family's query multicast, asks the substrate — in a single call — for
// the freshest row at every live rendezvous node, charges each reply its
// hop distance back to the client, and reduces to the freshest entry per
// request by the fresher rule, on every substrate. from, when non-nil,
// receives the winning node per request.
func (c *coordinator) flood(fl *flood, reqs []LocateReq, res []LocateRes, from []graph.NodeID, replica int) {
	f := c.family(replica)
	fl.reqs, fl.scope, fl.keys = reqs, f.scope, fl.keys[:0]
	var bulk int64
	for i := range reqs {
		res[i] = LocateRes{}
		targets, cost, err := c.querySet(f, "locate", reqs[i].Client, reqs[i].Port, replica)
		if err != nil {
			res[i].Err = err
			continue
		}
		bulk += cost
		fl.keys = c.appendLive(fl.keys, int32(i), targets)
	}
	fl.ans = slices.Grow(fl.ans[:0], len(fl.keys))[:len(fl.keys)]
	clear(fl.ans)
	fl.found = slices.Grow(fl.found[:0], len(reqs))[:len(reqs)]
	clear(fl.found)
	if len(fl.keys) > 0 {
		c.sub.readFreshest(fl)
	}
	for i, k := range fl.keys {
		a := &fl.ans[i]
		if !a.ok {
			continue // misses are silent, as in §1.5
		}
		bulk += int64(c.routing.Dist(k.node, reqs[k.req].Client))
		if !fl.found[k.req] || fresher(a.e, res[k.req].Entry) {
			res[k.req].Entry, fl.found[k.req] = a.e, true
			if from != nil {
				from[k.req] = k.node
			}
		}
	}
	var dual int64
	for i := range reqs {
		switch {
		case res[i].Err != nil:
		case !fl.found[i]:
			res[i].Err = fmt.Errorf("cluster: locate %q from %d: %w", reqs[i].Port, reqs[i].Client, core.ErrNotFound)
		case f.tab != f.t:
			dual++ // resolved by the retiring epoch's family
		}
	}
	if dual > 0 {
		c.dualLocates.Add(dual)
	}
	fl.reqs = nil
	if bulk != 0 {
		c.passes.Add(fl.stripe, bulk)
	}
}

// batchFallthrough re-runs the not-found requests of a batch against
// each remaining replica family in order, scattering the sub-batch
// results back — the batched form of locateFallthrough.
func batchFallthrough(reqs []LocateReq, res []LocateRes, replicas int, pass func([]LocateReq, []LocateRes, int)) {
	var (
		retryReqs []LocateReq
		retryIdx  []int
		retryRes  []LocateRes
	)
	for k := 1; k < replicas; k++ {
		retryReqs, retryIdx = retryReqs[:0], retryIdx[:0]
		for i := range res {
			if res[i].Err != nil && errors.Is(res[i].Err, core.ErrNotFound) {
				retryReqs = append(retryReqs, reqs[i])
				retryIdx = append(retryIdx, i)
			}
		}
		if len(retryReqs) == 0 {
			return
		}
		if cap(retryRes) < len(retryReqs) {
			retryRes = make([]LocateRes, len(retryReqs))
		}
		rr := retryRes[:len(retryReqs)]
		pass(retryReqs, rr, k)
		for j, i := range retryIdx {
			res[i] = rr[j]
		}
	}
}

// Probe implements Transport: one direct request to the hinted address
// and one reply back, 2×Dist(client, e.Addr) passes — against a full
// query flood for a locate. The answer comes from the liveness record
// the address's host keeps: hit iff the probed instance is live and
// still resides at e.Addr. A crashed address — or a host that cannot be
// reached — swallows the request (one-way charge only, fail-stop at the
// endpoint, like every other crash interaction).
func (c *coordinator) Probe(client graph.NodeID, e core.Entry) (core.Entry, error) {
	if !c.g.Valid(client) {
		return core.Entry{}, fmt.Errorf("cluster: probe from %d: %w", client, graph.ErrNodeRange)
	}
	if !c.g.Valid(e.Addr) {
		return core.Entry{}, fmt.Errorf("cluster: probe at %d: %w", e.Addr, graph.ErrNodeRange)
	}
	if c.crashed[client].Load() {
		return core.Entry{}, fmt.Errorf("cluster: probe from %d: %w", client, sim.ErrCrashed)
	}
	d := int64(c.routing.Dist(client, e.Addr))
	ans := probeSilent
	if !c.crashed[e.Addr].Load() {
		ans = c.sub.probe(client, e.Port, e.Addr, e.ServerID)
	}
	if ans == probeSilent {
		c.charge(d) // the request was swallowed; no answer came back
		return core.Entry{}, fmt.Errorf("cluster: probe %q at %d: %w", e.Port, e.Addr, sim.ErrCrashed)
	}
	c.charge(2 * d) // request + reply, positive or negative
	if ans == probeHit {
		return core.Entry{Port: e.Port, Addr: e.Addr, ServerID: e.ServerID, Time: e.Time, Active: true}, nil
	}
	return core.Entry{}, fmt.Errorf("cluster: probe %q at %d: %w", e.Port, e.Addr, core.ErrNotFound)
}

// charge adds n passes for an operation that holds no pooled flood, on a
// lane taken for the add.
func (c *coordinator) charge(n int64) {
	stripe := c.lanes.Get()
	c.passes.Add(stripe, n)
	c.lanes.Put(stripe)
}

// LocateAll implements Transport, falling through the replica families
// like Locate when no rendezvous node of a family answers.
func (c *coordinator) LocateAll(client graph.NodeID, port core.Port) ([]core.Entry, error) {
	return locateAll(c, func(k int) ([]core.Entry, error) {
		return c.locateAllReplica(client, port, k)
	})
}

// locateAllReplica is one locate-all flood over replica k's query set:
// the flood cost plus each answering node's reply distance per entry it
// returns, reduced to the freshest entry per server instance.
func (c *coordinator) locateAllReplica(client graph.NodeID, port core.Port, replica int) ([]core.Entry, error) {
	f := c.family(replica)
	targets, cost, err := c.querySet(f, "locate-all", client, port, replica)
	if err != nil {
		return nil, err
	}
	fl := c.floods.Get().(*flood)
	fl.oneReq[0] = LocateReq{Client: client, Port: port}
	fl.reqs, fl.scope, fl.all = fl.oneReq[:], f.scope, fl.all[:0]
	fl.keys = c.appendLive(fl.keys[:0], 0, targets)
	c.sub.readAll(fl)
	freshest := make(map[uint64]core.Entry, 4)
	for _, ke := range fl.all {
		cost += int64(c.routing.Dist(fl.keys[ke.key].node, client))
		if cur, ok := freshest[ke.e.ServerID]; !ok || ke.e.Time > cur.Time {
			freshest[ke.e.ServerID] = ke.e
		}
	}
	fl.reqs = nil
	c.passes.Add(fl.stripe, cost)
	c.floods.Put(fl)
	var out []core.Entry
	for _, e := range freshest {
		if e.Active {
			out = append(out, e)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("cluster: locate-all %q from %d: %w", port, client, core.ErrNotFound)
	}
	return out, nil
}

// SetHotPorts implements HotReclassifier on a weighted transport: the
// listed ports are promoted to the post-heavy hot split and all others
// demoted to the base strategy. Newly hot ports have their live servers
// reposted under the union sets *before* the classification is
// published, so a hot query never races ahead of the postings it needs;
// demoted ports are safe immediately because union ⊇ base. The repost
// traffic is charged like any other posting.
func (c *coordinator) SetHotPorts(ports []core.Port) error {
	h := c.table.Load().hot
	if h == nil {
		return fmt.Errorf("cluster: transport %q has no weighted strategy", c.Name())
	}
	newHot := make(map[core.Port]bool, len(ports))
	for _, p := range ports {
		newHot[p] = true
	}
	c.lifeMu.RLock()
	defer c.lifeMu.RUnlock()
	c.regMu.Lock()
	defer c.regMu.Unlock()
	var errs []error
	for _, ls := range c.liveServersLocked() {
		srv := ls.srv
		if !newHot[srv.port] || h.isHot(srv.port) {
			continue // not promoted, or already hot: its servers already post union
		}
		_, err := c.repostLocked(srv, noNode, func(node graph.NodeID) []graph.NodeID {
			srv.postedHot.Store(true)
			targets, _ := c.postSets(srv, node)
			return targets
		})
		if err != nil {
			// A crashed origin cannot repost; its stale base-set
			// postings stay visible to base queries only, exactly as
			// if the port had stayed cold for that server.
			errs = append(errs, err)
		}
	}
	h.set.Store(&newHot)
	return errors.Join(errs...)
}

// Elastic implements ElasticTransport.
func (c *coordinator) Elastic() bool { return c.elastic }

// Epoch implements ElasticTransport: the serving epoch's sequence
// number (0 when elastic membership is off).
func (c *coordinator) Epoch() uint64 {
	if c.elastic {
		return c.table.Load().ep.Seq()
	}
	return 0
}

// Resizing implements ElasticTransport.
func (c *coordinator) Resizing() bool { return c.table.Load().prev != nil }

// MigratedPosts implements ElasticTransport.
func (c *coordinator) MigratedPosts() int64 { return c.migrated.Load() }

// DualEpochLocates implements ElasticTransport.
func (c *coordinator) DualEpochLocates() int64 { return c.dualLocates.Load() }

// Resize implements ElasticTransport: it installs next as the serving
// epoch, widens the posting tables to both epochs' union, and re-posts
// every live server's entry to exactly the rendezvous nodes the
// minimal-movement remap added — each delta charged its multicast-tree
// cost, the honest price of the migration. Hint generations are bumped
// only for the ports whose postings moved. The registration lock is
// held across the server snapshot and the table publish, so a racing
// Register either lands in the snapshot (and is migrated) or posts
// under the new tables.
func (c *coordinator) Resize(next *strategy.Epoch) (int, error) {
	if !c.elastic {
		return 0, ErrNotElastic
	}
	c.lifeMu.RLock()
	defer c.lifeMu.RUnlock()
	c.resizeMu.Lock()
	defer c.resizeMu.Unlock()
	cur := c.table.Load()
	if cur.prev != nil {
		return 0, fmt.Errorf("cluster: resize to epoch %d: migration from epoch %d still draining", next.Seq(), cur.prev.ep.Seq())
	}
	if err := validateNextEpoch(cur.ep, next, c.g.N()); err != nil {
		return 0, err
	}
	nt, err := newSetTable(c.routing, next, nil, cur)
	if err != nil {
		return 0, err
	}
	c.regMu.Lock()
	live := c.liveServersLocked()
	for _, ls := range live {
		if !next.Contains(ls.node) {
			c.regMu.Unlock()
			return 0, errServerOutsideEpoch(ls.srv.port, ls.node, next)
		}
	}
	c.table.Store(nt)
	c.regMu.Unlock()

	moved := 0
	movedPorts := make(map[core.Port]bool)
	for _, ls := range live {
		n, _ := c.repostLocked(ls.srv, noNode, nt.rm.Added) // a crashed origin cannot migrate its postings
		if n > 0 {
			moved += n
			movedPorts[ls.srv.port] = true
		}
	}
	for port := range movedPorts {
		c.gens.bump(port)
	}
	c.migrated.Add(int64(moved))
	return moved, nil
}

// FinishResize implements ElasticTransport: the dual-epoch phase ends —
// new locates stop falling through to the old epoch — and every live
// server's postings at old-epoch-only rendezvous nodes expire in place,
// a local garbage collection that costs no message passes. It holds
// lifeMu exclusively: a write that read the dual-epoch posting sets must
// land before the expiry, or its Active rows would outlive it at
// old-epoch-only nodes that no later tombstone reaches, and an epoch
// that readmits those nodes would answer with a gone server.
func (c *coordinator) FinishResize() error {
	if !c.elastic {
		return ErrNotElastic
	}
	c.lifeMu.Lock()
	defer c.lifeMu.Unlock()
	c.resizeMu.Lock()
	defer c.resizeMu.Unlock()
	cur := c.table.Load()
	if cur.prev == nil {
		return fmt.Errorf("cluster: no resize in progress")
	}
	c.regMu.Lock()
	c.table.Store(cur.retired())
	c.regMu.Unlock()
	var rows []rowID
	for _, ls := range c.liveServers() {
		for _, v := range cur.rm.Removed(ls.node) {
			rows = append(rows, rowID{node: v, port: ls.srv.port, id: ls.srv.id})
		}
	}
	c.sub.expire(rows)
	return nil
}

// repairRange rebuilds the lost rows of the nodes for which in reports
// true (the nodes of one wire slot range) from the registration table:
// liveness records for servers homed there, then a fresh posting
// multicast for every live server whose posting set reaches them,
// charged like any other posting (the paper's §5 "services regularly
// poll their rendezvous nodes" maintenance). It serves a substrate
// whose process for the range restarted empty, or died while donating
// the range to a rescale. Every hint generation is bumped afterwards so
// cached addresses re-resolve against the repaired rows. The caller
// holds lifeMu.
func (c *coordinator) repairRange(in func(graph.NodeID) bool) {
	for _, ls := range c.liveServers() {
		srv := ls.srv
		_, _ = c.repostLocked(srv, noNode, func(node graph.NodeID) []graph.NodeID {
			if in(node) && !c.crashed[node].Load() {
				_ = c.sub.register([]liveReg{{id: srv.id, port: srv.port, node: node, from: noNode}})
			}
			// One set-table read serves both the in-range check and the
			// re-post: re-resolving the posting set for the post could
			// observe a newer epoch than the one checked here if a Resize
			// (also under the shared lifeMu fence) installs its tables
			// between the two loads, re-posting a mid-migration server to
			// the wrong epoch's rendezvous nodes at the wrong charge.
			targets, _ := c.postSets(srv, node)
			if slices.ContainsFunc(targets, in) {
				return targets
			}
			return nil
		})
	}
	c.gens.bumpAll()
}

// repairRecovered is the wire substrate's repair-loop callback: the
// process owning wire slots [lo, hi), the nodes for which in reports
// true, answers again after an observed death, empty.
func (c *coordinator) repairRecovered(lo, hi int, in func(graph.NodeID) bool) {
	// Fence the repair's re-posts like any lifecycle write so they
	// cannot vanish into a mid-rescale snapshot.
	c.lifeMu.RLock()
	c.repairRange(in)
	c.lifeMu.RUnlock()
	c.events.emit(Event{Type: EvProcUp, Lo: lo, Hi: hi})
}

// procDown is the wire substrate's health callback: the process owning
// wire slots [lo, hi) failed a call after a healthy period. It may have
// hosted servers of any port, so every hint generation is bumped and
// cached addresses re-resolve by flooding instead of probing a black
// hole.
func (c *coordinator) procDown(lo, hi int) {
	c.gens.bumpAll()
	c.events.emit(Event{Type: EvProcDown, Lo: lo, Hi: hi})
}

// Crash implements Transport: the node stops accepting postings and
// answering queries, and its volatile cache is lost. Every hint
// generation is bumped — the crashed node may have hosted any port.
func (c *coordinator) Crash(node graph.NodeID) error {
	if !c.g.Valid(node) {
		return fmt.Errorf("cluster: crash %d: %w", node, graph.ErrNodeRange)
	}
	c.crashed[node].Store(true)
	c.sub.crash(node)
	c.gens.bumpAll()
	c.events.emit(Event{Type: EvCrash, Node: node})
	return nil
}

// Restore implements Transport.
func (c *coordinator) Restore(node graph.NodeID) error {
	if !c.g.Valid(node) {
		return fmt.Errorf("cluster: restore %d: %w", node, graph.ErrNodeRange)
	}
	c.crashed[node].Store(false)
	c.sub.restore(node)
	c.events.emit(Event{Type: EvRestore, Node: node})
	return nil
}

// SetEventSink implements EventSource: explicit crash/restore marks are
// pushed as EvCrash/EvRestore, and a wire substrate's health tracking
// raises EvProcDown on the first failed call against a node process
// (the kill -9 signal) and EvProcUp when its range has been rebuilt.
func (c *coordinator) SetEventSink(fn EventSink) { c.events.set(fn) }

// Passes implements Transport: the routing-derived pass total; what a
// substrate does to move rows is a vehicle and is never counted.
func (c *coordinator) Passes() int64 { return c.passes.Load() }

// ResetPasses implements Transport.
func (c *coordinator) ResetPasses() { c.passes.Reset() }

// Close implements Transport: it stops reconciliation and the substrate.
func (c *coordinator) Close() error {
	c.recon.halt()
	c.sub.close()
	return nil
}

// Port implements ServerRef.
func (s *server) Port() core.Port { return s.port }

// Node implements ServerRef.
func (s *server) Node() graph.NodeID {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.node
}

// Repost implements ServerRef: a fresh posting multicast, charged at
// the posting-set cost. The fresher posting can make this server the
// port's freshest winner over another, so the port's hints re-resolve.
func (s *server) Repost() error {
	s.c.lifeMu.RLock()
	defer s.c.lifeMu.RUnlock()
	s.mu.Lock()
	node, gone := s.node, s.gone
	s.mu.Unlock()
	if gone {
		return core.ErrServerGone
	}
	defer s.c.gens.bump(s.port)
	return s.c.post(s, node, true)
}

// Migrate implements ServerRef: the liveness record moves first (so
// probes at the old address answer negatively), then one multicast
// carries the tombstone to the old posting set (the stale address must
// lose) and a fresher posting to the new one. A crashed old host
// cannot tombstone, but the fresh posting's newer
// timestamp still wins wherever both are seen. The port's hint
// generation is bumped so cached addresses re-resolve.
func (s *server) Migrate(to graph.NodeID) error {
	c := s.c
	if err := c.checkHome("migrate to", s.port, to); err != nil {
		return err
	}
	c.lifeMu.RLock()
	defer c.lifeMu.RUnlock()
	s.mu.Lock()
	if s.gone {
		s.mu.Unlock()
		return core.ErrServerGone
	}
	from := s.node
	s.node = to
	s.mu.Unlock()
	regErr := c.sub.register([]liveReg{{id: s.id, port: s.port, node: to, from: from}})
	defer c.gens.bump(s.port)
	fl := c.postFlood()
	targets, cost := c.postSets(s, from)
	tombErr := c.stage(fl, s, from, false, targets, cost)
	targets, cost = c.postSets(s, to)
	err := c.stage(fl, s, to, true, targets, cost)
	c.send(fl)
	if err != nil {
		return errors.Join(regErr, tombErr, err)
	}
	return regErr
}

// Deregister implements ServerRef. The registration and its liveness
// record go before the tombstone posts, so a probe can never confirm a
// deregistered instance.
func (s *server) Deregister() error {
	c := s.c
	c.lifeMu.RLock()
	defer c.lifeMu.RUnlock()
	s.mu.Lock()
	if s.gone {
		s.mu.Unlock()
		return core.ErrServerGone
	}
	s.gone = true
	node := s.node
	s.mu.Unlock()
	c.dropServer(s)
	c.sub.deregister(s.id, node)
	c.gens.bump(s.port)
	return c.post(s, node, false)
}
